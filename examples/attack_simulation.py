"""Anatomy of a selfish-mining attack: what actually happens on the chain.

Run with::

    python examples/attack_simulation.py

The script runs the full chain simulator twice with the same random seed — once with
the pool executing the selfish strategy (Algorithm 1) and once with the pool mining
honestly — and compares what the resulting block trees look like: how many blocks end
up regular, referenced uncles, or wasted; how the rewards split; and how often the
pool's uncles collect the maximum (distance-1) reward compared with honest miners'
uncles.  This is the mechanism behind the paper's Section VI observation that the
distance-based uncle reward effectively subsidises the attacker.
"""

from __future__ import annotations

from repro import ChainSimulator, MiningParams, Scenario, SimulationConfig, ethereum_schedule
from repro.utils.tables import Table


def describe_run(label: str, result) -> list[object]:
    return [
        label,
        int(result.regular_blocks),
        int(result.uncle_blocks),
        int(result.stale_blocks),
        result.relative_pool_revenue,
        result.pool_absolute_revenue(Scenario.REGULAR_ONLY),
        result.pool_absolute_revenue(Scenario.REGULAR_PLUS_UNCLE),
    ]


def main() -> None:
    params = MiningParams(alpha=0.35, gamma=0.5)
    schedule = ethereum_schedule()
    config = SimulationConfig(params=params, schedule=schedule, num_blocks=60_000, seed=11)

    selfish_result = ChainSimulator(config).run()
    honest_result = ChainSimulator(config.with_strategy("honest")).run()

    table = Table(
        headers=[
            "pool behaviour",
            "regular blocks",
            "referenced uncles",
            "wasted blocks",
            "pool share Rs",
            "pool Us (scenario 1)",
            "pool Us (scenario 2)",
        ],
        title=f"One {config.num_blocks}-block run at {params.describe()}",
    )
    table.add_row(*describe_run("selfish (Algorithm 1)", selfish_result))
    table.add_row(*describe_run("honest (baseline)", honest_result))
    print(table.render())
    print()

    print("Uncle economics of the selfish run:")
    pool_uncles = selfish_result.pool_uncle_distance_counts
    honest_uncles = selfish_result.honest_uncle_distance_counts
    total_pool = sum(pool_uncles.values()) or 1
    total_honest = sum(honest_uncles.values()) or 1
    distance_one_pool = pool_uncles.get(1, 0) / total_pool
    distance_one_honest = honest_uncles.get(1, 0) / total_honest
    print(
        f"  pool uncles referenced at distance 1: {distance_one_pool:6.1%}  "
        f"(count {int(total_pool)})"
    )
    print(
        f"  honest uncles referenced at distance 1: {distance_one_honest:6.1%}  "
        f"(count {int(total_honest)})"
    )
    print(
        "  -> the pool's losing blocks almost always collect the maximum 7/8 uncle reward, "
        "honest miners' losing blocks do not (Table II of the paper)."
    )
    print()
    gain = selfish_result.pool_absolute_revenue(Scenario.REGULAR_ONLY) - params.alpha
    print(
        f"Against the honest-mining reference of {params.alpha:.3f}, the attack changes the pool's "
        f"scenario-1 revenue by {gain:+.3f} per regular block."
    )


if __name__ == "__main__":
    main()
