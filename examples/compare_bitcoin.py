"""Ethereum vs Bitcoin: how uncle rewards change the economics of selfish mining.

Run with::

    python examples/compare_bitcoin.py

The script sweeps the pool size and compares, side by side,

* the Eyal-Sirer Bitcoin relative revenue (closed form and our 2-D engine run with a
  Bitcoin-style reward schedule),
* the Ethereum relative revenue under Byzantium rewards,
* the pool's *absolute* revenue in Ethereum under both difficulty scenarios,

and reports where each of them crosses the honest-mining line.  It also demonstrates
that running the Ethereum analysis with a Bitcoin-style reward schedule (no uncle or
nephew rewards) recovers the Eyal-Sirer numbers exactly — the two analyses agree on
their common special case.
"""

from __future__ import annotations

from repro import (
    BitcoinSchedule,
    MiningParams,
    RevenueModel,
    Scenario,
    absolute_revenue,
    bitcoin_relative_revenue,
    ethereum_schedule,
)
from repro.utils.tables import Table

GAMMA = 0.5
ALPHAS = [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45]


def main() -> None:
    ethereum_model = RevenueModel(ethereum_schedule(), max_lead=60)
    bitcoin_as_ethereum = RevenueModel(BitcoinSchedule(), max_lead=60)

    table = Table(
        headers=[
            "alpha",
            "Bitcoin Rs (closed form)",
            "Bitcoin Rs (2-D engine)",
            "Ethereum Rs",
            "Ethereum Us (scen. 1)",
            "Ethereum Us (scen. 2)",
        ],
        title=f"Relative and absolute selfish-mining revenue at gamma={GAMMA}",
    )
    for alpha in ALPHAS:
        params = MiningParams(alpha=alpha, gamma=GAMMA)
        closed_form = bitcoin_relative_revenue(params)
        bitcoin_rates = bitcoin_as_ethereum.revenue_rates(params)
        two_dimensional = bitcoin_rates.pool.static / (
            bitcoin_rates.pool.static + bitcoin_rates.honest.static
        )
        ethereum_rates = ethereum_model.revenue_rates(params)
        scenario1 = absolute_revenue(ethereum_rates, Scenario.REGULAR_ONLY).pool
        scenario2 = absolute_revenue(ethereum_rates, Scenario.REGULAR_PLUS_UNCLE).pool
        table.add_row(
            alpha,
            closed_form,
            two_dimensional,
            ethereum_rates.relative_pool_revenue,
            scenario1,
            scenario2,
        )
    print(table.render())
    print()
    print("Observations:")
    print("  * the two Bitcoin columns agree to numerical precision — the 2-D Ethereum")
    print("    engine degenerates to the Eyal-Sirer model when uncle rewards are removed;")
    print("  * Ethereum's scenario-1 absolute revenue crosses the honest line at a smaller")
    print("    pool size than Bitcoin's 0.25 (at gamma=0.5), which is the paper's headline;")
    print("  * counting uncles in the difficulty (scenario 2) pushes the crossing beyond 0.25.")


if __name__ == "__main__":
    main()
