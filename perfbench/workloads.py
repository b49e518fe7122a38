"""The five workloads: seeded inputs, the measured call, and the output checks.

:func:`generate` runs in the benchmark's parent process and imports nothing
from the program.  Every other function runs in a fresh process per
repetition (``rep.py``), where the program is imported first and then driven
through its default public entry points only: ``run_figure10``,
``run_figure8``, ``run_network`` and the CLI's ``sweep`` sub-command.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import random

#: Every workload, in the order ``BENCHMARK.json`` lists them.
NAMES = ("thresholds", "chain-overlay", "network-latency", "sweep-cold", "sweep-warm")

#: Fig. 8's pool sizes: 0 to 0.45 in steps of 0.05, with 0 represented by
#: 1e-4 as in ``repro.analysis.sweep.alpha_grid`` (the model needs alpha > 0).
PAPER_ALPHAS = (1e-4,) + tuple(round(0.05 * index, 2) for index in range(1, 10))

#: Sizes per workload: the full benchmark and the self-test's tiny version.
#: Each full repetition takes a few seconds, so a run holds several of them.
SIZES = {
    "full": {
        "thresholds": {"gammas": 1, "max_lead": 60},
        "chain-overlay": {"blocks": 10_000, "max_lead": 40},
        "network-latency": {"blocks": 6_000, "max_lead": 60},
        "sweep-cold": {"alphas": 12, "gammas": 5, "runs": 8, "blocks": 2_000},
        # A warm pass reads ~10k entries/s: four times the cold grid keeps
        # it well above process start-up noise.
        "sweep-warm": {"alphas": 24, "gammas": 5, "runs": 16, "blocks": 2_000},
    },
    "tiny": {
        "thresholds": {"gammas": 1, "max_lead": 30},
        "chain-overlay": {"blocks": 6_000, "max_lead": 30},
        "network-latency": {"blocks": 800, "max_lead": 30},
        "sweep-cold": {"alphas": 3, "gammas": 2, "runs": 2, "blocks": 300},
        "sweep-warm": {"alphas": 6, "gammas": 2, "runs": 2, "blocks": 300},
    },
}

#: Largest pool size whose simulated revenue is checked against the analysis.
OVERLAY_CHECKED_ALPHA = 0.35

#: Configured tie-breaking of the network experiment (binds at zero delay).
NETWORK_GAMMA = 0.5


def generate(workload: str, seed: int, size: str = "full") -> dict:
    """The workload's inputs, a pure function of ``(workload, seed, size)``."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[size][workload]
    simulation_seed = rng.randrange(2**31)
    if workload == "thresholds":
        # Every gamma in [0.2, 0.4] costs 36 revenue points at max_lead=60
        # (13 for scenario 1, 23 for scenario 2), so the work does not depend
        # on the seed.
        return {
            "gammas": sorted(round(rng.uniform(0.2, 0.4), 4) for _ in range(sizes["gammas"])),
            "max_lead": sizes["max_lead"],
        }
    if workload == "chain-overlay":
        return {
            "alphas": list(PAPER_ALPHAS),
            "blocks": sizes["blocks"],
            "runs": 2,
            "seed": simulation_seed,
            "max_lead": sizes["max_lead"],
        }
    if workload == "network-latency":
        return {
            "latency_means": [0.0, round(rng.uniform(0.05, 0.15), 4), round(rng.uniform(0.3, 0.5), 4)],
            "two_pool_grid": [[round(rng.uniform(0.15, 0.25), 4), round(rng.uniform(0.15, 0.25), 4)]],
            "blocks": sizes["blocks"],
            "runs": 2,
            "seed": simulation_seed,
            "max_lead": sizes["max_lead"],
        }
    if workload in ("sweep-cold", "sweep-warm"):
        # An even grid, each point moved by a small seeded jitter: a run's cost
        # grows steeply with alpha, so a random sample made the work differ by
        # 1.7x between seeds.
        alphas = _jittered_grid(rng, 50, 450, sizes["alphas"])
        gammas = _jittered_grid(rng, 0, 100, sizes["gammas"])
        return {
            "scenario": {
                "name": f"perfbench-{workload}",
                "alphas": sorted(alpha / 1000 for alpha in alphas),
                "gammas": sorted(gamma / 100 for gamma in gammas),
                "strategies": ["honest", "selfish"],
                "backends": ["markov"],
                "num_runs": sizes["runs"],
                "num_blocks": sizes["blocks"],
                "seed": simulation_seed,
            }
        }
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(NAMES)}")


def _jittered_grid(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """``count`` distinct integers in ``[low, high]``: the centres of ``count``
    equal-width bins (each at least 5 wide), each moved by up to 2 either way."""
    width = (high - low) / count
    return [round(low + (index + 0.5) * width) + rng.randint(-2, 2) for index in range(count)]


def planned_operations(workload: str, inputs: dict) -> int:
    """Runs and analytic points the measured call performs."""
    if workload == "thresholds":
        return 2 * len(inputs["gammas"])
    if workload == "chain-overlay":
        return len(inputs["alphas"]) * (1 + inputs["runs"])
    if workload == "network-latency":
        cells = len(inputs["latency_means"]) + len(inputs["two_pool_grid"])
        return cells * inputs["runs"] + len(inputs["latency_means"])
    scenario = inputs["scenario"]
    return (
        len(scenario["alphas"])
        * len(scenario["gammas"])
        * len(scenario["strategies"])
        * len(scenario["backends"])
        * scenario["num_runs"]
    )


# ---------------------------------------------------------------------- child side
def prepare(workload: str, inputs: dict, request: dict) -> dict:
    """Import the program and build the measured call's arguments (set-up)."""
    import repro.experiments.cli  # noqa: F401 - imports every experiment
    import repro.scenarios  # noqa: F401
    import repro.store  # noqa: F401

    if workload in ("sweep-cold", "sweep-warm"):
        argv = ["sweep", request["scenario_path"], "--cache-dir", request["cache_dir"]]
        if request["mode"] == "fill" or workload == "sweep-cold":
            argv += ["--workers", "2"]
        return {"argv": argv}
    return inputs


def measure(workload: str, prepared: dict):
    """The measured phase: one call of the workload's entry point."""
    if workload == "thresholds":
        from repro.experiments.figure10 import run_figure10

        return run_figure10(gammas=prepared["gammas"], max_lead=prepared["max_lead"])
    if workload == "chain-overlay":
        from repro.experiments.figure8 import run_figure8

        return run_figure8(
            alphas=prepared["alphas"],
            simulation_blocks=prepared["blocks"],
            simulation_runs=prepared["runs"],
            seed=prepared["seed"],
            max_lead=prepared["max_lead"],
        )
    if workload == "network-latency":
        from repro.experiments.network import run_network

        return run_network(
            gamma=NETWORK_GAMMA,
            latency_means=prepared["latency_means"],
            two_pool_grid=[tuple(pair) for pair in prepared["two_pool_grid"]],
            simulation_blocks=prepared["blocks"],
            simulation_runs=prepared["runs"],
            seed=prepared["seed"],
            max_lead=prepared["max_lead"],
        )
    return _cli_sweep(prepared["argv"])


def _cli_sweep(argv: list[str]) -> dict:
    """``repro-experiments sweep ...``, keeping the scenario result it reports."""
    import repro.scenarios
    from repro.experiments import cli

    run_scenario = repro.scenarios.run_scenario
    results = []

    def keep(*args, **kwargs):
        result = run_scenario(*args, **kwargs)
        results.append(result)
        return result

    repro.scenarios.run_scenario = keep
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = cli.main(argv)
    finally:
        repro.scenarios.run_scenario = run_scenario
    return {"exit_code": exit_code, "result": results[0]}


def _aggregate_key(aggregate) -> tuple:
    """Every statistic of an aggregate (its per-run results excluded)."""
    return tuple(
        getattr(aggregate, field.name)
        for field in dataclasses.fields(aggregate)
        if field.name != "results"
    )


def _digest(value: object) -> str:
    """Bit-exact fingerprint of a structure of floats (``repr`` round-trips)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def check(workload: str, inputs: dict, request: dict, output) -> tuple[str, list[str], int]:
    """``(digest, failed check messages, checks made)`` for one measured output."""
    failures: list[str] = []
    checks = 0

    def expect(condition: bool, message: str) -> None:
        nonlocal checks
        checks += 1
        if not condition:
            failures.append(message)

    if workload == "thresholds":
        rows = []
        for point in output.points:
            gamma = point.gamma
            eyal_sirer = (1 - gamma) / (3 - 2 * gamma)
            scenario1 = point.ethereum_scenario1.alpha_star
            scenario2 = point.ethereum_scenario2.alpha_star
            expect(
                math.isclose(point.bitcoin, eyal_sirer, rel_tol=1e-12, abs_tol=1e-12),
                f"gamma={gamma}: Eyal-Sirer threshold {point.bitcoin} != {eyal_sirer}",
            )
            expect(
                scenario1 < point.bitcoin,
                f"gamma={gamma}: scenario-1 threshold {scenario1} not below Bitcoin's {point.bitcoin}",
            )
            rows.append((gamma, point.bitcoin, scenario1, scenario2))
        return _digest(rows), failures, checks

    if workload == "chain-overlay":
        crossover = output.crossover_alpha()
        expect(
            crossover is not None and 0.15 <= crossover <= 0.20,
            f"crossover alpha {crossover} outside [0.15, 0.20]",
        )
        simulated_pool = output.simulation.pool_absolute_scenario1()
        simulated_honest = output.simulation.honest_absolute_scenario1()
        rows = []
        for point, pool, honest in zip(output.analysis.points, simulated_pool, simulated_honest):
            alpha = point.params.alpha
            # Above alpha = 0.35 the standard error of 2 x 10k blocks exceeds
            # 0.01, so a 0.03 tolerance would fail some seeds by chance.
            if alpha <= OVERLAY_CHECKED_ALPHA:
                expect(
                    abs(pool - point.pool_absolute) <= 0.03,
                    f"alpha={alpha}: simulated pool revenue {pool} vs analysis {point.pool_absolute}",
                )
                expect(
                    abs(honest - point.honest_absolute) <= 0.03,
                    f"alpha={alpha}: simulated honest revenue {honest} vs analysis {point.honest_absolute}",
                )
            rows.append((alpha, point.pool_absolute, point.honest_absolute))
        aggregates = [_aggregate_key(sim.aggregate) for sim in output.simulation.points]
        return _digest((rows, aggregates)), failures, checks

    if workload == "network-latency":
        rows = []
        for point in output.latency_points:
            gamma = point.effective_gamma
            expect(
                gamma.count > 0 and 0.0 <= gamma.mean <= 1.0,
                f"delay={point.mean_delay}: effective gamma {gamma} outside [0, 1]",
            )
            if point.mean_delay == 0.0:
                ties = sum(result.tie_count for result in point.aggregate.results)
                # Each contested block goes the pool's way with probability gamma.
                tolerance = 4.0 * math.sqrt(NETWORK_GAMMA * (1 - NETWORK_GAMMA) / max(ties, 1))
                wins = sum(result.tie_wins for result in point.aggregate.results)
                expect(
                    ties > 0 and abs(wins / ties - NETWORK_GAMMA) <= tolerance,
                    f"zero delay: {wins}/{ties} contested blocks to the pool, "
                    f"configured gamma {NETWORK_GAMMA} (tolerance {tolerance:.3f})",
                )
            rows.append(
                (point.mean_delay, gamma, point.predicted_revenue, _aggregate_key(point.aggregate))
            )
        for point in output.two_pool_points:
            rows.append((point.alphas, point.pool_revenues, _aggregate_key(point.aggregate)))
        return _digest(rows), failures, checks

    # sweep-cold / sweep-warm (and the warm workload's cache fill)
    result = output["result"]
    planned = planned_operations(workload, inputs)
    expect(output["exit_code"] == 0, f"sweep exited with {output['exit_code']}")
    expect(
        result.complete and result.failed_runs == 0,
        f"{result.failed_runs} failed runs, {result.skipped_cells} pending cells",
    )
    if workload == "sweep-cold" or request["mode"] == "fill":
        expect(
            result.executed_runs == planned and result.cached_runs == 0,
            f"cold sweep executed {result.executed_runs} of {planned} runs "
            f"({result.cached_runs} from cache)",
        )
    else:
        expect(
            result.executed_runs == 0 and result.cached_runs == planned,
            f"warm sweep executed {result.executed_runs} runs, "
            f"{result.cached_runs} of {planned} from cache",
        )
    digest = _digest(
        [
            (outcome.cell.index, outcome.aggregate and _aggregate_key(outcome.aggregate))
            for outcome in result.cells
        ]
    )
    return digest, failures, checks

