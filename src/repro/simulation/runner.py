"""Multi-run orchestration: seeds, repetition, parallelism and parameter sweeps.

The paper's evaluation averages 10 independent runs of 100 000 blocks for every
parameter point.  :func:`run_many` reproduces that protocol (with configurable run
counts and lengths), deriving an independent random stream for every run from one
master seed so that experiments are exactly reproducible.  :func:`simulate_alpha_sweep`
is the simulation-side counterpart of :func:`repro.analysis.sweep.sweep_alpha`, used
for the simulation overlays in Fig. 8.

Because the runs of an experiment are independent, :func:`run_many` can fan them out
over a process pool (``max_workers``).  The per-run seeds are derived from the master
seed *before* dispatch — the seed stream does not depend on scheduling — so a
parallel experiment is bit-for-bit identical to a serial one.  Dispatch goes
through the resilient executor (:func:`repro.utils.resilient.resilient_map`):
a worker death, a hung run or a transient failure costs one attempt of one
task, is retried with deterministic backoff (settling to the bit-identical
result, thanks to the pre-derived seeds), and only an exhausted retry budget
surfaces — as :class:`RunFailure` records or a raised
:class:`~repro.errors.RetryExhaustedError`, per ``on_failure``.

Backends are resolved through the :mod:`repro.backends` registry; passing a
``store`` (a :class:`repro.store.ResultStore`) makes every entry point execute
only the runs missing from the cache and persist the new ones, so repeated and
interrupted experiments never re-simulate a cell they already settled.  With a
store, runs are also **claimed** (the store's cross-process lease protocol)
before executing, so several sweep processes sharing one cache directory
partition the work instead of duplicating it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from ..backends import available_backends, make_simulator
from ..errors import SimulationError
from ..params import MiningParams
from ..utils.resilient import (
    DEFAULT_POLICY,
    DEFERRED,
    FAULTS_ENV,
    RetryPolicy,
    TaskFailure,
    resilient_map,
)
from .config import SimulationConfig
from .metrics import AggregatedResult, SimulationResult, aggregate_results
from .rng import derive_seeds

if TYPE_CHECKING:  # pragma: no cover - type-only import (store imports metrics)
    from ..store import Lease, ResultStore

#: How often (seconds) a process waiting on another process's leased runs
#: re-polls the store for the settled result or a stale lease.
_LEASE_POLL_INTERVAL = 0.05

#: Names of the available simulator backends (the :mod:`repro.backends` registry
#: view, kept as a tuple for backwards compatibility).  ``chain`` and ``markov``
#: implement the paper's instantaneous-broadcast model; ``network`` is the
#: event-driven latency-aware simulator of :mod:`repro.network` (per-miner local
#: views, emergent tie-breaking, multiple simultaneous pools).
BACKENDS = available_backends()


def run_once(config: SimulationConfig, *, backend: str = "chain") -> SimulationResult:
    """Run a single simulation with the given configuration."""
    return make_simulator(config, backend).run()


def _run_task(task: tuple[SimulationConfig, str]) -> SimulationResult:
    """Execute one ``(config, backend)`` pair (top-level so it pickles)."""
    config, backend = task
    return run_once(config, backend=backend)


def _derive_run_configs(config: SimulationConfig, num_runs: int) -> list[SimulationConfig]:
    """The per-run configurations of a ``num_runs`` experiment (seed stream included).

    This is the single definition of the experiment protocol: run ``i`` uses the
    stream derived from the master seed at index ``i`` (via the shared
    :func:`repro.simulation.rng.derive_seed` helper), independent of execution
    order — which is what makes parallel dispatch bit-identical to serial.
    """
    return [config.with_seed(seed) for seed in derive_seeds(config.seed, num_runs)]


@dataclass(frozen=True)
class RunFailure:
    """One run that could not be settled after its full retry budget.

    Returned (in the run's slot) by :func:`execute_runs` when
    ``on_failure="record"``; the scenario engine surfaces these as *failed*
    cells next to its existing *skipped* (``max_cells``-capped) reporting.
    A failed run is never persisted to the store, so a later ``--resume``
    re-executes exactly the failures and nothing else.
    """

    config: SimulationConfig
    backend: str
    failure: TaskFailure

    def error(self):
        """The raisable form of this failure (see :class:`TaskFailure`)."""
        return self.failure.exhausted_error()


def _maybe_corrupt_store_entry(store: "ResultStore", key: str, index: int) -> None:
    """Fault-injection hook for the chaos tests (no-op unless a plan is set)."""
    if not os.environ.get(FAULTS_ENV):
        return
    from ..testing.faults import corrupt_after_write

    corrupt_after_write(store, key, index)


def execute_runs(
    tasks: Sequence[tuple[SimulationConfig, str]],
    *,
    max_workers: int | None = None,
    store: "ResultStore | None" = None,
    policy: RetryPolicy | None = None,
    on_failure: str = "raise",
) -> tuple[list["SimulationResult | RunFailure"], list[int]]:
    """Execute independent ``(config, backend)`` runs, consulting ``store`` first.

    This is the one executor behind :func:`run_many`, :func:`run_many_grid` and
    the scenario sweep engine.  Results come back in input order.  With a store,
    cached runs are loaded instead of executed, and freshly executed runs are
    persisted **as they complete** (in the parent process — workers never touch
    the store), so a sweep killed mid-flight leaves every settled run on disk
    for ``--resume``; the second element of the returned tuple lists the input
    indices this process actually executed, in ascending order (everything else
    came from the cache — or from a concurrent process sharing the store).
    Because cached results round-trip bit-exactly, the output is identical
    whether a run came from the cache or from the engine.

    Dispatch is resilient (:func:`repro.utils.resilient.resilient_map`, which
    also defines ``max_workers``):
    ``policy`` sets the per-run wall-clock timeout, the retry budget and the
    deterministic backoff (:data:`~repro.utils.resilient.DEFAULT_POLICY` when
    ``None``).  A retried run settles to the bit-identical result, so retries
    can never change aggregates.  When a run exhausts its budget,
    ``on_failure`` decides: ``"raise"`` (default) raises
    :class:`~repro.errors.RetryExhaustedError` *after* every other run
    settled (everything settled is already persisted), ``"record"`` degrades
    gracefully and returns a :class:`RunFailure` in the run's slot.
    ``policy.fail_fast`` instead aborts at the first exhausted run.

    With a store, each missing run is **claimed** (cross-process lease) before
    executing.  Runs whose claim is held by a concurrent process are not
    duplicated: this process waits for the other's result (stealing the claim
    only if it goes stale — holder dead or lease expired).
    """
    if max_workers is not None and max_workers < 1:
        raise SimulationError(f"max_workers must be positive, got {max_workers}")
    if on_failure not in ("raise", "record"):
        raise SimulationError(
            f"on_failure must be 'raise' or 'record', got {on_failure!r}"
        )
    policy = policy or DEFAULT_POLICY
    results: list[SimulationResult | RunFailure | None] = [None] * len(tasks)
    missing: list[int] = []
    if store is not None:
        from ..store import SIMULATION_NAMESPACE

        # Fingerprint every run once: every store call below is keyed, and one
        # batched read answers the whole up-front check.
        keys = [store.result_key(config, backend) for config, backend in tasks]
        configs = [config for config, _backend in tasks]
        for index, cached in enumerate(store.load_results(keys, configs)):
            if cached is None:
                missing.append(index)
            else:
                results[index] = cached
    else:
        missing = list(range(len(tasks)))

    executed: list[int] = []
    failures: dict[int, TaskFailure] = {}
    leases: dict[int, "Lease"] = {}

    def load(index: int) -> SimulationResult | None:
        return store.load_results([keys[index]], [configs[index]])[0]

    def try_claim(index: int) -> bool:
        lease = store.claim(SIMULATION_NAMESPACE, keys[index])
        if lease is None:
            return False  # a concurrent process owns this run; wait for it
        # The run may have settled between the up-front cache check and the
        # claim (the holder writes before releasing): use it, don't recompute.
        cached = load(index)
        if cached is not None:
            results[index] = cached
            store.release(lease)
            return False
        leases[index] = lease
        return True

    def settle(index: int, result: SimulationResult) -> None:
        results[index] = result
        executed.append(index)
        if store is not None:
            store.save_result(keys[index], result)
            _maybe_corrupt_store_entry(store, keys[index], index)
            lease = leases.pop(index, None)
            if lease is not None:
                store.release(lease)

    def record_failure(index: int, failure: TaskFailure) -> None:
        failures[index] = failure
        lease = leases.pop(index, None)
        if lease is not None:  # free the claim so a resume (or peer) can retry
            store.release(lease)

    outcomes = resilient_map(
        _run_task,
        [tasks[index] for index in missing],
        max_workers=max_workers,
        policy=policy,
        task_ids=missing,
        try_claim=try_claim if store is not None else None,
        on_settled=settle,
    )
    deferred: list[int] = []
    for position, index in enumerate(missing):
        outcome = outcomes[position]
        if outcome is DEFERRED:
            if results[index] is None:
                deferred.append(index)
        elif isinstance(outcome, TaskFailure):
            record_failure(index, outcome)

    # Wait out runs held by concurrent processes: their results appear in the
    # store (the holder persists before releasing), or their lease goes stale
    # (holder died) and we claim and run them ourselves.
    while deferred:
        progressed = False
        for index in list(deferred):
            results[index] = load(index)
            if results[index] is None and try_claim(index):
                outcome = resilient_map(
                    _run_task,
                    [tasks[index]],
                    max_workers=1,
                    policy=policy,
                    task_ids=[index],
                    on_settled=settle,
                )[0]
                if isinstance(outcome, TaskFailure):
                    record_failure(index, outcome)
            elif results[index] is None:
                continue  # still held by a live process
            deferred.remove(index)
            progressed = True
        if deferred and not progressed:
            time.sleep(_LEASE_POLL_INTERVAL)

    if failures:
        ordered = [failures[index] for index in sorted(failures)]
        if on_failure == "raise":
            first = ordered[0]
            raise first.exhausted_error() from first.error()
        for index, failure in failures.items():
            config, backend = tasks[index]
            results[index] = RunFailure(config=config, backend=backend, failure=failure)
    return [result for result in results if result is not None], sorted(executed)


def run_many_grid(
    configs: Sequence[SimulationConfig],
    num_runs: int,
    *,
    backend: str = "chain",
    max_workers: int | None = None,
    store: "ResultStore | None" = None,
    policy: RetryPolicy | None = None,
) -> list[AggregatedResult]:
    """Run ``num_runs`` of every configuration, one aggregate per configuration.

    All ``len(configs) * num_runs`` simulations are independent, so they are fanned
    out over a single process pool together (``max_workers`` as
    :func:`~repro.utils.resilient.resilient_map` defines it) — a sweep with many
    cells keeps every worker busy even when ``num_runs`` per cell is small.
    Results are grouped and aggregated per input configuration, in input order,
    and are identical to calling :func:`run_many` on each configuration serially.

    With a ``store`` only the runs missing from the cache execute; everything
    else is loaded, bit-exact, from disk.  ``policy`` tunes the resilient
    dispatch (timeout / retries / backoff); a run that exhausts its budget
    raises :class:`~repro.errors.RetryExhaustedError` (aggregation needs every
    run, so there is no degraded mode here — use :func:`execute_runs` with
    ``on_failure="record"`` for that).
    """
    if num_runs < 1:
        raise SimulationError(f"num_runs must be positive, got {num_runs}")
    expanded = [
        (run_config, backend)
        for config in configs
        for run_config in _derive_run_configs(config, num_runs)
    ]
    results, _ = execute_runs(
        expanded, max_workers=max_workers, store=store, policy=policy
    )
    return [
        aggregate_results(results[index * num_runs : (index + 1) * num_runs])
        for index in range(len(configs))
    ]


def run_many(
    config: SimulationConfig,
    num_runs: int,
    *,
    backend: str = "chain",
    max_workers: int | None = None,
    store: "ResultStore | None" = None,
    policy: RetryPolicy | None = None,
) -> AggregatedResult:
    """Run ``num_runs`` independent simulations and aggregate their results.

    Every run uses a random stream derived from ``config.seed`` and the run index, so
    the whole experiment is reproducible from the single master seed while the runs
    remain statistically independent.

    ``max_workers`` fans the runs out over a process pool, as
    :func:`~repro.utils.resilient.resilient_map` defines it.  The per-run seed
    stream is derived up front, so the aggregated result is identical whichever
    execution mode (or worker count) is chosen — parallelism is purely a
    wall-clock optimisation.  Grid experiments
    should prefer :func:`run_many_grid`, which keeps the pool busy across cells.
    With a ``store`` only the runs missing from the cache execute; ``policy``
    tunes the resilient dispatch (see :func:`run_many_grid`).
    """
    return run_many_grid(
        [config],
        num_runs,
        backend=backend,
        max_workers=max_workers,
        store=store,
        policy=policy,
    )[0]


@dataclass(frozen=True)
class SimulatedSweepPoint:
    """Aggregated simulation output at one ``alpha`` value."""

    params: MiningParams
    aggregate: AggregatedResult


@dataclass(frozen=True)
class SimulatedAlphaSweep:
    """Simulation results over a grid of pool sizes (the dots of Fig. 8)."""

    gamma: float
    points: tuple[SimulatedSweepPoint, ...]

    @property
    def alphas(self) -> list[float]:
        """The swept ``alpha`` values."""
        return [point.params.alpha for point in self.points]

    def pool_absolute_scenario1(self) -> list[float]:
        """Mean pool absolute revenue (scenario 1) per swept point."""
        return [point.aggregate.pool_absolute_scenario1.mean for point in self.points]

    def honest_absolute_scenario1(self) -> list[float]:
        """Mean honest absolute revenue (scenario 1) per swept point."""
        return [point.aggregate.honest_absolute_scenario1.mean for point in self.points]

    @classmethod
    def from_scenario(cls, sweep, gamma: float) -> "SimulatedAlphaSweep":
        """Adapt one alpha-axis :class:`~repro.scenarios.ScenarioRunResult`.

        Used by the figure drivers, whose simulation overlays are scenarios over
        a single alpha grid: each cell becomes one swept point, in cell order
        (alpha varies fastest in scenario expansion, so that is grid order).
        """
        return cls(
            gamma=gamma,
            points=tuple(
                SimulatedSweepPoint(
                    params=MiningParams(alpha=outcome.cell.alpha, gamma=gamma),
                    aggregate=outcome.aggregate,
                )
                for outcome in sweep.cells
            ),
        )


def simulate_alpha_sweep(
    alphas: Iterable[float],
    base_config: SimulationConfig,
    *,
    num_runs: int = 3,
    backend: str = "chain",
    max_workers: int | None = None,
    store: "ResultStore | None" = None,
) -> SimulatedAlphaSweep:
    """Run the simulator over a grid of pool sizes at the base configuration's ``gamma``.

    The runs of *all* grid points share one process pool (see :func:`run_many_grid`),
    so ``max_workers`` parallelism is effective even with few runs per point.
    """
    params_grid = [
        MiningParams(alpha=alpha, gamma=base_config.params.gamma) for alpha in alphas
    ]
    aggregates = run_many_grid(
        [base_config.with_params(params) for params in params_grid],
        num_runs,
        backend=backend,
        max_workers=max_workers,
        store=store,
    )
    points = [
        SimulatedSweepPoint(params=params, aggregate=aggregate)
        for params, aggregate in zip(params_grid, aggregates)
    ]
    return SimulatedAlphaSweep(gamma=base_config.params.gamma, points=tuple(points))


def simulate_strategy_sweep(
    strategies: Sequence[str],
    base_config: SimulationConfig,
    *,
    num_runs: int = 3,
    backend: str = "chain",
    max_workers: int | None = None,
    store: "ResultStore | None" = None,
) -> dict[str, AggregatedResult]:
    """Run the same configuration under several mining strategies.

    Every strategy sees the same master seed, so differences between the aggregates
    are attributable to the strategies alone (paired-comparison protocol).  The runs
    of all strategies share one process pool (see :func:`run_many_grid`).
    """
    aggregates = run_many_grid(
        [base_config.with_strategy(strategy) for strategy in strategies],
        num_runs,
        backend=backend,
        max_workers=max_workers,
        store=store,
    )
    return dict(zip(strategies, aggregates))


def honest_baseline_config(config: SimulationConfig) -> SimulationConfig:
    """A copy of ``config`` in which the pool mines honestly (baseline runs)."""
    return config.with_strategy("honest")
