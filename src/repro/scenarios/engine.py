"""The shared sweep engine: one executor behind every experiment driver.

:func:`run_scenarios` takes any number of :class:`~repro.scenarios.spec.ScenarioSpec`
values and executes their combined run plans through one pipeline:

1. expand every spec to cells and pre-seeded planned runs (deterministic,
   scheduling-independent — see :mod:`repro.scenarios.spec`);
2. consult the optional :class:`~repro.store.ResultStore` and execute **only
   the missing runs**, all specs' work fanned out over one process pool
   (:func:`repro.simulation.runner.execute_runs` — the same executor behind
   ``run_many``, so a scenario cell's aggregate is bit-identical to a direct
   ``run_many`` of its configuration);
3. persist fresh results, group per cell, aggregate, and report how much work
   the cache absorbed.

``max_cells`` caps how many cells (across all specs, in plan order) are
attempted in this invocation; the rest are recorded as *skipped*.  With a
store, cells already fully cached are settled for free (a batched
``contains_many`` check) without consuming the cap.  Together
with a store this is what makes sweeps interruptible and resumable: a killed or
capped sweep leaves its settled runs on disk, and the next invocation executes
only what is still missing — the ``sweep`` CLI's ``--resume`` path.

Execution is resilient (``policy``): worker crashes, hangs and transient
failures are retried with deterministic backoff, and a run that exhausts its
budget either aborts the sweep (``on_failure="raise"``, the default) or —
``on_failure="record"``, the CLI's degraded mode — marks its cell *failed*
without touching the others.  Failed runs are never persisted, so a later
``--resume`` re-executes exactly the failures.

When a store is configured, the MDP policy cache is pointed at it too
(:func:`repro.mdp.solver.set_policy_store`), so scenarios sweeping the
``optimal`` strategy persist their per-point solves alongside the runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..simulation.metrics import AggregatedResult, aggregate_results, reported_spread
from ..simulation.runner import RunFailure, execute_runs
from ..utils.resilient import RetryPolicy
from ..utils.tables import Table
from .spec import PlannedRun, ScenarioCell, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..store import ResultStore


@dataclass(frozen=True)
class CellOutcome:
    """One executed (or skipped, or failed) scenario cell with its work accounting.

    Exactly one of three states: *settled* (``aggregate`` present), *skipped*
    (beyond the ``max_cells`` cap — never attempted), or *failed* (attempted,
    but at least one of its runs exhausted the retry budget; the
    :class:`~repro.simulation.runner.RunFailure` records are in ``failures``).
    A failed cell has no aggregate — partial statistics would silently change
    the cell's meaning — but its settled sibling runs are already persisted,
    so resuming re-executes only the failures.
    """

    cell: ScenarioCell
    aggregate: AggregatedResult | None
    executed_runs: int
    cached_runs: int
    failures: tuple[RunFailure, ...] = ()

    @property
    def skipped(self) -> bool:
        """True when the cell was beyond this invocation's ``max_cells`` cap."""
        return self.aggregate is None and not self.failures

    @property
    def failed(self) -> bool:
        """True when at least one of the cell's runs exhausted its retry budget."""
        return bool(self.failures)


@dataclass(frozen=True)
class ScenarioRunResult:
    """Everything one scenario produced: per-cell aggregates plus work accounting."""

    spec: ScenarioSpec
    cells: tuple[CellOutcome, ...]

    @property
    def executed_runs(self) -> int:
        """Simulations actually executed in this invocation."""
        return sum(outcome.executed_runs for outcome in self.cells)

    @property
    def cached_runs(self) -> int:
        """Simulations answered from the store."""
        return sum(outcome.cached_runs for outcome in self.cells)

    @property
    def skipped_cells(self) -> int:
        """Cells beyond the ``max_cells`` cap (pending for a later ``--resume``)."""
        return sum(1 for outcome in self.cells if outcome.skipped)

    @property
    def failed_cells(self) -> int:
        """Cells with at least one run that exhausted its retry budget."""
        return sum(1 for outcome in self.cells if outcome.failed)

    @property
    def failed_runs(self) -> int:
        """Individual runs that exhausted their retry budget, across all cells."""
        return sum(len(outcome.failures) for outcome in self.cells)

    @property
    def complete(self) -> bool:
        """True when every cell of the scenario has an aggregate."""
        return self.skipped_cells == 0 and self.failed_cells == 0

    def aggregates(self) -> tuple[AggregatedResult, ...]:
        """The per-cell aggregates in cell order (requires a complete sweep)."""
        pending = self.skipped_cells
        failed = self.failed_cells
        if pending or failed:
            from ..errors import ExperimentError

            parts = []
            if pending:
                parts.append(f"{pending} cells still pending")
            if failed:
                parts.append(f"{failed} cells failed ({self.failed_runs} runs)")
            raise ExperimentError(
                f"scenario {self.spec.name!r} is incomplete: {', '.join(parts)} "
                "(re-run with --resume, or without max_cells)"
            )
        return tuple(outcome.aggregate for outcome in self.cells)  # type: ignore[misc]

    def find(self, **coordinates: object) -> tuple[CellOutcome, ...]:
        """The cells whose coordinates match every given ``axis=value`` filter.

        Example: ``result.find(strategy="selfish", gamma=0.5)``.
        """
        matches = []
        for outcome in self.cells:
            cell_coordinates = outcome.cell.coordinates()
            if all(cell_coordinates.get(axis) == value for axis, value in coordinates.items()):
                matches.append(outcome)
        return tuple(matches)

    def report(self) -> str:
        """A generic per-cell table (the sweep CLI's output)."""
        table = Table(
            headers=["backend", "schedule", "strategy", "gamma", "alpha", "runs", "revenue", "std"],
            title=f"Scenario {self.spec.name} - relative pool revenue per cell",
        )
        for outcome in self.cells:
            cell = outcome.cell
            if outcome.skipped:
                revenue, spread, runs = "-", "-", "pending"
            elif outcome.failed:
                revenue, spread, runs = "-", "-", f"failed ({len(outcome.failures)})"
            else:
                stats = outcome.aggregate.relative_pool_revenue
                revenue, spread, runs = stats.mean, reported_spread(stats), stats.count
            table.add_row(
                cell.backend,
                cell.schedule_label,
                cell.strategy,
                cell.gamma,
                cell.alpha,
                runs,
                revenue,
                spread,
            )
        lines = [self.spec.describe(), table.render()]
        summary = (
            f"{self.executed_runs} runs executed, {self.cached_runs} from cache, "
            f"{self.skipped_cells} cells pending."
        )
        if self.failed_runs:
            summary += (
                f" {self.failed_runs} runs in {self.failed_cells} cells FAILED"
                " (not persisted; re-run with --resume to retry them):"
            )
        lines.append(summary)
        for outcome in self.cells:
            for failure in outcome.failures:
                lines.append(f"  cell {outcome.cell.index}: {failure.error()}")
        return "\n".join(lines)


def run_scenarios(
    specs: Sequence[ScenarioSpec],
    *,
    store: "ResultStore | None" = None,
    max_workers: int | None = None,
    max_cells: int | None = None,
    policy: RetryPolicy | None = None,
    on_failure: str = "raise",
) -> list[ScenarioRunResult]:
    """Execute several scenarios through one shared pool and one store.

    All specs' missing runs are dispatched together (one process pool keeps
    every worker busy across scenario boundaries), and results come back
    grouped per spec, per cell, in expansion order.  ``max_cells`` caps the
    cells attempted across all specs combined, in plan order; with a store,
    cells whose every run is already cached are *free* — a batched store check
    settles them without consuming the cap, so the cap budgets fresh progress.
    ``max_workers`` sizes the pool as
    :func:`~repro.utils.resilient.resilient_map` defines it.  ``policy`` tunes
    the resilient dispatch (per-run timeout, retries, backoff, fail-fast);
    ``on_failure="record"`` degrades a run that exhausts its budget into a
    *failed* cell instead of raising :class:`~repro.errors.RetryExhaustedError`.
    """
    if max_cells is not None and max_cells < 0:
        from ..errors import ExperimentError

        raise ExperimentError(f"max_cells must be non-negative, got {max_cells}")
    if store is not None:
        # Share the store with the MDP policy cache for the duration of the
        # sweep: pool workers forked during execution inherit the setting, so
        # scenarios sweeping the "optimal" strategy persist their solves.  The
        # previous store is restored on the way out.
        from ..mdp.solver import get_policy_store, set_policy_store

        previous_policy_store = get_policy_store()
        set_policy_store(store)
        try:
            return _run_scenarios(
                specs,
                store=store,
                max_workers=max_workers,
                max_cells=max_cells,
                policy=policy,
                on_failure=on_failure,
            )
        finally:
            set_policy_store(previous_policy_store)
    return _run_scenarios(
        specs,
        store=store,
        max_workers=max_workers,
        max_cells=max_cells,
        policy=policy,
        on_failure=on_failure,
    )


def _run_scenarios(
    specs: Sequence[ScenarioSpec],
    *,
    store: "ResultStore | None",
    max_workers: int | None,
    max_cells: int | None,
    policy: RetryPolicy | None = None,
    on_failure: str = "raise",
) -> list[ScenarioRunResult]:
    budget = max_cells
    spec_cells: list[tuple[ScenarioSpec, tuple[ScenarioCell, ...], list[ScenarioCell]]] = []
    for spec in specs:
        cells = spec.cells()
        if budget is None:
            attempted = list(cells)
        elif store is None:
            attempted = list(cells[: max(budget, 0)])
            budget -= len(attempted)
        else:
            # Plan filter: one batched containment check (one SELECT per few
            # hundred runs) decides which cells are already fully settled.
            # Those are free — loading them does no simulation work — so
            # ``max_cells`` budgets *new* cells only, and every capped
            # invocation of a resumed sweep makes max_cells cells of fresh
            # progress instead of re-spending the cap on cached cells.
            from ..store import SIMULATION_NAMESPACE

            keys = [store.result_key(run.config, run.backend) for run in spec.run_plan(cells)]
            present = store.contains_many(SIMULATION_NAMESPACE, keys)
            attempted = []
            for position, cell in enumerate(cells):
                runs = keys[position * spec.num_runs : (position + 1) * spec.num_runs]
                if all(key in present for key in runs):
                    attempted.append(cell)
                elif budget > 0:
                    attempted.append(cell)
                    budget -= 1
        spec_cells.append((spec, cells, attempted))

    # One flat task list across all specs; slices map back to (spec, cell).
    plan: list[PlannedRun] = []
    for spec, _, attempted in spec_cells:
        plan.extend(spec.run_plan(attempted))
    tasks = [(run.config, run.backend) for run in plan]
    results, executed_indices = execute_runs(
        tasks,
        max_workers=max_workers,
        store=store,
        policy=policy,
        on_failure=on_failure,
    )
    executed = set(executed_indices)

    outcomes: list[ScenarioRunResult] = []
    offset = 0
    for spec, cells, attempted in spec_cells:
        cell_outcomes: list[CellOutcome] = []
        attempted_indices = {cell.index for cell in attempted}
        for cell in cells:
            if cell.index not in attempted_indices:
                cell_outcomes.append(
                    CellOutcome(cell=cell, aggregate=None, executed_runs=0, cached_runs=0)
                )
                continue
            cell_results = results[offset : offset + spec.num_runs]
            failures = tuple(
                result for result in cell_results if isinstance(result, RunFailure)
            )
            executed_count = sum(
                1 for position in range(offset, offset + spec.num_runs) if position in executed
            )
            cell_outcomes.append(
                CellOutcome(
                    cell=cell,
                    aggregate=None if failures else aggregate_results(cell_results),
                    executed_runs=executed_count,
                    cached_runs=spec.num_runs - executed_count - len(failures),
                    failures=failures,
                )
            )
            offset += spec.num_runs
        outcomes.append(ScenarioRunResult(spec=spec, cells=tuple(cell_outcomes)))
    return outcomes


def run_scenario(
    spec: ScenarioSpec,
    *,
    store: "ResultStore | None" = None,
    max_workers: int | None = None,
    max_cells: int | None = None,
    policy: RetryPolicy | None = None,
    on_failure: str = "raise",
) -> ScenarioRunResult:
    """Execute one scenario (see :func:`run_scenarios`)."""
    return run_scenarios(
        [spec],
        store=store,
        max_workers=max_workers,
        max_cells=max_cells,
        policy=policy,
        on_failure=on_failure,
    )[0]
