"""Command-line entry point: regenerate any of the paper's tables and figures.

Installed as the ``repro-experiments`` console script::

    repro-experiments figure8              # full-fidelity run of the Fig. 8 driver
    repro-experiments figure10 --fast      # quick smoke version of Fig. 10
    repro-experiments strategies -j 4      # strategy sweep on 4 worker processes
    repro-experiments figure8 --backend markov   # overlay via the Markov backend
    repro-experiments network --fast       # latency -> effective gamma + 2-pool races
    repro-experiments all --fast           # every artifact, fast settings
    repro-experiments sweep my_scenario.toml --cache-dir .repro-cache
    repro-experiments sweep my_scenario.toml --cache-dir .repro-cache --resume
    repro-experiments store stats --cache-dir .repro-cache
    repro-experiments store vacuum --cache-dir .repro-cache --namespace simulation

Each sub-command prints the corresponding driver's text report to stdout.  All
sub-commands share one set of flags (:class:`ExperimentOptions`):

* ``--fast`` shrinks grids and simulations to smoke-test fidelity;
* ``--workers`` fans independent work (simulation runs, threshold solves) out
  over a process pool — results are bit-identical to a serial run;
* ``--backend`` selects the simulator behind the simulation-backed drivers
  (``chain``, ``markov`` or ``network``; the ``network`` experiment always runs
  its own backend);
* ``--cache-dir`` points the persistent result store at a directory: the
  simulation-backed drivers then execute only the runs missing from the cache
  (a warm re-run of a figure does zero simulation work);
* ``--profile[=FILE]`` wraps the run in :mod:`cProfile` and prints the stats
  (sorted by cumulative time) to stderr — with ``FILE`` the raw stats are also
  dumped for offline analysis.  Only the simulation-backed sub-commands accept
  it; profiling a purely descriptive table is a usage error, not a no-op;
* ``--timeout`` / ``--retries`` / ``--fail-fast`` tune the resilient executor
  behind every fan-out: a crashed, hung or failing run is retried with
  deterministic backoff, bit-identically, up to the retry budget.  Without
  ``--fail-fast`` the ``sweep`` sub-command degrades gracefully — runs that
  exhaust their budget mark their cell *failed*, everything else completes and
  persists, and ``--resume`` retries exactly the failures.  The drivers (which
  need every cell for their reports) always fail loudly on an exhausted budget.

The ``sweep`` sub-command runs an arbitrary scenario file (JSON or TOML; see
:mod:`repro.scenarios`) end-to-end through the shared sweep engine.  Its extra
flags: ``--max-cells N`` stops after N grid cells (leaving the rest pending on
disk), and ``--resume`` continues an interrupted sweep from an existing
``--cache-dir`` — only the still-missing cells execute.

The ``store`` sub-command maintains a ``--cache-dir`` in place: ``store
stats`` prints the entries per namespace and the size of the cache's one
sqlite database, and ``store vacuum`` evicts corrupt entries and stale leases.
``--namespace`` restricts either to one namespace (``simulation`` or
``policy``).

Purely descriptive artifacts (``table1``, ``figure6``) accept and ignore the
worker/backend/cache flags so that scripted invocations stay uniform.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from ..backends import available_backends
from ..errors import ExperimentError
from .discussion import run_discussion
from .figure8 import run_figure8
from .figure9 import run_figure9
from .figure10 import run_figure10
from .network import run_network
from .optimal import run_optimal
from .pools import pool_concentration_report
from .strategies import run_strategy_comparison
from .table1 import run_table1
from .table2 import run_table2

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..store import ResultStore
    from ..utils.resilient import RetryPolicy


@dataclass(frozen=True)
class ExperimentOptions:
    """The flags shared by every sub-command, resolved from argparse."""

    fast: bool = False
    workers: int | None = None
    backend: str = "chain"
    cache_dir: Path | None = None
    timeout: float | None = None
    retries: int | None = None
    fail_fast: bool = False

    def store(self) -> "ResultStore | None":
        """The result store behind ``--cache-dir`` (``None`` when not given)."""
        if self.cache_dir is None:
            return None
        from ..store import ResultStore

        return ResultStore(self.cache_dir)

    def resilience(self) -> "RetryPolicy | None":
        """The retry policy behind ``--timeout``/``--retries``/``--fail-fast``.

        ``None`` when every knob is at its default, so the executors use the
        package-wide :data:`~repro.utils.resilient.DEFAULT_POLICY`.
        """
        if self.timeout is None and self.retries is None and not self.fail_fast:
            return None
        from ..utils.resilient import DEFAULT_POLICY, RetryPolicy

        return RetryPolicy(
            timeout=self.timeout,
            retries=DEFAULT_POLICY.retries if self.retries is None else self.retries,
            fail_fast=self.fail_fast,
        )


#: Mapping of sub-command name to a callable producing the report text.  Every
#: callable receives the shared :class:`ExperimentOptions`; drivers without a
#: simulation or solver stage ignore the fields that do not apply to them.
_EXPERIMENTS: dict[str, Callable[[ExperimentOptions], str]] = {
    "figure6": lambda options: pool_concentration_report(),
    "figure8": lambda options: run_figure8(
        fast=options.fast,
        max_workers=options.workers,
        simulation_backend=options.backend,
        store=options.store(),
        resilience=options.resilience(),
    ).report(),
    "figure9": lambda options: run_figure9(
        fast=options.fast,
        include_simulation=not options.fast,
        max_workers=options.workers,
        simulation_backend=options.backend,
        store=options.store(),
        resilience=options.resilience(),
    ).report(),
    "figure10": lambda options: run_figure10(
        fast=options.fast, max_workers=options.workers, resilience=options.resilience()
    ).report(),
    "table1": lambda options: run_table1().report(),
    "table2": lambda options: run_table2(
        fast=options.fast,
        include_simulation=not options.fast,
        max_workers=options.workers,
        simulation_backend=options.backend,
        store=options.store(),
        resilience=options.resilience(),
    ).report(),
    "discussion": lambda options: run_discussion(
        fast=options.fast, max_workers=options.workers, resilience=options.resilience()
    ).report(),
    "strategies": lambda options: run_strategy_comparison(
        fast=options.fast,
        max_workers=options.workers,
        simulation_backend=options.backend,
        store=options.store(),
        resilience=options.resilience(),
    ).report(),
    "network": lambda options: run_network(
        fast=options.fast,
        max_workers=options.workers,
        store=options.store(),
        resilience=options.resilience(),
    ).report(),
    "optimal": lambda options: run_optimal(
        fast=options.fast,
        max_workers=options.workers,
        # The stubborn comparison needs a full-fidelity backend; the markov
        # backend still validates the extracted optimal strategy itself.
        include_catalogue=options.backend != "markov",
        simulation_backend=options.backend,
        store=options.store(),
        resilience=options.resilience(),
    ).report(),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Selfish Mining in Ethereum' (ICDCS 2019).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all", "store", "sweep"],
        help=(
            "which artifact to regenerate ('all' runs every driver; 'sweep' runs "
            "a scenario file through the shared sweep engine; 'store' maintains "
            "a --cache-dir: stats | vacuum)"
        ),
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default=None,
        metavar="SCENARIO_FILE_OR_ACTION",
        help=(
            "scenario file (.json/.toml) for the 'sweep' sub-command, or the "
            "action (stats | vacuum) for the 'store' sub-command"
        ),
    )
    parser.add_argument(
        "--namespace",
        default=None,
        metavar="NAME",
        help=(
            "store only: restrict stats/vacuum to one namespace "
            "('simulation' or 'policy'; default: all)"
        ),
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use coarse grids and short simulations (smoke-test fidelity)",
    )
    parser.add_argument(
        "--workers",
        "-j",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "fan independent runs/solves out over N worker processes "
            "(default: one per usable CPU; -j 1 runs serially in-process)"
        ),
    )
    parser.add_argument(
        "--backend",
        # Resolved at parser-build time, so backends registered before the CLI
        # runs (plugins calling register_backend on import) are selectable.
        choices=available_backends(),
        default="chain",
        help=(
            "simulator behind the simulation-backed drivers (default: chain; "
            "'markov' is fastest but models only honest/selfish, 'network' is the "
            "event-driven latency-aware simulator)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "persistent result store: execute only the runs missing from this "
            "directory and persist new ones (bit-exact round-trip)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "sweep only: continue an interrupted sweep — requires an existing "
            "--cache-dir; only the still-missing cells execute"
        ),
    )
    parser.add_argument(
        "--max-cells",
        type=_positive_int,
        default=None,
        metavar="N",
        help="sweep only: stop after N grid cells (the rest stay pending for --resume)",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help=(
            "profile the run with cProfile and print the stats (sorted by "
            "cumulative time) to stderr; with FILE also dump the raw stats "
            "there for offline analysis (simulation-backed sub-commands only)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-run wall-clock budget: a run past it has its worker killed and "
            "is retried (forces a worker process even for serial invocations)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help=(
            "how many times a crashed/hung/failed run is re-attempted with "
            "deterministic backoff before giving up (default: 2)"
        ),
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help=(
            "abort on the first run that exhausts its retry budget instead of "
            "completing the rest (sweep otherwise degrades to failed cells)"
        ),
    )
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"worker count must be positive, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"retry count must be non-negative, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"timeout must be positive, got {value}")
    return value


def run_experiment(
    name: str,
    *,
    fast: bool = False,
    workers: int | None = None,
    backend: str = "chain",
    cache_dir: Path | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    fail_fast: bool = False,
) -> str:
    """Run one named experiment and return its report text.

    Unknown names raise :class:`~repro.errors.ExperimentError` listing the
    available experiments (the CLI parser already rejects them; this guards the
    programmatic entry point).
    """
    options = ExperimentOptions(
        fast=fast,
        workers=workers,
        backend=backend,
        cache_dir=cache_dir,
        timeout=timeout,
        retries=retries,
        fail_fast=fail_fast,
    )
    try:
        experiment = _EXPERIMENTS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(_EXPERIMENTS))}"
        ) from None
    return experiment(options)


def run_sweep(
    scenario_path: str | Path,
    *,
    workers: int | None = None,
    cache_dir: Path | None = None,
    resume: bool = False,
    max_cells: int | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    fail_fast: bool = False,
) -> str:
    """Run one scenario file through the sweep engine and return its report.

    ``resume`` requires an existing ``cache_dir`` (that is where the settled
    cells of the interrupted sweep live); a plain invocation with a cache dir
    still reuses whatever the store already holds — ``--resume`` makes the
    intent explicit and fails loudly when the directory is missing.

    Unless ``fail_fast`` is set, the sweep runs in the engine's degraded mode:
    a run that exhausts its retry budget marks its cell *failed* in the report
    (exit stays 0 so the settled cells' output is not thrown away), nothing
    about the failure is persisted, and a ``--resume`` retries exactly the
    failed runs.
    """
    from ..scenarios import ScenarioSpec, run_scenario

    if scenario_path is None:
        raise ExperimentError(
            "the sweep experiment needs a scenario file: repro-experiments sweep <file.json|file.toml>"
        )
    if resume:
        if cache_dir is None:
            raise ExperimentError("--resume needs --cache-dir (that is where the sweep lives)")
        if not Path(cache_dir).is_dir():
            raise ExperimentError(
                f"--resume expects an existing cache directory, {str(cache_dir)!r} is missing"
            )
    spec = ScenarioSpec.from_file(scenario_path)
    options = ExperimentOptions(
        workers=workers,
        cache_dir=cache_dir,
        timeout=timeout,
        retries=retries,
        fail_fast=fail_fast,
    )
    result = run_scenario(
        spec,
        store=options.store(),
        max_workers=workers,
        max_cells=max_cells,
        policy=options.resilience(),
        on_failure="raise" if fail_fast else "record",
    )
    return result.report()


#: Actions of the ``store`` sub-command.
STORE_ACTIONS = ("stats", "vacuum")


def run_store(
    action: str,
    *,
    cache_dir: Path | None,
    namespace: str | None = None,
) -> str:
    """Run one store-maintenance action against ``cache_dir`` and report it.

    ``stats`` prints the entries per namespace and the database size,
    ``vacuum`` evicts corrupt entries and stale leases.  Both require an
    *existing* cache directory — a typo should fail loudly, not create an
    empty store.
    """
    from ..store import ResultStore
    from ..utils.tables import Table

    if action not in STORE_ACTIONS:
        raise ExperimentError(
            f"unknown store action {action!r}; available: {', '.join(STORE_ACTIONS)}"
        )
    if cache_dir is None:
        raise ExperimentError("'store' needs --cache-dir (the store to maintain)")
    if not Path(cache_dir).is_dir():
        raise ExperimentError(
            f"'store' expects an existing cache directory, {str(cache_dir)!r} is missing"
        )
    store = ResultStore(cache_dir)
    if action == "vacuum":
        report = store.vacuum(namespace)
        return (
            f"removed {report.removed_entries} invalid entries, "
            f"{report.removed_leases} stale leases"
        )
    stats = store.stats(namespace)
    table = Table(headers=["namespace", "entries"], title=f"Store {cache_dir}")
    for name, count in stats.entries.items():
        table.add_row(name, count)
    return f"{table.render()}\ndatabase {store.path}: {stats.database_bytes} bytes"


#: Sub-commands without a simulation (or solver) stage: profiling them would
#: only measure table formatting, so ``--profile`` rejects them outright.
_DESCRIPTIVE_EXPERIMENTS = ("figure6", "table1")


def _profiled(work: Callable[[], str], dump_path: str) -> str:
    """Run ``work`` under :mod:`cProfile` and report where the time went.

    The stats print to stderr (sorted by cumulative time) so the report on
    stdout stays clean; a non-empty ``dump_path`` additionally receives the raw
    marshalled stats for offline tooling (``pstats.Stats(path)``, snakeviz).
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(work)
    if dump_path:
        profiler.dump_stats(dump_path)
        print(f"profile stats dumped to {dump_path}", file=sys.stderr)
    pstats.Stats(profiler, stream=sys.stderr).sort_stats("cumulative").print_stats(30)
    return result


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    # Flags that only one branch honours are rejected, not silently dropped —
    # "figure8 scenario.toml --max-cells 2" is almost certainly a forgotten
    # 'sweep', and "sweep file --fast" would otherwise run at full fidelity.
    if arguments.experiment == "sweep":
        if arguments.fast:
            parser.error("--fast does not apply to 'sweep'; set fidelity in the scenario file")
        if arguments.backend != "chain":
            parser.error(
                "--backend does not apply to 'sweep'; set 'backends' in the scenario file"
            )
        if arguments.namespace is not None:
            parser.error("--namespace only applies to 'store'")
    elif arguments.experiment == "store":
        if arguments.scenario is None:
            parser.error(
                f"'store' needs an action: repro-experiments store "
                f"{{{'|'.join(STORE_ACTIONS)}}} --cache-dir DIR"
            )
        if arguments.fast:
            parser.error("--fast does not apply to 'store'")
        if arguments.backend != "chain":
            parser.error("--backend does not apply to 'store'")
        if arguments.resume:
            parser.error("--resume only applies to 'sweep'")
        if arguments.max_cells is not None:
            parser.error("--max-cells only applies to 'sweep'")
        if arguments.profile is not None:
            parser.error("--profile only applies to the simulation-backed sub-commands")
    else:
        if arguments.scenario is not None:
            parser.error(
                f"unexpected scenario file {arguments.scenario!r} for "
                f"{arguments.experiment!r}; scenario files run via 'sweep'"
            )
        if arguments.resume:
            parser.error("--resume only applies to 'sweep'")
        if arguments.max_cells is not None:
            parser.error("--max-cells only applies to 'sweep'")
        if arguments.namespace is not None:
            parser.error("--namespace only applies to 'store'")
        if arguments.profile is not None and arguments.experiment in _DESCRIPTIVE_EXPERIMENTS:
            parser.error(
                f"--profile does not apply to {arguments.experiment!r}: it has no "
                "simulation or solver stage to profile"
            )
        if arguments.profile is not None and arguments.experiment == "all":
            parser.error("--profile does not apply to 'all'; profile one sub-command at a time")
    if arguments.experiment == "store":
        started = time.time()
        report = run_store(
            arguments.scenario,
            cache_dir=arguments.cache_dir,
            namespace=arguments.namespace,
        )
        print(f"==== store {arguments.scenario} ({time.time() - started:.1f}s) ====")
        print(report)
        return 0
    if arguments.experiment == "sweep":
        started = time.time()

        def run_the_sweep() -> str:
            return run_sweep(
                arguments.scenario,
                workers=arguments.workers,
                cache_dir=arguments.cache_dir,
                resume=arguments.resume,
                max_cells=arguments.max_cells,
                timeout=arguments.timeout,
                retries=arguments.retries,
                fail_fast=arguments.fail_fast,
            )

        if arguments.profile is not None:
            report = _profiled(run_the_sweep, arguments.profile)
        else:
            report = run_the_sweep()
        print(f"==== sweep ({time.time() - started:.1f}s) ====")
        print(report)
        return 0
    names = sorted(_EXPERIMENTS) if arguments.experiment == "all" else [arguments.experiment]
    for name in names:
        started = time.time()

        def run_the_experiment(name: str = name) -> str:
            return run_experiment(
                name,
                fast=arguments.fast,
                workers=arguments.workers,
                backend=arguments.backend,
                cache_dir=arguments.cache_dir,
                timeout=arguments.timeout,
                retries=arguments.retries,
                fail_fast=arguments.fail_fast,
            )

        if arguments.profile is not None:
            report = _profiled(run_the_experiment, arguments.profile)
        else:
            report = run_the_experiment()
        elapsed = time.time() - started
        print(f"==== {name} ({elapsed:.1f}s) ====")
        print(report)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation only
    sys.exit(main())
