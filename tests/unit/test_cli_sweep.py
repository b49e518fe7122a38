"""Unit tests for the ``sweep``/``store`` CLI subcommands and cache-dir plumbing."""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing

import pytest

from repro.errors import ExperimentError
from repro.experiments.cli import (
    ExperimentOptions,
    build_parser,
    main,
    run_store,
    run_sweep,
)
from repro.store import ResultStore


def scenario_file(tmp_path, **overrides):
    data = {
        "name": "cli-sweep",
        "alphas": [0.2, 0.35],
        "strategies": ["honest", "selfish"],
        "backends": ["markov"],
        "num_runs": 1,
        "num_blocks": 1000,
        "seed": 7,
    }
    data.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


class TestParser:
    def test_sweep_subcommand_with_scenario_and_flags(self, tmp_path):
        arguments = build_parser().parse_args(
            ["sweep", "scenario.json", "--cache-dir", "cache", "--resume", "--max-cells", "2"]
        )
        assert arguments.experiment == "sweep"
        assert arguments.scenario == "scenario.json"
        assert str(arguments.cache_dir) == "cache"
        assert arguments.resume is True
        assert arguments.max_cells == 2

    def test_cache_dir_accepted_on_every_subcommand(self):
        arguments = build_parser().parse_args(["figure8", "--cache-dir", "cache"])
        assert str(arguments.cache_dir) == "cache"
        assert build_parser().parse_args(["figure8"]).cache_dir is None

    def test_options_store_resolution(self, tmp_path):
        assert ExperimentOptions().store() is None
        store = ExperimentOptions(cache_dir=tmp_path / "cache").store()
        assert isinstance(store, ResultStore)

    def test_resilience_flags_parse_on_every_subcommand(self):
        arguments = build_parser().parse_args(
            ["figure8", "--timeout", "2.5", "--retries", "0", "--fail-fast"]
        )
        assert arguments.timeout == 2.5
        assert arguments.retries == 0
        assert arguments.fail_fast is True
        defaults = build_parser().parse_args(["sweep", "scenario.json"])
        assert defaults.timeout is None
        assert defaults.retries is None
        assert defaults.fail_fast is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "s.json", "--timeout", "0"],
            ["sweep", "s.json", "--timeout", "-1"],
            ["sweep", "s.json", "--retries", "-1"],
        ],
    )
    def test_invalid_resilience_values_exit_with_usage_error(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_options_resilience_resolution(self):
        from repro.utils.resilient import RetryPolicy

        assert ExperimentOptions().resilience() is None
        policy = ExperimentOptions(timeout=3.0, fail_fast=True).resilience()
        assert isinstance(policy, RetryPolicy)
        assert policy.timeout == 3.0
        assert policy.retries == 2  # package default preserved
        assert policy.fail_fast is True
        assert ExperimentOptions(retries=0).resilience().retries == 0


class TestRunSweep:
    def test_end_to_end_report(self, tmp_path):
        report = run_sweep(scenario_file(tmp_path), cache_dir=tmp_path / "cache")
        assert "cli-sweep" in report
        assert "4 runs executed, 0 from cache" in report
        warm = run_sweep(scenario_file(tmp_path), cache_dir=tmp_path / "cache")
        assert "0 runs executed, 4 from cache" in warm

    @pytest.mark.parametrize("runs,spread", [(1, "n/a"), (2, None)])
    def test_std_column_is_undefined_below_two_runs(self, tmp_path, runs, spread):
        report = run_sweep(scenario_file(tmp_path, num_runs=runs, alphas=[0.35], strategies=["selfish"]))
        row = next(line.split() for line in report.splitlines() if line.startswith("markov "))
        assert row[5] == str(runs)
        if spread is not None:
            assert row[7] == spread
        else:
            assert float(row[7]) > 0.0

    def test_max_cells_leaves_cells_pending(self, tmp_path):
        report = run_sweep(
            scenario_file(tmp_path), cache_dir=tmp_path / "cache", max_cells=1
        )
        assert "3 cells pending" in report
        assert "pending" in report

    def test_missing_scenario_argument_rejected(self):
        with pytest.raises(ExperimentError, match="needs a scenario file"):
            run_sweep(None)

    def test_resume_requires_cache_dir(self, tmp_path):
        with pytest.raises(ExperimentError, match="--resume needs --cache-dir"):
            run_sweep(scenario_file(tmp_path), resume=True)

    def test_resume_requires_existing_directory(self, tmp_path):
        with pytest.raises(ExperimentError, match="existing cache directory"):
            run_sweep(
                scenario_file(tmp_path), cache_dir=tmp_path / "absent", resume=True
            )

    def test_resume_with_existing_directory(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(scenario_file(tmp_path), cache_dir=cache, max_cells=2)
        report = run_sweep(scenario_file(tmp_path), cache_dir=cache, resume=True)
        assert "0 cells pending" in report


class TestRejectedFlagCombinations:
    """Flags only one branch honours are rejected, never silently dropped."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure8", "scenario.toml"],
            ["figure8", "--resume"],
            ["table1", "--max-cells", "2"],
            ["sweep", "scenario.json", "--fast"],
            ["sweep", "scenario.json", "--backend", "markov"],
            ["sweep", "scenario.json", "--namespace", "simulation"],
            ["figure8", "--namespace", "simulation"],
            ["store"],  # missing action
            ["store", "stats", "--fast"],
            ["store", "stats", "--backend", "markov"],
            ["store", "stats", "--resume"],
            ["store", "stats", "--max-cells", "2"],
            ["store", "stats", "--profile"],
            ["table1", "--profile"],
            ["figure6", "--profile", "stats.prof"],
            ["all", "--profile"],
        ],
    )
    def test_mismatched_flags_exit_with_usage_error(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestProfile:
    def test_parser_accepts_bare_and_file_forms(self):
        assert build_parser().parse_args(["figure8"]).profile is None
        assert build_parser().parse_args(["figure8", "--profile"]).profile == ""
        arguments = build_parser().parse_args(["figure8", "--profile", "stats.prof"])
        assert arguments.profile == "stats.prof"

    def test_profiled_sweep_prints_stats_and_dumps_file(self, tmp_path, capsys):
        import pstats

        dump = tmp_path / "sweep.prof"
        exit_code = main(
            [
                "sweep",
                str(scenario_file(tmp_path)),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--profile",
                str(dump),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        # The report stays on stdout; the profile goes to stderr.
        assert "cli-sweep" in captured.out
        assert "cumulative" in captured.err
        assert "run_scenario" in captured.err
        # The dump is loadable raw-stats data, not text.
        assert pstats.Stats(str(dump)).total_calls > 0

    def test_bare_profile_prints_without_dumping(self, tmp_path, capsys):
        exit_code = main(
            [
                "sweep",
                str(scenario_file(tmp_path)),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--profile",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "cumulative" in captured.err
        assert "dumped to" not in captured.err


class TestRunStore:
    def test_unknown_action_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="unknown store action"):
            run_store("defragment", cache_dir=tmp_path)

    def test_cache_dir_required(self):
        with pytest.raises(ExperimentError, match="needs --cache-dir"):
            run_store("stats", cache_dir=None)

    def test_cache_dir_must_exist(self, tmp_path):
        # A typo should fail loudly, not create and maintain an empty store.
        with pytest.raises(ExperimentError, match="existing cache directory"):
            run_store("stats", cache_dir=tmp_path / "absent")

    def test_compact_is_no_longer_an_action(self, tmp_path):
        with pytest.raises(ExperimentError, match="available: stats, vacuum"):
            run_store("compact", cache_dir=tmp_path)

    def test_stats_then_vacuum(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(scenario_file(tmp_path), cache_dir=cache)
        stats = run_store("stats", cache_dir=cache)
        assert "simulation  4" in stats
        assert "store.sqlite" in stats
        vacuumed = run_store("vacuum", cache_dir=cache)
        assert vacuumed == "removed 0 invalid entries, 0 stale leases"
        warm = run_sweep(scenario_file(tmp_path), cache_dir=cache)
        assert "0 runs executed, 4 from cache" in warm

    def test_vacuum_reports_a_corrupt_row(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(scenario_file(tmp_path), cache_dir=cache)
        with closing(sqlite3.connect(cache / "store.sqlite")) as connection, connection:
            connection.execute(
                "UPDATE entries SET payload = 'damaged' "
                "WHERE key = (SELECT MIN(key) FROM entries)"
            )
        assert run_store("vacuum", cache_dir=cache) == (
            "removed 1 invalid entries, 0 stale leases"
        )
        warm = run_sweep(scenario_file(tmp_path), cache_dir=cache)
        assert "1 runs executed, 3 from cache" in warm

    def test_namespace_restriction_passes_through(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(scenario_file(tmp_path), cache_dir=cache)
        report = run_store("stats", cache_dir=cache, namespace="policy")
        assert "simulation" not in report  # nothing in 'policy'
        store = ResultStore(cache)
        with closing(sqlite3.connect(store.path)) as connection, connection:
            connection.execute("UPDATE entries SET payload = 'damaged'")
        assert run_store("vacuum", cache_dir=cache, namespace="policy").startswith(
            "removed 0 invalid entries"
        )
        # The simulation namespace was left alone.
        assert store.stats("simulation").entries == {"simulation": 4}


class TestMain:
    def test_main_runs_sweep(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        exit_code = main(
            ["sweep", str(path), "--cache-dir", str(tmp_path / "cache")]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "==== sweep" in output
        assert "cli-sweep" in output

    def test_main_runs_store_stats(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        cache = tmp_path / "cache"
        assert main(["sweep", str(path), "--cache-dir", str(cache)]) == 0
        exit_code = main(["store", "stats", "--cache-dir", str(cache)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "==== store stats" in output
        assert "simulation  4" in output


class TestSweepDegradedMode:
    def test_exhausted_run_becomes_failed_cell_not_crash(self, tmp_path, capsys):
        from repro.testing import FaultSpec, inject_faults

        path = scenario_file(tmp_path)
        plan = tuple(
            FaultSpec(kind="raise", task=0, attempt=attempt) for attempt in range(3)
        )
        with inject_faults(plan):
            exit_code = main(
                [
                    "sweep",
                    str(path),
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--retries",
                    "2",
                ]
            )
        assert exit_code == 0  # settled cells are reported, not thrown away
        output = capsys.readouterr().out
        assert "FAILED" in output
        assert "failed (1)" in output

        # The failed run was not persisted: a plain resume completes the sweep.
        resumed = run_sweep(path, cache_dir=tmp_path / "cache")
        assert "1 runs executed, 3 from cache" in resumed

    def test_fail_fast_raises_instead_of_degrading(self, tmp_path):
        from repro.errors import RetryExhaustedError
        from repro.testing import FaultSpec, inject_faults

        path = scenario_file(tmp_path)
        plan = tuple(
            FaultSpec(kind="raise", task=0, attempt=attempt) for attempt in range(2)
        )
        with inject_faults(plan):
            with pytest.raises(RetryExhaustedError):
                run_sweep(
                    path,
                    cache_dir=tmp_path / "cache",
                    retries=1,
                    fail_fast=True,
                )


class TestEngineHelpers:
    def test_find_filters_by_coordinates(self, tmp_path):
        from repro.scenarios import ScenarioSpec, run_scenario

        spec = ScenarioSpec(
            name="find",
            alphas=(0.2, 0.35),
            strategies=("honest", "selfish"),
            backends=("markov",),
            num_blocks=1000,
            seed=7,
        )
        result = run_scenario(spec)
        honest = result.find(strategy="honest")
        assert len(honest) == 2
        assert all(o.cell.strategy == "honest" for o in honest)
        single = result.find(strategy="selfish", alpha=0.35)
        assert len(single) == 1
        assert result.find(strategy="selfish", alpha=0.99) == ()

    def test_complete_flag(self, tmp_path):
        from repro.scenarios import ScenarioSpec, run_scenario
        from repro.store import ResultStore

        spec = ScenarioSpec(name="c", alphas=(0.2, 0.3), backends=("markov",), num_blocks=1000)
        partial = run_scenario(spec, store=ResultStore(tmp_path / "s"), max_cells=1)
        assert not partial.complete
        assert run_scenario(spec).complete

    def test_cell_outcome_state_trichotomy(self, tmp_path):
        """skipped, failed and settled are mutually exclusive cell states."""
        from repro.scenarios import ScenarioSpec, run_scenario
        from repro.testing import FaultSpec, inject_faults
        from repro.utils.resilient import RetryPolicy

        spec = ScenarioSpec(
            name="tri", alphas=(0.2, 0.3, 0.4), backends=("markov",), num_blocks=1000
        )
        plan = tuple(
            FaultSpec(kind="raise", task=0, attempt=attempt) for attempt in range(2)
        )
        with inject_faults(plan):
            result = run_scenario(
                spec,
                store=ResultStore(tmp_path / "s"),
                max_cells=2,
                policy=RetryPolicy(retries=1, backoff_base=0.0),
                on_failure="record",
            )
        states = [(o.skipped, o.failed, o.aggregate is not None) for o in result.cells]
        assert states == [(False, True, False), (False, False, True), (True, False, False)]
        assert result.failed_cells == 1 and result.skipped_cells == 1
        with pytest.raises(ExperimentError, match="1 cells failed"):
            result.aggregates()
