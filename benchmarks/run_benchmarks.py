#!/usr/bin/env python
"""Run the engine benchmark suite and write a machine-readable timing record.

The driver invokes the pytest-benchmark suite (engines, network, MDP solver,
sweep-engine, resilient-dispatcher and store files by default), extracts
per-benchmark timings, derives blocks-per-second figures for the simulator
benchmarks and entries-per-second figures for the store benchmarks, and
writes everything to ``BENCH_PR10.json`` at the repository root so the
performance trajectory is tracked in-repo (``BENCH_PR2.json``,
``BENCH_PR5.json``, ``BENCH_PR6.json``, ``BENCH_PR7.json`` and
``BENCH_PR9.json`` hold the earlier-era records; ``--history`` renders the
whole trajectory as one table).

The record pairs the resilient-dispatcher benchmarks with their pre-PR 7
replicas (a bare ``ProcessPoolExecutor.map`` and a plain serial loop) into
``overhead_vs_pool_map`` / ``overhead_vs_serial_loop`` ratios — the
wall-clock tax of the fault-tolerance machinery on a healthy workload — and
its short-task case (about a thousand 2,000-block runs) into an informational
``pool_vs_serial`` ratio.  The store benchmarks time a warm batched read and
the claim -> put -> release write cycle of the single sqlite store.

Every record is stamped with its provenance — the git commit it measured, the
interpreter and machine it ran on, and the contents of the four component
registries (simulator backends, mining strategies, latency models, schedule
specs) — so a historical JSON answers "what exactly was benchmarked" without
archaeology.

Usage::

    python benchmarks/run_benchmarks.py                  # full default suite
    python benchmarks/run_benchmarks.py --smoke --check  # CI: tiny sizes + assert
    python benchmarks/run_benchmarks.py --select benchmarks  # every bench file
    python benchmarks/run_benchmarks.py --history        # table across eras

``--smoke`` shrinks the simulated block counts (via ``REPRO_BENCH_SCALE``) and runs
single rounds so the whole suite finishes in seconds.  ``--check`` asserts that the
network simulator's zero-latency fast path beats the general event loop on the
same workload, that the resilient dispatcher stays near a bare pool.map, and —
at full scale only — that the simulator benchmarks beat the timings recorded in
``BENCH_PR9.json``.

Records made from a dirty working tree are marked as such and loudly warned
about; ``--require-clean`` (used by CI for published artifacts) refuses to
write one at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR10.json"
#: Default pytest selection: the engine suite plus the network-backend, MDP
#: solver, sweep-engine, resilient-dispatcher and store suites
#: (whitespace-separated; each token is passed to pytest as its own argument).
DEFAULT_SELECT = (
    "benchmarks/bench_engines.py benchmarks/bench_network.py benchmarks/bench_mdp.py "
    "benchmarks/bench_sweep.py benchmarks/bench_resilient.py benchmarks/bench_store.py"
)

#: Full-scale timings measured immediately before the PR 2 optimisations landed
#: (same machine as the committed BENCH_PR2.json), so the recorded JSON carries
#: the speedup next to the absolute numbers.  Only meaningful at scale 1.0.
PRE_PR2_BASELINES_S = {
    "test_markov_monte_carlo_benchmark": 0.812,
    "test_chain_simulator_benchmark": 0.534,
    "test_stationary_solve_benchmark[60]": 0.101,
    "test_stationary_solve_benchmark[200]": 45.9,
}

#: Full-scale timings from the committed ``BENCH_PR5.json`` (the record made
#: immediately before the PR 6 batched event core landed), so the network
#: benchmarks carry their speedup over the previous event core next to the
#: absolute numbers.  The zero-latency and miner-scaling benchmarks are new in
#: PR 6; the 9-miner workloads compare against the single-pool baseline, which
#: was the closest pre-existing measurement of the same topology.  Only
#: meaningful at scale 1.0.
PR5_BASELINES_S = {
    "test_network_single_pool_benchmark": 0.764,
    "test_network_two_pool_benchmark": 0.7725,
    "test_network_miner_scaling_benchmark[9]": 0.764,
    "test_network_zero_latency_fast_path_benchmark": 0.764,
    "test_network_zero_latency_event_loop_benchmark": 0.764,
    "test_chain_simulator_benchmark": 0.4357,
    "test_markov_monte_carlo_benchmark": 0.0192,
}

#: Full-scale timings from the committed ``BENCH_PR6.json`` (the record made
#: immediately before the PR 7 resilient dispatcher landed), so the sweep and
#: simulator benchmarks carry their position relative to the previous era next
#: to the absolute numbers.  The sweep benchmarks are the ones the dispatcher
#: rewrite actually touches; the two engine benchmarks are carried as control
#: measurements (the engines themselves did not change in PR 7).  Only
#: meaningful at scale 1.0.
PR6_BASELINES_S = {
    "test_sweep_cold_cache_benchmark": 0.1353,
    "test_sweep_warm_cache_benchmark": 0.0039,
    "test_markov_monte_carlo_benchmark": 0.0220,
    "test_chain_simulator_benchmark": 0.3547,
}

#: Pairs of (measured benchmark, its no-machinery replica) whose mean ratio is
#: recorded as a named overhead field on the *measured* record.  This is the
#: PR 7 "dispatcher overhead vs old pool.map" number.
#: Full-scale timings from the committed ``BENCH_PR7.json`` (the record made
#: immediately before the PR 9 store-compaction tier landed), so the store and
#: sweep benchmarks carry their position relative to the previous era next to
#: the absolute numbers.  The warm-sweep benchmark is the one the batched pack
#: read path actually touches; the engine benchmarks are carried as control
#: measurements.  Only meaningful at scale 1.0.
PR7_BASELINES_S = {
    "test_sweep_cold_cache_benchmark": 0.1214,
    "test_sweep_warm_cache_benchmark": 0.0042,
    "test_markov_monte_carlo_benchmark": 0.0229,
    "test_chain_simulator_benchmark": 0.4064,
    "test_resilient_pool_dispatch_benchmark": 0.1157,
    "test_resilient_serial_dispatch_benchmark": 0.0456,
}

#: Full-scale timings from the committed ``BENCH_PR9.json`` (the record made
#: immediately before the PR 10 flat array-backed chain core landed), so the
#: simulator benchmarks carry their speedup over the object-tree era next to
#: the absolute numbers.  These are the benchmarks whose hot paths sit on the
#: block tree; the Markov walk is carried as a control measurement (PR 10 did
#: not touch it).  Only meaningful at scale 1.0.
PR9_BASELINES_S = {
    "test_chain_simulator_benchmark": 0.3314,
    "test_network_single_pool_benchmark": 0.4933,
    "test_network_two_pool_benchmark": 0.4364,
    "test_network_miner_scaling_benchmark[3]": 0.2997,
    "test_network_miner_scaling_benchmark[9]": 0.5764,
    "test_network_miner_scaling_benchmark[27]": 0.9888,
    "test_network_zero_latency_fast_path_benchmark": 0.2959,
    "test_network_zero_latency_event_loop_benchmark": 0.5453,
    "test_markov_monte_carlo_benchmark": 0.0208,
}

#: The ``--check`` floor for the PR 10 chain core at full scale: each entry is
#: the minimum speedup over ``PR9_BASELINES_S`` the current tree must sustain.
#: The floors are deliberately below the recorded speedups — single-round
#: benchmarks on shared machines jitter by 2x and more, and the point of the
#: gate is catching a reverted optimisation, not pinning scheduler noise.
PR9_CHECK_FLOORS = {
    "test_chain_simulator_benchmark": 1.25,
    "test_network_zero_latency_fast_path_benchmark": 1.25,
    "test_network_single_pool_benchmark": 1.0,
    "test_network_two_pool_benchmark": 1.0,
    "test_network_miner_scaling_benchmark[9]": 1.0,
    "test_network_zero_latency_event_loop_benchmark": 1.0,
}

OVERHEAD_PAIRS = (
    (
        "test_resilient_pool_dispatch_benchmark",
        "test_legacy_pool_map_benchmark",
        "overhead_vs_pool_map",
    ),
    (
        "test_resilient_serial_dispatch_benchmark",
        "test_serial_loop_baseline_benchmark",
        "overhead_vs_serial_loop",
    ),
    (
        "test_resilient_short_task_pool_benchmark",
        "test_resilient_short_task_serial_benchmark",
        "pool_vs_serial",
    ),
)

SMOKE_SCALE = 0.05


def git_revision() -> dict:
    """The measured commit: SHA plus a dirty-tree marker (``unknown`` outside git)."""

    def capture(*arguments: str) -> str | None:
        try:
            completed = subprocess.run(
                ["git", *arguments],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if completed.returncode != 0:
            return None
        return completed.stdout.strip()

    sha = capture("rev-parse", "HEAD")
    status = capture("status", "--porcelain")
    return {
        "sha": sha if sha else "unknown",
        "dirty": bool(status) if status is not None else None,
    }


def registry_contents() -> dict:
    """What was registered when the benchmarks ran (backends, strategies, ...)."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.backends import available_backends
    from repro.network.latency import available_latency_models
    from repro.rewards.schedule import available_schedule_specs
    from repro.strategies import available_strategies

    return {
        "backends": list(available_backends()),
        "strategies": list(available_strategies()),
        "latency_models": list(available_latency_models()),
        "schedule_specs": list(available_schedule_specs()),
    }


def machine_info() -> dict:
    """The hardware/interpreter the numbers were measured on."""
    uname = platform.uname()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": uname.machine,
        "processor": uname.processor,
        "system": uname.system,
        "release": uname.release,
        "cpu_count": os.cpu_count(),
    }


def run_suite(select: str, scale: float) -> dict:
    """Run the selected benchmarks, returning pytest-benchmark's JSON payload."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["REPRO_BENCH_SCALE"] = repr(scale)
    with tempfile.TemporaryDirectory() as tmp:
        payload_path = Path(tmp) / "benchmark.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            *shlex.split(select),
            "-q",
            "--benchmark-json",
            str(payload_path),
        ]
        completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
        if completed.returncode != 0:
            raise SystemExit(f"benchmark run failed with exit code {completed.returncode}")
        return json.loads(payload_path.read_text())


def summarise(payload: dict, scale: float) -> list[dict]:
    """Flatten pytest-benchmark's payload into one record per benchmark."""
    records = []
    for bench in payload.get("benchmarks", []):
        stats = bench["stats"]
        record = {
            "name": bench["name"],
            "group": bench.get("group"),
            "mean_s": stats["mean"],
            "min_s": stats["min"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
        }
        # Simulator benchmarks report their actual (scaled) block count through
        # pytest-benchmark's extra_info, so this driver never re-derives sizes.
        blocks = bench.get("extra_info", {}).get("blocks")
        if blocks is not None:
            record["blocks"] = blocks
            record["blocks_per_sec"] = blocks / stats["mean"]
        # Store benchmarks report their entry count the same way; entries/s is
        # the store tier's throughput figure.
        entries = bench.get("extra_info", {}).get("entries")
        if entries is not None:
            record["entries"] = entries
            record["entries_per_sec"] = entries / stats["mean"]
        # The dispatcher benchmark's parent-process CPU seconds (informational).
        parent_cpu_s = bench.get("extra_info", {}).get("parent_cpu_s")
        if parent_cpu_s is not None:
            record["parent_cpu_s"] = parent_cpu_s
        if scale == 1.0:
            baseline = PRE_PR2_BASELINES_S.get(bench["name"])
            if baseline is not None:
                record["pre_pr2_baseline_s"] = baseline
                record["speedup_vs_pre_pr2"] = baseline / stats["mean"]
            pr5_baseline = PR5_BASELINES_S.get(bench["name"])
            if pr5_baseline is not None:
                record["pr5_baseline_s"] = pr5_baseline
                record["speedup_vs_pr5"] = pr5_baseline / stats["mean"]
            pr6_baseline = PR6_BASELINES_S.get(bench["name"])
            if pr6_baseline is not None:
                record["pr6_baseline_s"] = pr6_baseline
                record["speedup_vs_pr6"] = pr6_baseline / stats["mean"]
            pr7_baseline = PR7_BASELINES_S.get(bench["name"])
            if pr7_baseline is not None:
                record["pr7_baseline_s"] = pr7_baseline
                record["speedup_vs_pr7"] = pr7_baseline / stats["mean"]
            pr9_baseline = PR9_BASELINES_S.get(bench["name"])
            if pr9_baseline is not None:
                record["pr9_baseline_s"] = pr9_baseline
                record["speedup_vs_pr9"] = pr9_baseline / stats["mean"]
        records.append(record)
    attach_overhead_ratios(records)
    return records


def attach_overhead_ratios(records: list[dict]) -> None:
    """Pair dispatcher benchmarks with their replicas into overhead ratios."""
    by_name = {record["name"]: record for record in records}
    for measured_name, replica_name, field in OVERHEAD_PAIRS:
        measured = by_name.get(measured_name)
        replica = by_name.get(replica_name)
        if measured is None or replica is None:
            continue
        measured["replica_s"] = replica["mean_s"]
        measured[field] = measured["mean_s"] / replica["mean_s"]


def check_fast_path_beats_event_loop(records: list[dict]) -> None:
    """Assert the zero-latency fast path beats the general loop on its workload."""
    by_name = {record["name"]: record for record in records}
    fast = by_name.get("test_network_zero_latency_fast_path_benchmark")
    general = by_name.get("test_network_zero_latency_event_loop_benchmark")
    if fast is None or general is None:
        raise SystemExit("--check needs both zero-latency network benchmarks in the selection")
    if fast["mean_s"] >= general["mean_s"]:
        raise SystemExit(
            "zero-latency fast path did not beat the general event loop: "
            f"fast {fast['mean_s']:.4f}s vs general {general['mean_s']:.4f}s"
        )
    print(
        f"check OK: zero-latency fast path {fast['mean_s']:.4f}s beats the "
        f"general loop {general['mean_s']:.4f}s "
        f"({general['mean_s'] / fast['mean_s']:.1f}x)"
    )


def check_dispatcher_overhead(records: list[dict]) -> None:
    """Assert the resilient dispatcher's pool path stays near the bare pool.

    The bound is deliberately loose (3x): the point is to catch an accidental
    serialisation of the pool path or a per-task sleep creeping in, not to
    pin scheduler jitter on shared CI runners.
    """
    by_name = {record["name"]: record for record in records}
    measured = by_name.get("test_resilient_pool_dispatch_benchmark")
    if measured is None or "overhead_vs_pool_map" not in measured:
        raise SystemExit(
            "--check needs the resilient-dispatcher and legacy pool.map benchmarks"
        )
    ratio = measured["overhead_vs_pool_map"]
    if ratio >= 3.0:
        raise SystemExit(
            "resilient dispatcher costs too much over a bare pool.map: "
            f"{measured['mean_s']:.4f}s vs {measured['replica_s']:.4f}s ({ratio:.2f}x)"
        )
    print(
        f"check OK: resilient pool dispatch {measured['mean_s']:.4f}s vs bare "
        f"pool.map {measured['replica_s']:.4f}s ({ratio:.2f}x overhead; "
        f"dispatching parent used {measured.get('parent_cpu_s', float('nan')):.4f}s CPU per round)"
    )
    # Informational, not gated: the short-task case's pool-vs-serial wall
    # ratio, where the per-task round trip through the parent shows.
    short = by_name.get("test_resilient_short_task_pool_benchmark")
    if short is not None and "pool_vs_serial" in short:
        print(
            f"info: short tasks on 2 workers {short['mean_s']:.4f}s vs serial "
            f"{short['replica_s']:.4f}s ({short['pool_vs_serial']:.2f}x; dispatching "
            f"parent used {short.get('parent_cpu_s', float('nan')):.4f}s CPU per round)"
        )


def check_simulators_beat_pr9(records: list[dict], scale: float) -> None:
    """Assert the simulator benchmarks beat the recorded PR 9 era (full scale).

    Compares against the committed ``BENCH_PR9.json`` timings with the floors
    of ``PR9_CHECK_FLOORS``; recorded baselines are only comparable at scale
    1.0, so smoke runs skip this gate.
    """
    if scale != 1.0:
        print("check skipped: PR 9 baselines only apply at full scale")
        return
    by_name = {record["name"]: record for record in records}
    failures = []
    summaries = []
    for name, floor in PR9_CHECK_FLOORS.items():
        record = by_name.get(name)
        if record is None:
            raise SystemExit(f"--check needs {name} in the selection")
        speedup = PR9_BASELINES_S[name] / record["mean_s"]
        summaries.append(f"{name} {speedup:.2f}x (floor {floor:.2f}x)")
        if speedup < floor:
            failures.append(
                f"{name}: {record['mean_s']:.4f}s is only {speedup:.2f}x the "
                f"PR 9 baseline {PR9_BASELINES_S[name]:.4f}s (floor {floor:.2f}x)"
            )
    if failures:
        raise SystemExit("simulators regressed against the PR 9 era:\n  " + "\n  ".join(failures))
    print("check OK: simulators beat the PR 9 era: " + ", ".join(summaries))


def load_history() -> list[tuple[int, dict]]:
    """The committed ``BENCH_PR*.json`` records, oldest era first."""
    eras = []
    for path in REPO_ROOT.glob("BENCH_PR*.json"):
        try:
            number = int(path.stem.removeprefix("BENCH_PR"))
        except ValueError:
            continue
        try:
            eras.append((number, json.loads(path.read_text())))
        except (OSError, json.JSONDecodeError) as error:
            print(f"skipping unreadable {path.name}: {error}", file=sys.stderr)
    eras.sort(key=lambda era: era[0])
    return eras


def print_history() -> None:
    """Render every committed benchmark record as one benchmark-by-era table."""
    eras = load_history()
    if not eras:
        raise SystemExit("no BENCH_PR*.json records found at the repository root")
    columns = [f"PR{number}" for number, _ in eras]
    # Row order: first era each benchmark appeared in, then name.
    rows: dict[str, dict[str, dict]] = {}
    for (number, document), column in zip(eras, columns):
        for record in document.get("benchmarks", []):
            rows.setdefault(record["name"], {})[column] = record

    def cell(record: dict | None) -> str:
        if record is None:
            return "-"
        if "blocks_per_sec" in record:
            return f"{record['blocks_per_sec']:,.0f} b/s"
        if "entries_per_sec" in record:
            return f"{record['entries_per_sec']:,.0f} e/s"
        return f"{record['mean_s'] * 1e3:.1f} ms"

    table = [["benchmark", *columns]]
    for name, by_column in rows.items():
        table.append([name, *[cell(by_column.get(column)) for column in columns]])
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for index, row in enumerate(table):
        line = "  ".join(
            field.ljust(widths[i]) if i == 0 else field.rjust(widths[i])
            for i, field in enumerate(row)
        )
        print(line)
        if index == 0:
            print("  ".join("-" * width for width in widths))
    for (_, document), column in zip(eras, columns):
        git = document.get("git", {})
        sha = (git.get("sha") or "unknown")[:12]
        dirty = " (dirty tree)" if git.get("dirty") else ""
        scale = document.get("scale", "?")
        print(f"{column}: {sha}{dirty}, scale {scale}, {document.get('created_at', '?')}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT, help="JSON output path")
    parser.add_argument(
        "--select", default=DEFAULT_SELECT, help="pytest selection to run (file or directory)"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes (REPRO_BENCH_SCALE=%s)" % SMOKE_SCALE
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "assert the zero-latency fast path beats the general event loop, "
            "the resilient dispatcher stays near a bare pool.map, and (at full "
            "scale) the simulators beat the timings recorded in BENCH_PR9.json"
        ),
    )
    parser.add_argument(
        "--require-clean",
        action="store_true",
        help="refuse to run (and to write an artifact) from a dirty working tree",
    )
    parser.add_argument(
        "--history",
        action="store_true",
        help="print a benchmark-by-era table of the committed BENCH_PR*.json records and exit",
    )
    args = parser.parse_args(argv)

    if args.history:
        print_history()
        return

    revision = git_revision()
    if revision["dirty"]:
        if args.require_clean:
            raise SystemExit(
                "refusing to benchmark a dirty working tree (--require-clean): "
                "commit or stash your changes so the record's git SHA means something"
            )
        print(
            "WARNING: benchmarking a DIRTY working tree — the record's git SHA "
            "does not describe the measured code and will be marked dirty",
            file=sys.stderr,
        )

    scale = SMOKE_SCALE if args.smoke else 1.0
    payload = run_suite(args.select, scale)
    records = summarise(payload, scale)
    document = {
        "schema": 2,
        "created_by": "benchmarks/run_benchmarks.py",
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git": revision,
        "machine_info": machine_info(),
        "registries": registry_contents(),
        # Kept for schema-1 consumers.
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scale": scale,
        "smoke": args.smoke,
        "benchmarks": records,
    }
    args.output.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    print(f"wrote {args.output} ({len(records)} benchmarks)")
    for record in records:
        if "blocks_per_sec" in record:
            rate = f" ({record['blocks_per_sec']:,.0f} blocks/s)"
        elif "entries_per_sec" in record:
            rate = f" ({record['entries_per_sec']:,.0f} entries/s)"
        else:
            rate = ""
        print(f"  {record['name']}: {record['mean_s'] * 1e3:.2f} ms{rate}")
    if args.check:
        check_fast_path_beats_event_loop(records)
        check_dispatcher_overhead(records)
        check_simulators_beat_pr9(records, scale)


if __name__ == "__main__":
    main()
