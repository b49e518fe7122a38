#!/usr/bin/env python
"""Run the engine benchmark suite and write a machine-readable timing record.

The driver invokes the pytest-benchmark suite (engines, network, MDP solver,
sweep-engine, resilient-dispatcher and store files by default), extracts
per-benchmark timings, derives blocks-per-second figures for the simulator
benchmarks and entries-per-second figures for the store benchmarks, and
writes everything to ``.benchmarks/run_benchmarks.json`` (ignored by git).
The record describes one tree; to measure a change against its parent, run
``benchmarks/ab.py``, which compares both in the same session.

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
specs) — so a record answers "what exactly was benchmarked" without archaeology.

Usage::

    python benchmarks/run_benchmarks.py                  # full default suite
    python benchmarks/run_benchmarks.py --smoke --check  # CI: tiny sizes + assert
    python benchmarks/run_benchmarks.py --select benchmarks  # every bench file

``--smoke`` shrinks the simulated block counts (via ``REPRO_BENCH_SCALE``) and runs
single rounds so the whole suite finishes in seconds.  ``--check`` asserts two
comparisons made within the same run: the network simulator's zero-latency fast
path beats the general event loop on the same workload, and the resilient
dispatcher stays near a bare pool.map.

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
DEFAULT_OUTPUT = REPO_ROOT / ".benchmarks" / "run_benchmarks.json"
#: Default pytest selection: the engine suite plus the network-backend, MDP
#: solver, sweep-engine, resilient-dispatcher and store suites
#: (whitespace-separated; each token is passed to pytest as its own argument).
DEFAULT_SELECT = (
    "benchmarks/bench_engines.py benchmarks/bench_network.py benchmarks/bench_mdp.py "
    "benchmarks/bench_sweep.py benchmarks/bench_resilient.py benchmarks/bench_store.py"
)

#: Pairs of (measured benchmark, its no-machinery replica) whose mean ratio is
#: recorded as a named overhead field on the *measured* record.
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


def summarise(payload: dict) -> list[dict]:
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
            "assert the zero-latency fast path beats the general event loop and "
            "the resilient dispatcher stays near a bare pool.map"
        ),
    )
    parser.add_argument(
        "--require-clean",
        action="store_true",
        help="refuse to run (and to write an artifact) from a dirty working tree",
    )
    args = parser.parse_args(argv)

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
    records = summarise(payload)
    document = {
        "schema": 2,
        "created_by": "benchmarks/run_benchmarks.py",
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git": revision,
        "machine_info": machine_info(),
        "registries": registry_contents(),
        "scale": scale,
        "smoke": args.smoke,
        "benchmarks": records,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
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


if __name__ == "__main__":
    main()
