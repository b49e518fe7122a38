"""The repository's benchmark: paper artifacts and cold/warm sweeps, end to end.

Usage::

    python3 perfbench/run.py --workload thresholds --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark generates the workload's inputs
from ``--seed`` (see ``workloads.py``), then repeats the workload in fresh
processes (``rep.py``) until ``--seconds`` have passed, checking every
repetition's output.  Each repetition is what a user waits for: one call of an
artifact entry point, or one ``repro-experiments sweep`` invocation.

With ``--trace 0`` it reports the end-to-end metrics, each the median over
the repetitions.  Times are scaled to a reference host speed by a calibration
loop each repetition times every 0.1 s (``calibration.py``), because the
host's speed drifts by more than the metrics' bounds.  With ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer metrics of the traced ones (see
``tracing.py``), after checking that both kinds produce identical outputs and
that every count repeats exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A repetition that takes longer than this is killed and counted as failed.
REP_TIMEOUT_S = 150.0

#: End-to-end metrics: name -> unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "analysis.threshold.calls": "count",
    "analysis.revenue_rates.calls": "count",
    "analysis.revenue_rates.self_s": "s",
    "analysis.transition_rewards.calls": "count",
    "markov.transitions.self_s": "s",
    "markov.generator.self_s": "s",
    "markov.stationary.calls": "count",
    "markov.stationary.self_s": "s",
    "chain.add_block.calls": "count",
    "chain.add_block.self_s": "s",
    "chain.select_uncles.calls": "count",
    "chain.select_uncles.self_s": "s",
    "chain.select_uncles.hit_ratio": "ratio",
    "chain.settle.self_s": "s",
    "chain.validate.self_s": "s",
    "strategies.decide.calls": "count",
    "strategies.decide.self_s": "s",
    "simulation.blocks": "count",
    "simulation.engine.self_s": "s",
    "simulation.rng.calls": "count",
    "simulation.rng.self_s": "s",
    "simulation.markov_mc.self_s": "s",
    "network.sim.self_s": "s",
    "network.latency.calls": "count",
    "network.latency.self_s": "s",
    "store.write.calls": "count",
    "store.write.self_s": "s",
    "store.lease.calls": "count",
    "store.lease.self_s": "s",
    "store.read.calls": "count",
    "store.read.hit_ratio": "ratio",
    "store.read.self_s": "s",
    "store.fingerprint.calls": "count",
    "store.fingerprint.self_s": "s",
    "scenarios.plan.self_s": "s",
    "scenarios.run.self_s": "s",
    "dispatch.tasks": "count",
    "dispatch.retries": "count",
    "dispatch.self_s": "s",
    "dispatch.wait_s": "s",
    "experiments.driver.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "failed_frac": "ratio",
}

#: Per-layer time metric -> the layer whose self time it reports.
SELF_TIMES = {
    name: name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s")
} | {"dispatch.wait_s": "dispatch.wait"}


class Bench:
    """One benchmark run: its work directory, inputs and repetitions."""

    def __init__(self, workload: str, seed: int, size: str, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.inputs_path = work / "inputs.json"
        self.scenario_path = work / "scenario.json"
        self.attempted = 0
        self.failed = 0
        self.spawned = 0
        started = time.monotonic()
        self.inputs = workloads.generate(workload, seed, size)
        self.inputs_path.write_text(json.dumps(self.inputs, sort_keys=True))
        if "scenario" in self.inputs:  # the file a user passes to 'sweep'
            self.scenario_path.write_text(json.dumps(self.inputs["scenario"], indent=2))
        self.generate_s = time.monotonic() - started
        self.fill_s = 0.0
        self.digests: set[str] = set()

    def rep(self, *, trace: bool = False, mode: str = "measure") -> dict | None:
        """Run one repetition in a fresh process; ``None`` when it failed."""
        self.spawned += 1
        name = f"rep-{self.spawned}"
        cache_dir = self.work / ("cache-warm" if self.workload == "sweep-warm" else f"cache-{name}")
        worker_dir = self.work / f"workers-{name}"
        worker_dir.mkdir()
        request = {
            "workload": self.workload,
            "inputs_path": str(self.inputs_path),
            "scenario_path": str(self.scenario_path),
            "cache_dir": str(cache_dir),
            "worker_dir": str(worker_dir),
            "result_path": str(self.work / f"{name}.result.json"),
            "mode": mode,
            "trace": trace,
        }
        request_path = self.work / f"{name}.request.json"
        request_path.write_text(json.dumps(request))
        started = time.monotonic()
        try:
            process = subprocess.run(
                [sys.executable, str(HERE / "rep.py"), str(request_path)],
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=REP_TIMEOUT_S,
            )
            stderr, returncode = process.stderr, process.returncode
        except subprocess.TimeoutExpired as timeout:
            stderr, returncode = f"killed after {timeout.timeout}s", None
        finished = time.monotonic()
        if self.workload == "sweep-cold":
            shutil.rmtree(cache_dir, ignore_errors=True)
        result_path = Path(request["result_path"])
        if returncode != 0 or not result_path.exists():
            print(f"{name} ({mode}) failed (exit {returncode}):\n{stderr}", file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None
        result = json.loads(result_path.read_text())
        setup_s = result["ready_at"] - started - result["setup_sampling_s"]
        result["setup_s"] = setup_s * result["setup_scale"]
        result["process_s"] = finished - started
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for failure in result["failures"]:
            print(f"{name} ({mode}) check failed: {failure}", file=sys.stderr)
        if result["failed"] == 0:
            self.digests.add(result["digest"])
        return result

    def fill_cache(self) -> None:
        """Warm workload set-up: one cold sweep fills the cache the reps read.

        Its output digest joins the repetitions', so the warm aggregates are
        checked bit-equal to the cold pass.
        """
        fill = self.rep(mode="fill")
        if fill is not None:
            self.fill_s = fill["process_s"] * fill["scale"]

    def expect(self, condition: bool, message: str) -> None:
        """One benchmark-level output check."""
        self.attempted += 1
        if not condition:
            self.failed += 1
            print(f"check failed: {message}", file=sys.stderr)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0  # no repetition succeeded


def end_to_end(bench: Bench, reps: list[dict]) -> dict[str, float]:
    return {
        "setup_s": bench.generate_s + bench.fill_s + _median([rep["setup_s"] for rep in reps]),
        "wall_s": _median([rep["wall_s"] * rep["scale"] for rep in reps]),
        "cpu_s": _median([rep["cpu_s"] * rep["scale"] for rep in reps]),
        "peak_rss_mb": _median([rep["peak_rss_mb"] for rep in reps]),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _work_counts(trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced repetition that count work."""
    calls, counts = trace["calls"], trace["counts"]
    values: dict[str, float] = {
        name: calls.get(name[: -len(".calls")], 0) for name in PER_LAYER if name.endswith(".calls")
    }
    values.update(
        {
            "chain.select_uncles.hit_ratio": _ratio(
                counts.get("chain.select_uncles.hits", 0), calls.get("chain.select_uncles", 0)
            ),
            "store.read.hit_ratio": _ratio(
                counts.get("store.read.hits", 0), counts.get("store.read.keys", 0)
            ),
            "simulation.blocks": counts.get("simulation.blocks", 0),
            "dispatch.tasks": counts.get("dispatch.tasks", 0),
            "dispatch.retries": max(
                0, counts.get("dispatch.executions", 0) - counts.get("dispatch.tasks", 0)
            ),
        }
    )
    return values


def per_layer(bench: Bench, untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    traces = [rep["trace"] for rep in traced]
    work = [_work_counts(trace) for trace in traces]
    bench.expect(
        all(counts == work[0] for counts in work),
        f"work counts differ between traced repetitions: {work}",
    )
    values = dict(work[0]) if work else {}
    for name, layer in SELF_TIMES.items():
        values[name] = _median(
            [rep["trace"]["self_s"].get(layer, 0.0) * rep["scale"] for rep in traced]
        )
    values.update(
        {
            "trace.overhead_frac": _ratio(
                _median([rep["wall_s"] * rep["scale"] for rep in traced]),
                _median([rep["wall_s"] * rep["scale"] for rep in untraced]),
            )
            - 1.0,
            "trace.unattributed_frac": _median([trace["unattributed_frac"] for trace in traces]),
            "failed_frac": _ratio(bench.failed, bench.attempted),
        }
    )
    return {name: values.get(name, 0) for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(workloads.SIZES), default="full",
        help="input size ('tiny' is the self-test's)",
    )
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(arguments.workload, arguments.seed, arguments.size, work)
        print(
            f"perfbench workload={arguments.workload} seed={arguments.seed} "
            f"size={arguments.size} seconds={arguments.seconds:g} trace={arguments.trace}"
        )
        print(f"inputs {json.dumps(bench.inputs, sort_keys=True)}")
        if arguments.workload == "sweep-warm":
            bench.fill_cache()
        deadline = time.monotonic() + arguments.seconds
        untraced: list[dict] = []
        traced: list[dict] = []
        rounds: list[float] = []
        while True:
            started = time.monotonic()
            result = bench.rep()
            if result is not None:
                untraced.append(result)
            if arguments.trace:
                result = bench.rep(trace=True)
                if result is not None:
                    traced.append(result)
            rounds.append(time.monotonic() - started)
            # Stop at the round boundary nearest the deadline.
            if time.monotonic() + _median(rounds) / 2 > deadline:
                break
        bench.expect(
            len(bench.digests) <= 1,
            f"outputs differ between repetitions (traced or not, or the cache fill): "
            f"{sorted(bench.digests)}",
        )
        if arguments.trace:
            metrics, units = per_layer(bench, untraced, traced), PER_LAYER
        else:
            metrics, units = end_to_end(bench, untraced), END_TO_END
        print(f"repetitions untraced={len(untraced)} traced={len(traced)}")
        for rep in untraced + traced:
            kind = "traced" if "trace" in rep else "untraced"
            print(
                f"  {kind} wall_s={rep['wall_s']:.4f} scale={rep['scale']:.4f} "
                f"samples={rep['samples']} workers={rep['workers']} "
                f"scaled wall_s={rep['wall_s'] * rep['scale']:.4f} "
                f"setup_s={rep['setup_s']:.4f}"
            )
        for name, value in metrics.items():
            print(f"{name:36s} {value:14.6g} {units[name]}")
        correct = bench.failed == 0 and bool(untraced) and (bool(traced) or not arguments.trace)
        summary = {
            "correct": correct,
            "attempted": max(bench.attempted, 1),
            "failed": bench.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
        print(json.dumps(summary))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
