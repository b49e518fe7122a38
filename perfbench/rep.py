"""One repetition of one workload, in a fresh process.

Usage: ``python3 perfbench/rep.py REQUEST.json`` (written by ``run.py``).

The process imports the program and prepares the inputs (set-up), marks the
moment it is ready, runs the measured call, then checks the output and writes
a JSON result next to the request.  Wall and CPU time cover only the measured
call; CPU time includes every pool worker the call started and reaped.  A
:class:`calibration.SpeedSampler` runs from the start of set-up to the end of
the call, in this process and in every pool worker; the result holds each
phase's scale to the reference speed, and its times exclude the sampling.  With ``"trace": true`` the call runs under
:class:`tracing.Tracer`.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(request_path: str) -> int:
    from calibration import SpeedSampler

    request = json.loads(Path(request_path).read_text())
    sampler = SpeedSampler(Path(request["worker_dir"]))
    sampler.start()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    workload = request["workload"]
    inputs = json.loads(Path(request["inputs_path"]).read_text())
    prepared = workloads.prepare(workload, inputs, request)
    ready_at = time.monotonic()
    setup_sampling_s = sampler.spent_s
    sampler.sample()  # every phase has at least one sample
    setup_scale = sampler.scale(0, len(sampler.loops_s))
    call_samples = len(sampler.loops_s) - 1
    tracer = None
    if request["trace"]:
        tracer = Tracer(Path(request["worker_dir"]))
        tracer.install()

    sampling_start, sampling_cpu_start = sampler.spent_s, sampler.spent_cpu_s
    own_cpu_start = time.process_time()
    cpu_start = _cpu_seconds()
    wall_start = time.perf_counter()
    try:
        output = workloads.measure(workload, prepared)
        error = None
    except Exception:  # noqa: BLE001 - a failed run is reported, not raised
        output = None
        error = traceback.format_exc()
    elapsed_s = time.perf_counter() - wall_start
    cpu_s = _cpu_seconds() - cpu_start
    own_cpu_s = time.process_time() - own_cpu_start
    if tracer is not None:
        tracer.restore()
    sampling_cpu_s = sampler.spent_cpu_s - sampling_cpu_start
    wall_s = elapsed_s - (sampler.spent_s - sampling_start)
    own_cpu_s -= sampling_cpu_s
    sampler.sample()
    sampler.stop()
    # Each process's CPU time at its own scale; the wall time at their mean.
    workers = sampler.collect_workers()
    cpu_s -= sampling_cpu_s + sum(worker["sampling_cpu_s"] for worker in workers)
    call_scale = sampler.scale(call_samples, len(sampler.loops_s))
    work_s = own_cpu_s + sum(worker["cpu_s"] for worker in workers)
    scaled_work_s = own_cpu_s * call_scale + sum(
        worker["cpu_s"] * worker["scale"] for worker in workers
    )
    scale = scaled_work_s / work_s if work_s > 0 else call_scale

    result: dict = {
        "ready_at": ready_at,
        "setup_sampling_s": setup_sampling_s,
        "setup_scale": setup_scale,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "scale": scale,
        "samples": len(sampler.loops_s) - call_samples,
        "workers": len(workers),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        # Only this process's spans cover the measured call's wall time; they
        # include the sampling that fell in them.
        unattributed_frac = (elapsed_s - sum(tracer.self_s.values())) / elapsed_s
        tracer.merge_workers()
        result["trace"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "counts": tracer.counts,
            "unattributed_frac": unattributed_frac,
        }

    operations = workloads.planned_operations(workload, inputs)
    if error is None:
        try:
            digest, failures, checks = workloads.check(workload, inputs, request, output)
        except Exception:  # noqa: BLE001 - a check that crashes is a failed check
            digest, failures, checks = None, [traceback.format_exc()], 1
        result.update(
            digest=digest, failures=failures, attempted=operations + checks, failed=len(failures)
        )
    else:
        result.update(digest=None, failures=[error], attempted=operations, failed=operations)
    Path(request["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
