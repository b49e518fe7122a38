"""Host-speed calibration: a fixed pure-Python loop timed all through a repetition.

The benchmark's host is shared, and its CPU speed drifts by up to 1.8x within
seconds, with nothing else running in the container (no steal time shows in
``/proc/stat``; process CPU time slows down just as wall time does).  So each
repetition runs a :class:`SpeedSampler`: every :data:`INTERVAL_S` of wall time
a ``SIGALRM`` handler times :func:`reference_loop` on the main thread.  A phase
that took ``t`` seconds is reported as ``t * mean(REFERENCE_LOOP_S / loop
time)`` over the loops timed during it: seconds at the speed where one loop
takes :data:`REFERENCE_LOOP_S`.  A loop is timed in thread CPU time, so the
host's slowdowns show in it and waiting for a core does not.  The loop is part
of the benchmark, not the program, so no change to the program moves it.

Forked pool workers sample their own core the same way and write their CPU
time and scale to ``worker_dir`` when they exit; a call that fanned out is
scaled by the CPU-time-weighted mean of its processes' scales.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import signal
import time
from pathlib import Path

#: One :func:`reference_loop` on a calm 2.0 GHz Xeon (2 vCPUs), in seconds.
REFERENCE_LOOP_S = 0.00092

#: Wall time between two samples, in seconds (about 1% of the time is sampling).
INTERVAL_S = 0.1


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def reference_loop(n: int = 2_000) -> float:
    """Object creation, attribute and dict access, list sorting: the program's mix."""
    total = 0.0
    table: dict[int, _Pair] = {}
    recent: list[float] = []
    for index in range(n):
        pair = _Pair(index, index * 0.5)
        table[index & 511] = pair
        recent.append(pair.value)
        other = table.get((index * 7) & 511)
        total += other.key if other is not None else pair.value
        if len(recent) > 64:
            recent.sort()
            del recent[:32]
    return total


class SpeedSampler:
    """Times :func:`reference_loop` every :data:`INTERVAL_S` between start and stop."""

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = worker_dir
        self.loops_s: list[float] = []
        #: Wall and CPU time spent sampling, to be taken out of the phases it fell in.
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        multiprocessing.util.register_after_fork(self, SpeedSampler._after_fork)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self) -> None:
        started, cpu_started = time.perf_counter(), time.thread_time()
        reference_loop()
        cpu_s = time.thread_time() - cpu_started
        self.loops_s.append(cpu_s)
        self.spent_s += time.perf_counter() - started
        self.spent_cpu_s += cpu_s

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def scale(self, since: int, until: int) -> float:
        """Reference-speed seconds per second over samples ``[since, until)``."""
        loops = self.loops_s[since:until]
        return sum(REFERENCE_LOOP_S / loop for loop in loops) / len(loops)

    # ------------------------------------------------------------------ workers
    def _after_fork(self) -> None:
        """In a forked worker: sample this process from zero and report at exit."""
        self.loops_s.clear()
        self.spent_s = self.spent_cpu_s = 0.0
        self.start()
        multiprocessing.util.Finalize(self, self._dump_worker, exitpriority=0)

    def _dump_worker(self) -> None:
        self.stop()
        self.sample()  # every worker has at least one sample
        path = self.worker_dir / f"speed-{os.getpid()}.json"
        path.write_text(
            json.dumps(
                {
                    "cpu_s": time.process_time() - self.spent_cpu_s,
                    "sampling_cpu_s": self.spent_cpu_s,
                    "scale": self.scale(0, len(self.loops_s)),
                }
            )
        )

    def collect_workers(self) -> list[dict]:
        """The reports of the workers that exited since the last collection."""
        reports = []
        for path in sorted(self.worker_dir.glob("speed-*.json")):
            reports.append(json.loads(path.read_text()))
            path.unlink()
        return reports
