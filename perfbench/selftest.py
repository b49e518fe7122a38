"""Self-test of the benchmark: every workload at tiny size.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py

It checks that every metric ``BENCHMARK.json`` names is emitted with its unit,
that every count repeats exactly across two runs with the same seed, and that
no operation fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402

#: Metrics that are counts of work, not times: they must repeat exactly.
COUNTS = [name for name, unit in bench.PER_LAYER.items() if unit == "count" or name.endswith("hit_ratio")]


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    process = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(process.stdout.splitlines()[-1])


def _units(summary: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in summary["metrics"].items()}


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(workloads.NAMES)
    assert {metric["name"]: metric["unit"] for metric in spec["end_to_end"]} == bench.END_TO_END
    assert {metric["name"]: metric["unit"] for metric in spec["per_layer"]} == bench.PER_LAYER


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.NAMES:
        assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
        assert workloads.generate(workload, 5) != workloads.generate(workload, 6)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_at_tiny_size(workload):
    plain = _run(workload, trace=0)
    assert plain["correct"] and plain["failed"] == 0
    assert _units(plain) == bench.END_TO_END

    first, second = _run(workload, trace=1), _run(workload, trace=1)
    for traced in (first, second):
        assert traced["correct"] and traced["failed"] == 0
        assert _units(traced) == bench.PER_LAYER
        assert traced["metrics"]["failed_frac"]["value"] == 0
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
