#!/usr/bin/env python
"""Same-run A/B of a change against a parent commit, over the repository benchmark.

Usage::

    python benchmarks/ab.py REF WORKLOAD

``REF`` is any git revision (the parent commit, usually ``HEAD``); the change
is the working tree, uncommitted and untracked files included.  Each side runs
in a fresh temporary tree, so neither carries a ``__pycache__`` or benchmark
leftovers from earlier runs: ``REF`` is extracted with ``git archive``, and the
working tree is copied file by file from ``git ls-files``.

The driver runs :data:`PAIRS` pairs of the command ``BENCHMARK.json`` declares
(``perfbench/run.py --workload WORKLOAD --seed 1 --seconds <run_seconds>
--trace 0``), one run in each tree per pair, alternating which side goes
first.  It then prints, for every end-to-end metric ``BENCHMARK.json`` lists:
both medians, the median change/parent ratio with a seeded 95% bootstrap
interval, the pairs each side won (ties count for neither), the interquartile
range of the parent's own runs, and the metric's bound; below them, the
operations each side attempted and failed.  Every run's values go to standard
error as it finishes.  The driver states no verdict: a gain, a regression or
an unresolved metric is read from these numbers.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Pairs of runs per comparison: the fewest the claim rule of nine wins in ten
#: can be applied to.
PAIRS = 10
#: The benchmark's workload seed, fixed so both sides generate the same inputs.
SEED = 1
#: Bootstrap resamples of the per-pair ratios, and the seed that draws them.
RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def git(repo: Path, *arguments: str) -> bytes:
    """Run a git command in ``repo`` and return its standard output."""
    completed = subprocess.run(["git", *arguments], cwd=repo, capture_output=True)
    if completed.returncode != 0:
        raise SystemExit(f"git {' '.join(arguments)} failed: {completed.stderr.decode().strip()}")
    return completed.stdout


def archive_tree(repo: Path, ref: str, dest: Path) -> None:
    """Extract the committed files of ``ref`` into the empty directory ``dest``."""
    archive = git(repo, "archive", "--format=tar", ref)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(repo: Path, dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into ``dest``.

    A tracked file deleted in the working tree is not copied.
    """
    listing = git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in sorted(set(listing.decode().split("\0")) - {""}):
        source = repo / name
        if not (source.is_file() or source.is_symlink()):
            continue
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target, follow_symlinks=False)


def run_once(tree: Path, command: list[str]) -> dict:
    """One benchmark run in ``tree``: the JSON summary on its last output line."""
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if completed.returncode != 0:
        raise SystemExit(
            f"benchmark run in {tree} exited {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Summarise one metric over paired runs; ``parent[i]`` and ``change[i]`` share pair ``i``.

    ``better`` is ``"lower"`` or ``"higher"``, as in ``BENCHMARK.json``.  The
    interval is the 2.5th and 97.5th percentile of the median ratio over
    :data:`RESAMPLES` resamples of the pairs, drawn from :data:`BOOTSTRAP_SEED`.
    """
    ratios = [c / p for p, c in zip(parent, change)]
    rng = random.Random(BOOTSTRAP_SEED)
    resampled = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES)
    )
    sign = 1 if better == "lower" else -1
    first_quartile, _, third_quartile = statistics.quantiles(parent, n=4, method="inclusive")
    return {
        "pairs": len(ratios),
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "ratio_median": statistics.median(ratios),
        "ratio_low": resampled[int(0.025 * RESAMPLES)],
        "ratio_high": resampled[int(0.975 * RESAMPLES) - 1],
        "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "parent_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "parent_iqr": third_quartile - first_quartile,
    }


def main(argv: list[str] | None = None) -> None:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        raise SystemExit(f"usage: {Path(__file__).name} REF WORKLOAD")
    ref, workload = arguments
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    if workload not in workloads:
        raise SystemExit(f"unknown workload {workload!r}; choose from {', '.join(workloads)}")
    command = [*benchmark["command"], "--workload", workload, "--seed", str(SEED)]
    command += ["--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    sha = git(REPO_ROOT, "rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()

    metrics = benchmark["end_to_end"]
    values = {side: {metric["name"]: [] for metric in metrics} for side in ("parent", "change")}
    operations = {side: {"attempted": 0, "failed": 0} for side in ("parent", "change")}
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {"parent": Path(scratch, "parent"), "change": Path(scratch, "change")}
        for tree in trees.values():
            tree.mkdir()
        archive_tree(REPO_ROOT, sha, trees["parent"])
        copy_working_tree(REPO_ROOT, trees["change"])
        print(f"ab: {workload}, parent {ref} ({sha[:12]}) vs the working tree", file=sys.stderr)
        print(f"ab: {PAIRS} pairs of: {' '.join(command)}", file=sys.stderr)
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                summary = run_once(trees[side], command)
                operations[side]["attempted"] += summary["attempted"]
                operations[side]["failed"] += summary["failed"]
                for metric in metrics:
                    values[side][metric["name"]].append(summary["metrics"][metric["name"]]["value"])
                measured = " ".join(
                    f"{metric['name']}={values[side][metric['name']][-1]:.6g}" for metric in metrics
                )
                print(f"  pair {pair + 1} {side}: {measured}", file=sys.stderr)

    header = ["metric", "unit", "better", "parent", "change", "ratio", "95% interval"]
    rows = [header + ["change wins", "parent wins", "parent IQR", "bound"]]
    for metric in metrics:
        name = metric["name"]
        result = compare(values["parent"][name], values["change"][name], metric["better"])
        rows.append(
            [
                name,
                metric["unit"],
                metric["better"],
                f"{result['parent_median']:.4g}",
                f"{result['change_median']:.4g}",
                f"{result['ratio_median']:.3f}",
                f"[{result['ratio_low']:.3f}, {result['ratio_high']:.3f}]",
                f"{result['change_wins']}/{result['pairs']}",
                f"{result['parent_wins']}/{result['pairs']}",
                f"{result['parent_iqr']:.3g}",
                f"{metric['bound']:.0%}",
            ]
        )
    widths = [max(len(row[column]) for row in rows) for column in range(len(rows[0]))]
    print(f"workload {workload}: parent {ref} ({sha[:12]}) vs the working tree, {PAIRS} pairs")
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    for side in ("parent", "change"):
        print(
            f"{side} operations: {operations[side]['failed']} failed "
            f"of {operations[side]['attempted']} attempted"
        )


if __name__ == "__main__":
    main()
