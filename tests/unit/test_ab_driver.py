"""The same-run A/B driver's summary and tree builders (no benchmark is run).

``benchmarks/ab.py`` is loaded from its source file; its ``main`` never runs.
"""

from __future__ import annotations

import subprocess
import sys
import types
from pathlib import Path

import pytest

AB_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "ab.py"


def _load_ab() -> types.ModuleType:
    """Execute ``benchmarks/ab.py`` into a fresh module (no bytecode is written)."""
    module = types.ModuleType("_benchmarks_ab")
    module.__file__ = str(AB_PATH)
    sys.modules[module.__name__] = module
    try:
        exec(compile(AB_PATH.read_text(), str(AB_PATH), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


ab = _load_ab()

# Five pairs: the change is lower in pairs 1, 3 and 5, ties in pair 2 and is
# higher in pair 4.  Ratios 0.9, 1, 10/11, 14/13, 0.8; their median is 10/11.
PARENT = [10.0, 12.0, 11.0, 13.0, 10.0]
CHANGE = [9.0, 12.0, 10.0, 14.0, 8.0]
RATIOS = [c / p for p, c in zip(PARENT, CHANGE)]


class TestCompare:
    def test_medians_ratio_and_parent_iqr(self):
        result = ab.compare(PARENT, CHANGE, "lower")
        assert result["pairs"] == 5
        assert result["parent_median"] == 11.0
        assert result["change_median"] == 10.0
        assert result["ratio_median"] == 10.0 / 11.0
        # Quartiles of 10, 10, 11, 12, 13 by linear interpolation: 10 and 12.
        assert result["parent_iqr"] == 2.0

    def test_wins_count_ties_for_neither_side(self):
        lower = ab.compare(PARENT, CHANGE, "lower")
        assert (lower["change_wins"], lower["parent_wins"]) == (3, 1)
        higher = ab.compare(PARENT, CHANGE, "higher")
        assert (higher["change_wins"], higher["parent_wins"]) == (1, 3)

    def test_interval_is_seeded_and_brackets_the_median_ratio(self):
        result = ab.compare(PARENT, CHANGE, "lower")
        assert result == ab.compare(PARENT, CHANGE, "lower")
        # A median of five resampled ratios is one of the ratios.
        assert result["ratio_low"] in RATIOS and result["ratio_high"] in RATIOS
        assert min(RATIOS) <= result["ratio_low"] < result["ratio_median"]
        assert result["ratio_median"] < result["ratio_high"] <= max(RATIOS)

    def test_identical_sides_give_a_unit_ratio_and_no_wins(self):
        result = ab.compare(PARENT, PARENT, "lower")
        assert result["ratio_median"] == result["ratio_low"] == result["ratio_high"] == 1.0
        assert result["change_wins"] == result["parent_wins"] == 0


def _git(repo: Path, *arguments: str) -> None:
    settings = ["user.name=ab", "user.email=ab@example.invalid", "commit.gpgsign=false"]
    options = [option for setting in settings for option in ("-c", setting)]
    subprocess.run(["git", *options, *arguments], cwd=repo, check=True, capture_output=True)


@pytest.fixture
def repo(tmp_path: Path) -> Path:
    """A committed repository whose working tree then edits, deletes, adds and caches."""
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "pkg" / "kept.py").write_text("committed\n")
    (repo / "pkg" / "gone.py").write_text("deleted in the working tree\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "pkg" / "kept.py").write_text("edited\n")
    (repo / "pkg" / "gone.py").unlink()
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "pkg" / "__pycache__").mkdir()
    (repo / "pkg" / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"stale")
    return repo


def _files(tree: Path) -> set[str]:
    return {path.relative_to(tree).as_posix() for path in tree.rglob("*") if path.is_file()}


class TestTrees:
    def test_working_tree_copy_has_edits_and_untracked_files_only(self, repo, tmp_path):
        dest = tmp_path / "change"
        dest.mkdir()
        ab.copy_working_tree(repo, dest)
        assert _files(dest) == {".gitignore", "pkg/kept.py", "pkg/new.py"}
        assert (dest / "pkg" / "kept.py").read_text() == "edited\n"

    def test_archive_has_the_committed_files_only(self, repo, tmp_path):
        dest = tmp_path / "parent"
        dest.mkdir()
        ab.archive_tree(repo, "HEAD", dest)
        assert _files(dest) == {".gitignore", "pkg/kept.py", "pkg/gone.py"}
        assert (dest / "pkg" / "kept.py").read_text() == "committed\n"
