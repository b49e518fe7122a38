"""Every function the benchmark tracer wraps still exists where it looks for it.

``perfbench/tracing.py`` times each layer by replacing the functions and
methods its ``LAYERS`` table names (plus every strategy's decision methods).
A target renamed or deleted in ``src/`` breaks ``perfbench/run.py --trace 1``
at install time; this suite catches it in the tier-1 run.  The tracer is
loaded from its source file and only read: nothing is patched.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    """Execute ``perfbench/tracing.py`` into a fresh module (no bytecode is written)."""
    module = types.ModuleType("_perfbench_tracing")
    module.__file__ = str(TRACING_PATH)
    sys.modules[module.__name__] = module
    try:
        exec(compile(TRACING_PATH.read_text(), str(TRACING_PATH), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


tracing = _load_tracing()
LAYER_TARGETS = [target for targets in tracing.LAYERS.values() for target in targets]


def resolve(target: str) -> object:
    """Look ``target`` up the way ``Tracer._patch`` does, raising if it is gone."""
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attribute = qualname.split(".")
        return vars(getattr(module, class_name))[attribute]
    return getattr(module, qualname)


@pytest.mark.parametrize("target", LAYER_TARGETS)
def test_layer_target_resolves(target):
    assert callable(resolve(target))


def test_strategy_decisions_resolve():
    targets = tracing.strategy_targets()
    assert targets
    for target in targets:
        assert callable(resolve(target)), target


def test_every_adapter_wraps_a_layer_target():
    assert set(tracing.ADAPTERS) <= set(LAYER_TARGETS)


def test_layer_targets_are_distinct():
    assert len(LAYER_TARGETS) == len(set(LAYER_TARGETS))
