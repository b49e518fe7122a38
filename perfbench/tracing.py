"""Per-layer spans and counts, wrapped around each layer's public functions.

The benchmark traces the program from the outside: :meth:`Tracer.install`
replaces the public functions and methods listed in :data:`LAYERS` with
wrappers that time every call, and :meth:`Tracer.restore` puts the originals
back.  Nothing under ``src/`` knows about it.

Self time is a span's duration minus the time of the spans it encloses, so a
layer's ``self_s`` is the time spent in that layer's own code.  Spans recorded
in forked pool workers are written to ``worker_dir`` when the worker exits and
merged by :meth:`Tracer.merge_workers`.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path
from typing import Callable

#: Layer name -> the ``module:qualname`` targets whose calls are its spans.
LAYERS: dict[str, tuple[str, ...]] = {
    "experiments.driver": (
        "repro.experiments.figure10:run_figure10",
        "repro.experiments.figure8:run_figure8",
        "repro.experiments.network:run_network",
        "repro.experiments.cli:main",
        "repro.experiments.cli:run_sweep",
    ),
    "analysis.threshold": ("repro.analysis.threshold:profitable_threshold",),
    "analysis.revenue_rates": ("repro.analysis.revenue:RevenueModel.revenue_rates",),
    "analysis.transition_rewards": ("repro.analysis.reward_cases:transition_rewards",),
    "markov.transitions": ("repro.markov.transitions:selfish_mining_transitions",),
    "markov.generator": (
        "repro.markov.chain:MarkovChain.__init__",
        "repro.markov.chain:MarkovChain.generator_matrix",
    ),
    "markov.stationary": ("repro.markov.stationary:stationary_distribution",),
    "chain.add_block": ("repro.chain.arrays:ArrayBlockTree.add_block_id",),
    "chain.select_uncles": ("repro.chain.arrays:ArrayBlockTree.select_uncles",),
    "chain.settle": ("repro.chain.rewards:settle_rewards",),
    "chain.validate": ("repro.chain.validation:validate_tree",),
    "simulation.engine": (
        "repro.simulation.engine:ChainSimulator.__init__",
        "repro.simulation.engine:ChainSimulator.run",
    ),
    "simulation.markov_mc": (
        "repro.simulation.fast:MarkovMonteCarlo.__init__",
        "repro.simulation.fast:MarkovMonteCarlo.run",
    ),
    "simulation.rng": tuple(
        f"repro.simulation.rng:RandomSource.{method}"
        for method in (
            "pool_mines_next",
            "honest_mines_on_pool_branch",
            "honest_miner_index",
            "mining_event",
            "choice_index",
            "uniform",
            "uniform_array",
            "uniform_block",
            "spawn",
        )
    ),
    "network.sim": (
        "repro.network.simulator:NetworkSimulator.__init__",
        "repro.network.simulator:NetworkSimulator.run",
    ),
    "network.latency": tuple(
        f"repro.network.latency:{model}.{method}"
        for model in ("ZeroLatency", "ConstantLatency", "ExponentialLatency")
        for method in ("sample", "sample_batch")
    ),
    "store.read": (
        "repro.store.store:ResultStore.get",
        "repro.store.store:ResultStore.get_many",
        "repro.store.store:ResultStore.contains_many",
    ),
    "store.write": ("repro.store.store:ResultStore.put",),
    "store.lease": (
        "repro.store.store:ResultStore.claim",
        "repro.store.store:ResultStore.release",
    ),
    "store.fingerprint": ("repro.store.fingerprint:config_fingerprint",),
    "scenarios.plan": (
        "repro.scenarios.spec:ScenarioSpec.cells",
        "repro.scenarios.spec:ScenarioSpec.run_plan",
    ),
    "scenarios.run": ("repro.scenarios.engine:run_scenarios",),
    "dispatch": ("repro.utils.resilient:resilient_map",),
    "dispatch.wait": ("repro.utils.resilient:connection_wait",),
}

#: Modules whose classes' ``after_pool_block``/``after_honest_block`` are
#: the ``strategies.decide`` spans.
STRATEGY_MODULES = ("repro.strategies.catalogue", "repro.strategies.optimal")


def _count_uncle_hits(tracer: "Tracer", select_uncles: Callable) -> Callable:
    def select(*args, **kwargs):
        uncles = select_uncles(*args, **kwargs)
        if uncles:
            tracer.count("chain.select_uncles.hits")
        return uncles

    return select


def _count_read(tracer: "Tracer", read: Callable) -> Callable:
    # get(namespace, key) answers one key; get_many / contains_many take a
    # key list and return what they found.
    batched = read.__name__ != "get"

    def counted(store, namespace, keys_or_key, *args, **kwargs):
        found = read(store, namespace, keys_or_key, *args, **kwargs)
        if batched:
            tracer.count("store.read.keys", len(keys_or_key))
            tracer.count("store.read.hits", len(found))
        else:
            tracer.count("store.read.keys")
            tracer.count("store.read.hits", found is not None)
        return found

    return counted


def _count_blocks(tracer: "Tracer", run: Callable) -> Callable:
    def counted(simulator, *args, **kwargs):
        result = run(simulator, *args, **kwargs)
        tracer.count("simulation.blocks", simulator.config.num_blocks)
        return result

    return counted


def _count_dispatch(tracer: "Tracer", resilient_map: Callable) -> Callable:
    def dispatch(function, tasks, *args, **kwargs):
        tracer.count("dispatch.tasks", len(tasks))

        def execute(payload):
            tracer.count("dispatch.executions")
            return function(payload)

        return resilient_map(execute, tasks, *args, **kwargs)

    return dispatch


#: Target -> adapter that counts outcomes inside the span.
ADAPTERS: dict[str, Callable[["Tracer", Callable], Callable]] = {
    "repro.chain.arrays:ArrayBlockTree.select_uncles": _count_uncle_hits,
    "repro.store.store:ResultStore.get": _count_read,
    "repro.store.store:ResultStore.get_many": _count_read,
    "repro.store.store:ResultStore.contains_many": _count_read,
    "repro.simulation.engine:ChainSimulator.run": _count_blocks,
    "repro.simulation.fast:MarkovMonteCarlo.run": _count_blocks,
    "repro.network.simulator:NetworkSimulator.run": _count_blocks,
    "repro.utils.resilient:resilient_map": _count_dispatch,
}


def strategy_targets() -> tuple[str, ...]:
    """The decision methods defined by every strategy class."""
    targets = []
    for module_name in STRATEGY_MODULES:
        module = importlib.import_module(module_name)
        for name, value in sorted(vars(module).items()):
            if isinstance(value, type) and value.__module__ == module_name:
                for method in ("after_pool_block", "after_honest_block"):
                    if method in vars(value):
                        targets.append(f"{module_name}:{name}.{method}")
    return tuple(targets)


class Tracer:
    """Accumulates per-layer call counts, self time and named counters."""

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = worker_dir
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, layer: str, function: Callable) -> Callable:
        """``function`` wrapped so each call is one span of ``layer``."""
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        calls.setdefault(layer, 0)
        self_s.setdefault(layer, 0.0)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    # ------------------------------------------------------------------ install
    def install(self) -> None:
        """Wrap every target of :data:`LAYERS` (and the strategy decisions)."""
        layers = dict(LAYERS, **{"strategies.decide": strategy_targets()})
        # Import every target module first, so the binding scan in _patch
        # sees each module that imported a wrapped function.
        for targets in layers.values():
            for target in targets:
                importlib.import_module(target.split(":")[0])
        for layer, targets in layers.items():
            for target in targets:
                self._patch(layer, target)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _patch(self, layer: str, target: str) -> None:
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        adapter = ADAPTERS.get(target)
        if "." in qualname:
            class_name, attribute = qualname.split(".")
            owner = getattr(module, class_name)
            original = vars(owner)[attribute]
            replacement = original if adapter is None else adapter(self, original)
            setattr(owner, attribute, self.span(layer, replacement))
            self._patches.append((owner, attribute, original))
            return
        # A module-level function is also bound, under its own or another name,
        # in every module that imported it: replace each binding.
        original = getattr(module, qualname)
        replacement = original if adapter is None else adapter(self, original)
        wrapped = functools.wraps(original)(self.span(layer, replacement))
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, name, wrapped)
                    self._patches.append((loaded, name, original))

    def restore(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ workers
    def _after_fork(self) -> None:
        """In a forked worker: start from zero and report at exit."""
        self._stack.clear()
        for table in (self.calls, self.self_s):
            for layer in table:
                table[layer] = 0
        self.counts.clear()
        multiprocessing.util.Finalize(self, self._dump_worker, exitpriority=0)

    def _dump_worker(self) -> None:
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        path.write_text(
            json.dumps({"calls": self.calls, "self_s": self.self_s, "counts": self.counts})
        )

    def merge_workers(self) -> None:
        """Add the totals the pool workers wrote at exit."""
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            totals = json.loads(path.read_text())
            for layer, value in totals["calls"].items():
                self.calls[layer] = self.calls.get(layer, 0) + value
            for layer, value in totals["self_s"].items():
                self.self_s[layer] = self.self_s.get(layer, 0.0) + value
            for name, value in totals["counts"].items():
                self.count(name, value)
            path.unlink()
