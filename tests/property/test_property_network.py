"""Property-based invariants of the event-driven network simulator.

For random topologies (pool counts and sizes, honest population), latency models
and seeds, one fully drained run must uphold:

* **prefix-consistent local views** — a miner never knows a block without knowing
  its parent (out-of-order deliveries are buffered until the parent arrives, and
  the queue is fully drained when the run ends, so the closure must hold for
  every miner's final view);
* **conservation of mined blocks** — per-miner mined counts sum to the run
  length, the tree holds exactly ``num_blocks`` non-genesis blocks, and the
  settlement classifies each exactly once;
* **the emergent tie ratio is a ratio** — ``effective_gamma`` is either ``None``
  (no contested block) or within ``[0, 1]``, whatever the topology.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.simulator import NetworkSimulator
from repro.network.topology import multi_pool_topology, single_pool_topology
from repro.params import MiningParams
from repro.simulation.config import SimulationConfig

latency_specs = st.one_of(
    st.just("zero"),
    st.floats(min_value=0.0, max_value=0.6, allow_nan=False).map(lambda d: f"constant:{d}"),
    st.floats(min_value=0.0, max_value=0.6, allow_nan=False).map(lambda m: f"exponential:{m}"),
)

pool_strategies = st.sampled_from(["selfish", "lead_stubborn", "equal_fork_stubborn"])


@st.composite
def topologies(draw):
    """A random single- or two-pool topology with 2-4 honest miners."""
    latency = draw(latency_specs)
    num_honest = draw(st.integers(min_value=2, max_value=4))
    if draw(st.booleans()):
        alpha = draw(st.floats(min_value=0.05, max_value=0.45, allow_nan=False))
        return single_pool_topology(
            alpha,
            strategy=draw(pool_strategies),
            num_honest=num_honest,
            latency=latency,
        )
    alphas = (
        draw(st.floats(min_value=0.05, max_value=0.3, allow_nan=False)),
        draw(st.floats(min_value=0.05, max_value=0.3, allow_nan=False)),
    )
    return multi_pool_topology(
        [(alphas[0], draw(pool_strategies)), (alphas[1], draw(pool_strategies))],
        num_honest=num_honest,
        latency=latency,
    )


network_cases = st.fixed_dictionaries(
    {
        "topology": topologies(),
        "gamma": st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "blocks": st.integers(min_value=100, max_value=350),
    }
)


def _run(case) -> tuple[NetworkSimulator, object]:
    config = SimulationConfig(
        # alpha is unused by an explicit topology but keeps the config valid and
        # supplies the gamma coin for same-instant ties.
        params=MiningParams(alpha=0.3, gamma=case["gamma"]),
        num_blocks=case["blocks"],
        seed=case["seed"],
        topology=case["topology"],
    )
    simulator = NetworkSimulator(config)
    result = simulator.run()
    return simulator, result


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=network_cases)
def test_local_views_are_prefix_consistent(case):
    """No miner's final view contains a block whose parent it does not know."""
    simulator, _ = _run(case)
    tree = simulator.tree
    for miner in simulator.miners:
        for block_id in miner.known:
            block = tree.block(block_id)
            if block.is_genesis:
                continue
            assert block.parent_id in miner.known, (
                f"miner {miner.spec.name} knows {block_id} but not its parent"
            )
        # Whatever is still buffered waits for a parent that genuinely never
        # arrived at this miner (a withheld block published only at finalise).
        for parent_id in miner.waiting:
            assert parent_id not in miner.known


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=network_cases)
def test_delivered_blocks_conserve_mined_blocks(case):
    """Mined-block counts close: per-miner counts, the tree, and the settlement."""
    simulator, result = _run(case)
    assert sum(miner.blocks_mined for miner in simulator.miners) == case["blocks"]
    assert len(simulator.tree) - 1 == case["blocks"]
    assert (
        result.regular_blocks + result.uncle_blocks + result.stale_blocks
        == result.total_blocks
        == case["blocks"]
    )
    # Every block a miner knows exists in the tree, and its miner mined it.
    per_miner = {outcome.name: outcome.blocks_mined for outcome in result.miners}
    for miner in simulator.miners:
        assert per_miner[miner.spec.name] == miner.blocks_mined


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=network_cases)
def test_effective_gamma_is_a_ratio(case):
    """The emergent tie statistic is ``None`` or a fraction in [0, 1]."""
    _, result = _run(case)
    assert result.tie_wins >= 0 and result.tie_losses >= 0
    gamma = result.effective_gamma
    if result.tie_count == 0:
        assert gamma is None
    else:
        assert 0.0 <= gamma <= 1.0
