"""A fast Monte Carlo over the Markov chain's transitions.

:class:`MarkovMonteCarlo` simulates the paper's 2-dimensional Markov process directly:
starting from ``(0, 0)`` it repeatedly samples one of the current state's outgoing
transitions (their rates sum to one, so they form a probability distribution over the
next block's effect) and accrues the *expected* rewards attached to that transition by
the Appendix-B case analysis.

Compared with the full :class:`~repro.simulation.engine.ChainSimulator` this is

* much faster (no block objects, no tree, no uncle bookkeeping), and
* lower variance (rewards enter as conditional expectations rather than being
  resampled),

but it reuses the analytical reward cases, so it validates the Markov-chain structure
and the stationary solver rather than the reward analysis itself.  The test-suite uses
all three pairings (analysis vs chain simulator, analysis vs Monte Carlo, Monte Carlo
vs chain simulator) to localise any disagreement.

Accumulation: the run is executed on
:class:`~repro.simulation.tables.CompiledTransitionTables` — the walk only counts
integer transition visits against pre-compiled cumulative thresholds and all reward
totals are settled at the end as one ``counts @ reward_matrix`` product.  The test
suite keeps a per-event scalar loop as an oracle: from a given seed it samples the
identical transition sequence and agrees on every total to float-reassociation
accuracy.

Strategy support: the backend honours ``SimulationConfig.strategy`` for the
behaviours that have an analytical transition model — ``"selfish"`` (the paper's
Markov process), ``"honest"`` (a trivial fork-free process) and ``"optimal"``
(the chain induced by the solved withhold/override policy of :mod:`repro.mdp`,
walked through the same compiled tables via a policy-aware transition
enumerator).  The stubborn variants exist only in the full chain simulator;
requesting them here raises a :class:`~repro.errors.SimulationError` pointing at
``backend="chain"``.
"""

from __future__ import annotations

from functools import partial

from ..errors import SimulationError
from ..markov.state import State
from ..rewards.breakdown import PartyRewards
from .config import SimulationConfig
from .metrics import SimulationResult
from .rng import RandomSource
from .tables import CompiledTransitionTables

#: Strategy names the Markov backend can simulate.
MARKOV_STRATEGIES = ("honest", "selfish", "optimal")

#: Effective truncation used when enumerating transitions on the fly.  The sampled
#: lead can never realistically approach this for ``alpha < 0.5``.
UNBOUNDED_LEAD = 10**9

#: Uniform draws fetched per chunk by the vectorised honest run.
_HONEST_CHUNK = 16384


class MarkovMonteCarlo:
    """Sample the selfish-mining Markov chain and accrue expected rewards.

    Parameters
    ----------
    config:
        The run configuration (strategy must be one of :data:`MARKOV_STRATEGIES`).
    """

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        if config.strategy_name not in MARKOV_STRATEGIES:
            raise SimulationError(
                f"the 'markov' backend has no transition model for strategy "
                f"{config.strategy_name!r} (supported: {', '.join(MARKOV_STRATEGIES)}); "
                "use backend='chain'"
            )
        self.rng = RandomSource(config.seed)
        self.state = State(0, 0)
        self._events_run = 0
        # ``None`` walks the paper's chain, whose tables compute each (lead,
        # forked) class's reward rows once per run.
        transitions = None
        if config.strategy_name == "optimal":
            # The solved policy's induced chain: identical walk/settlement
            # machinery, policy-aware transition enumeration (cached per process
            # by the MDP solver, so pool workers pay one solve per point).
            from ..mdp.model import policy_transitions_from_state
            from ..mdp.solver import solve_optimal_policy

            policy = solve_optimal_policy(config.params, config.schedule)
            transitions = partial(
                policy_transitions_from_state,
                params=config.params,
                override_codes=frozenset(policy.override_codes),
                max_lead=UNBOUNDED_LEAD,
            )
        self.tables = CompiledTransitionTables(
            config.params,
            config.schedule,
            max_lead=UNBOUNDED_LEAD,
            transitions=transitions,
        )

    # ------------------------------------------------------------------ public API
    def run(self, *, trace: list[int] | None = None) -> SimulationResult:
        """Simulate ``config.num_blocks`` transitions and return accumulated results.

        ``trace``, when given, receives the encoded target state
        (:meth:`~repro.markov.state.State.encode`) of every selfish-strategy step;
        the regression tests use it to pin the table walk's sampled sequence
        against their scalar oracle.
        """
        if self.config.strategy_name == "honest":
            return self._run_honest()
        return self._run_selfish_table(trace)

    def _run_selfish_table(self, trace: list[int] | None) -> SimulationResult:
        """Walk the compiled tables and settle everything in one matrix product."""
        counts, final_state = self.tables.walk(
            self.state, self.config.num_blocks, self.rng, trace=trace
        )
        self.state = final_state
        self._events_run += self.config.num_blocks
        settlement = self.tables.settle(counts)
        return SimulationResult(
            config=self.config,
            pool_rewards=settlement.pool,
            honest_rewards=settlement.honest,
            regular_blocks=settlement.regular_blocks,
            pool_regular_blocks=settlement.pool_regular_blocks,
            honest_regular_blocks=settlement.honest_regular_blocks,
            uncle_blocks=settlement.uncle_blocks,
            pool_uncle_blocks=settlement.pool_uncle_blocks,
            honest_uncle_blocks=settlement.honest_uncle_blocks,
            stale_blocks=settlement.stale_blocks,
            total_blocks=float(self.config.num_blocks),
            num_events=self._events_run,
            honest_uncle_distance_counts=settlement.honest_uncle_distance_counts,
            pool_uncle_distance_counts=settlement.pool_uncle_distance_counts,
        )

    def _run_honest(self) -> SimulationResult:
        """Honest-pool run: a fork-free chain where every block earns ``Ks``.

        With everyone following the protocol there is a single state and a single
        transition; the only randomness left is which party mines each block, which
        is sampled so the backend remains a Monte Carlo (with the same seed
        semantics as the chain simulator's honest runs): one uniform draw per
        block, consumed in vectorised chunks.
        """
        static = self.config.schedule.static_reward
        alpha = self.config.params.alpha
        pool_blocks = 0
        remaining = self.config.num_blocks
        while remaining > 0:
            chunk = _HONEST_CHUNK if remaining > _HONEST_CHUNK else remaining
            draws = self.rng.uniform_array(chunk)
            pool_blocks += int((draws < alpha).sum())
            remaining -= chunk
        self._events_run += self.config.num_blocks
        honest_blocks = self.config.num_blocks - pool_blocks
        return SimulationResult(
            config=self.config,
            pool_rewards=PartyRewards(static=pool_blocks * static),
            honest_rewards=PartyRewards(static=honest_blocks * static),
            regular_blocks=float(self.config.num_blocks),
            pool_regular_blocks=float(pool_blocks),
            honest_regular_blocks=float(honest_blocks),
            uncle_blocks=0.0,
            pool_uncle_blocks=0.0,
            honest_uncle_blocks=0.0,
            stale_blocks=0.0,
            total_blocks=float(self.config.num_blocks),
            num_events=self._events_run,
        )
