"""Optimal-strategy MDP: what is the *best* pool policy at a given ``(alpha, gamma)``?

The paper's catalogue answers "how much does *this* policy earn?"; this package
answers the converse by solving the underlying decision process directly and
exporting the argmax as a runnable :class:`~repro.strategies.optimal.OptimalStrategy`.

Map of the subsystem
--------------------

``model.py``
    The decision process itself.  **States** are the analytical model's: the
    ``(lead, forked)`` lumping :class:`~repro.markov.state.LumpedSpace`, with the
    pool's lead capped at ``max_lead`` (``2 * max_lead + 1`` states, 121 at the
    default 60).  **Actions** are per-state pool-event responses
    (:class:`~repro.mdp.model.PoolDecision`): ``WITHHOLD`` keeps the paper's
    transition (Appendix-B cases 2/3/6), ``OVERRIDE`` publishes the private branch
    and resets the race to ``(0, 0)`` — at ``(0, 0)`` that reading *is* honest
    mining, and at the 1-vs-1 tie ``(1, 1)`` it is the only action (the forced
    tie-break win of case 5).  Honest-event responses stay pinned to Algorithm 1,
    which is exactly the regime in which the Appendix-B reward rows are valid.
    Each representative's actions are built as
    :class:`~repro.markov.transitions.LumpedChain` builds its edges, so
    withholding everywhere is the analytical chain itself; one
    :class:`~repro.analysis.reward_cases.RewardRows` gives every transition its
    reward row.

``solver.py``
    The solve.  The objective is the pool's revenue *share*, a ratio of long-run
    averages, so the solve is policy iteration for ratio objectives: each round
    evaluates the incumbent exactly with the analytical model's banded solve and
    reward fold (its share is ``rho``), solves the incumbent's bias under the
    reward ``pool - rho * total`` with one linear solve, and switches every state
    whose best action beats the incumbent's by more than a tolerance; it stops
    when nothing switches.  Policies are encoded
    for export as the sorted codes of the class representatives whose decision
    is ``OVERRIDE`` (``override_codes``) — the lookup table
    :class:`~repro.strategies.optimal.OptimalStrategy` consults: after mining a
    block at race view ``(Ls, Lh)`` the strategy takes the *source* state
    ``(Ls - 1, Lh)``, overrides when its class representative's code is in the
    table, and falls back to Algorithm 1's withhold otherwise (in particular for
    leads beyond ``max_lead``).

Consumers
---------

* :class:`repro.strategies.optimal.OptimalStrategy` runs the table through the
  chain engine, the compiled-table Monte Carlo (which walks the induced chain via
  :func:`~repro.mdp.model.policy_transitions_from_state`) and the network backend;
* :mod:`repro.experiments.optimal` charts the profitability frontier (optimal vs
  the hand-crafted catalogue) and dumps where the optimal policy diverges from
  Algorithm 1;
* ``benchmarks/bench_mdp.py`` tracks solver cost per lead cap.
"""

from .model import MdpModel, PoolDecision, policy_transitions_from_state
from .solver import (
    DEFAULT_POLICY_MAX_LEAD,
    MdpSolver,
    OptimalPolicyResult,
    PolicyEvaluation,
    clear_policy_cache,
    solve_optimal_policy,
)

__all__ = [
    "DEFAULT_POLICY_MAX_LEAD",
    "MdpModel",
    "MdpSolver",
    "OptimalPolicyResult",
    "PolicyEvaluation",
    "PoolDecision",
    "clear_policy_cache",
    "policy_transitions_from_state",
    "solve_optimal_policy",
]
