"""The MDP solved on the ``(lead, forked)`` lumping loses nothing against the unlumped space.

The oracle (:func:`reference_markov.full_space_optimal_policy`) solves the same
withhold/override process on the ``(Ls, Lh)`` states with the private branch
capped at ``max_lead``.  Its optimum must be class-measurable: every state below
the private cap takes the decision the lumped solve chose for its class.  Where
the full chain's truncation is negligible the two optimal shares must agree;
elsewhere the full chain is lower by its own truncation error, since it caps
the private branch where the lumped space caps the lead.
"""

from __future__ import annotations

import pytest
from reference_markov import full_space_optimal_policy

from repro.markov.state import LumpedSpace
from repro.mdp.solver import MdpSolver
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule

#: Large enough that seven of the fifteen points have a full-chain truncation
#: mass below 1e-12, small enough that the fifteen full solves take seconds.
MAX_LEAD = 40

GRID = [(alpha, gamma) for alpha in (0.1, 0.25, 0.3, 0.4, 0.45) for gamma in (0.0, 0.5, 1.0)]


@pytest.mark.parametrize("alpha,gamma", GRID)
def test_full_space_optimum_takes_its_class_decision(alpha, gamma):
    params = MiningParams(alpha=alpha, gamma=gamma)
    schedule = EthereumByzantiumSchedule()
    full = full_space_optimal_policy(params, schedule, max_lead=MAX_LEAD)
    lumped = MdpSolver(params, schedule, max_lead=MAX_LEAD).solve()
    space = LumpedSpace(MAX_LEAD)
    class_decision = dict(zip(space, lumped.decisions))
    compared = 0
    for state, decision in full.decisions.items():
        if state.private < MAX_LEAD:
            assert decision is class_decision[space.representative(state)], state
            compared += 1
    assert compared == len(full.decisions) - (MAX_LEAD - 1)
    if full.rates.truncation_mass < 1e-12:
        assert abs(lumped.optimal_share - full.share) <= 1e-10
    else:
        assert lumped.optimal_share >= full.share - 1e-10
