"""Markov-chain substrate for the selfish-mining analysis.

The paper models the race between the selfish pool and honest miners as a
2-dimensional continuous-time Markov process over states ``(Ls, Lh)`` (private and
public branch lengths, Section IV-B).  This subpackage provides:

* :mod:`repro.markov.state` — the state type and the exact ``(lead, forked)``
  lumping of the truncated state space,
* :mod:`repro.markov.transitions` — the transition rates of Section IV-C,
* :mod:`repro.markov.chain` — a generic finite Markov-chain container,
* :mod:`repro.markov.stationary` — the stationary-distribution solves: a pure-Python
  banded elimination for the lumped chains and a sparse LU (scipy) for any
  :class:`~repro.markov.chain.MarkovChain`.

The closed-form distribution of Eq. (2) and the multiple-summation helper
``f(x, y, z)`` of Appendix A are a test oracle (``tests/reference_closed_form.py``).
"""

from .chain import MarkovChain, Transition
from .state import LumpedSpace, State, ZERO_STATE
from .stationary import StationaryResult, stationary_distribution
from .transitions import selfish_mining_transitions

__all__ = [
    "LumpedSpace",
    "MarkovChain",
    "State",
    "StationaryResult",
    "Transition",
    "ZERO_STATE",
    "selfish_mining_transitions",
    "stationary_distribution",
]
