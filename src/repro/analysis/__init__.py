"""Analytical models: the paper's primary contribution.

This subpackage turns the Markov substrate of :mod:`repro.markov` into the paper's
results:

* :mod:`repro.analysis.reward_cases` — the probabilistic reward tracking of
  Appendix B (Cases 1–12), one expected-reward record per transition;
* :mod:`repro.analysis.revenue` — long-run revenue rates for the pool and honest
  miners, by reward type;
* :mod:`repro.analysis.absolute` — absolute revenues under the two
  difficulty-adjustment scenarios of Section IV-E.2;
* :mod:`repro.analysis.threshold` — the profitability threshold ``alpha*``;
* :mod:`repro.analysis.uncle_distance` — the honest uncle-distance distribution
  (Table II);
* :mod:`repro.analysis.bitcoin` — the Eyal–Sirer Bitcoin baseline in closed form;
* :mod:`repro.analysis.sweep` — the alpha sweep used by the experiment drivers.

The paper's printed closed forms (Eq. 2, Eqs. 3–9) and the numerical 1-D
Eyal–Sirer chain are test oracles, kept under ``tests/`` beside the suites that
compare them with this model.
"""

from .absolute import AbsoluteRevenue, Scenario, absolute_revenue
from .bitcoin import bitcoin_relative_revenue, bitcoin_threshold
from .revenue import RevenueModel, RevenueRates
from .reward_cases import TransitionRewards, transition_rewards
from .sweep import AlphaSweep, sweep_alpha
from .threshold import ThresholdResult, profitable_threshold
from .uncle_distance import UncleDistanceDistribution

__all__ = [
    "AbsoluteRevenue",
    "AlphaSweep",
    "RevenueModel",
    "RevenueRates",
    "Scenario",
    "ThresholdResult",
    "TransitionRewards",
    "UncleDistanceDistribution",
    "absolute_revenue",
    "bitcoin_relative_revenue",
    "bitcoin_threshold",
    "profitable_threshold",
    "sweep_alpha",
    "transition_rewards",
]
