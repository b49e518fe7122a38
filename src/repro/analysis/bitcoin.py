"""The Eyal–Sirer Bitcoin selfish-mining baseline.

Figure 10 of the paper compares Ethereum's profitability thresholds against the
original Bitcoin analysis of Eyal and Sirer ("Majority is not enough", 2014/2018).
This module implements that baseline from scratch:

* :func:`bitcoin_relative_revenue` — the closed-form relative pool revenue,
* :func:`bitcoin_threshold` — the closed-form profitability threshold
  ``(1 - gamma) / (3 - 2*gamma)``.

The test-suite cross-checks both against an explicit 1-dimensional Markov chain with
Eyal–Sirer's deterministic reward tracking (``tests/reference_markov.py``) and against
this package's 2-dimensional model under a Bitcoin-style reward schedule.

In Bitcoin there are no uncle or nephew rewards, so relative and absolute revenue
coincide once the difficulty re-targets (the paper's Section IV-E.2 discussion), and a
pool is better off selfish mining exactly when its relative revenue exceeds ``alpha``.
"""

from __future__ import annotations

from ..errors import ParameterError
from ..params import MiningParams


def bitcoin_relative_revenue(params: MiningParams) -> float:
    """Closed-form relative revenue of a Bitcoin selfish pool (Eyal & Sirer).

    ``R = (alpha*(1-alpha)**2*(4*alpha + gamma*(1-2*alpha)) - alpha**3)
    / (1 - alpha*(1 + (2-alpha)*alpha))``.
    """
    alpha, gamma = params.alpha, params.gamma
    if not 0.0 < alpha < 0.5:
        raise ParameterError(f"the Eyal-Sirer closed form requires 0 < alpha < 0.5, got {alpha}")
    numerator = alpha * (1.0 - alpha) ** 2 * (4.0 * alpha + gamma * (1.0 - 2.0 * alpha)) - alpha**3
    denominator = 1.0 - alpha * (1.0 + (2.0 - alpha) * alpha)
    return numerator / denominator


def bitcoin_threshold(gamma: float) -> float:
    """Closed-form profitability threshold ``alpha* = (1 - gamma) / (3 - 2*gamma)``."""
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    return (1.0 - gamma) / (3.0 - 2.0 * gamma)
