"""The Eyal–Sirer Bitcoin selfish-mining baseline.

Figure 10 of the paper compares Ethereum's profitability thresholds against the
original Bitcoin analysis of Eyal and Sirer ("Majority is not enough", 2014/2018).
This module implements that baseline from scratch:

* :func:`bitcoin_relative_revenue` — the closed-form relative pool revenue,
* :func:`bitcoin_threshold` — the closed-form profitability threshold
  ``(1 - gamma) / (3 - 2*gamma)``,
* :class:`BitcoinSelfishMiningModel` — an explicit 1-dimensional Markov chain with
  Eyal–Sirer's deterministic reward tracking, solved numerically; it reproduces the
  closed forms and gives an independent cross-check used by the test-suite.

In Bitcoin there are no uncle or nephew rewards, so relative and absolute revenue
coincide once the difficulty re-targets (the paper's Section IV-E.2 discussion), and a
pool is better off selfish mining exactly when its relative revenue exceeds ``alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import ParameterError
from ..markov.chain import MarkovChain, Transition
from ..markov.stationary import stationary_distribution
from ..params import MiningParams

#: Default truncation of the pool's lead in the 1-D chain.
DEFAULT_BITCOIN_TRUNCATION = 200

#: Label of the "two competing branches of length one" state.
TIE_STATE = "tie"


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


@dataclass(frozen=True)
class BitcoinRevenue:
    """Outcome of the numerical Eyal–Sirer model at one parameter point."""

    params: MiningParams
    pool_rate: float
    honest_rate: float
    stale_rate: float

    @property
    def total_published_rate(self) -> float:
        """Rate of blocks that end up in the main chain (pool + honest)."""
        return self.pool_rate + self.honest_rate

    @property
    def relative_pool_revenue(self) -> float:
        """The pool's share of main-chain blocks (Eyal–Sirer's revenue measure)."""
        total = self.total_published_rate
        return self.pool_rate / total if total > 0 else 0.0

    @property
    def absolute_pool_revenue(self) -> float:
        """Pool revenue per main-chain block after difficulty re-targeting.

        In Bitcoin this equals the relative revenue (Section IV-E.2 of the paper).
        """
        return self.relative_pool_revenue


class BitcoinSelfishMiningModel:
    """Numerical Eyal–Sirer model: 1-D Markov chain plus deterministic reward tracking.

    States are the pool's lead ``0, 1, 2, ..., max_lead`` plus the tie state ``0'``
    reached when an honest block catches up with a lead of one.  Rewards are tracked
    per transition exactly as in the original paper (rewards are attributed to blocks
    whose destiny is already decided at the transition):

    * lead 0, honest block: honest earn 1;
    * tie, pool block: pool earns 2;
    * tie, honest block on the pool's branch (prob ``gamma``): pool 1, honest 1;
    * tie, honest block on the honest branch (prob ``1-gamma``): honest 2;
    * lead 2, honest block: pool earns 2 (it overrides with its whole branch);
    * lead > 2, honest block: pool earns 1 (the oldest private block is now safe).
    """

    def __init__(self, *, max_lead: int = DEFAULT_BITCOIN_TRUNCATION) -> None:
        if max_lead < 3:
            raise ParameterError(f"max_lead must be at least 3, got {max_lead}")
        self.max_lead = int(max_lead)

    # ------------------------------------------------------------------ chain
    def states(self) -> list[object]:
        """State list: integer leads plus the tie marker."""
        return [0, TIE_STATE] + list(range(1, self.max_lead + 1))

    def transitions(self, params: MiningParams) -> list[Transition[object]]:
        """All transitions of the 1-D chain at ``params``."""
        alpha, beta, gamma = params.alpha, params.beta, params.gamma
        transitions: list[Transition[object]] = [
            Transition(0, 1, alpha, label="pool_hides_first"),
            Transition(0, 0, beta, label="honest_extends"),
            Transition(1, 2, alpha, label="pool_extends"),
            Transition(1, TIE_STATE, beta, label="honest_catches_up"),
            Transition(TIE_STATE, 0, alpha, label="pool_wins_tie"),
            Transition(TIE_STATE, 0, beta * gamma, label="honest_on_pool_branch"),
            Transition(TIE_STATE, 0, beta * (1.0 - gamma), label="honest_on_honest_branch"),
            Transition(2, 0, beta, label="pool_overrides"),
        ]
        for lead in range(2, self.max_lead + 1):
            target = lead + 1 if lead + 1 <= self.max_lead else lead
            transitions.append(Transition(lead, target, alpha, label="pool_extends"))
        for lead in range(3, self.max_lead + 1):
            transitions.append(Transition(lead, lead - 1, beta, label="honest_chips_lead"))
        return transitions

    def build_chain(self, params: MiningParams) -> MarkovChain[object]:
        """Build the truncated 1-D chain."""
        chain = MarkovChain(self.states(), self.transitions(params))
        chain.validate(expect_unit_exit_rate=True)
        return chain

    # ------------------------------------------------------------------ revenue
    def revenue(self, params: MiningParams) -> BitcoinRevenue:
        """Solve the chain and apply the deterministic reward attribution."""
        alpha, beta, gamma = params.alpha, params.beta, params.gamma
        chain = self.build_chain(params)
        stationary = stationary_distribution(chain)
        probabilities: Mapping[object, float] = stationary.as_mapping()

        pi_zero = probabilities[0]
        pi_tie = probabilities[TIE_STATE]
        pi_two = probabilities[2]

        pool_rate = 0.0
        honest_rate = 0.0

        # Lead 0: an honest block is immediately final.
        honest_rate += beta * pi_zero
        # Tie: three resolutions.
        pool_rate += alpha * pi_tie * 2.0
        pool_rate += beta * gamma * pi_tie * 1.0
        honest_rate += beta * gamma * pi_tie * 1.0
        honest_rate += beta * (1.0 - gamma) * pi_tie * 2.0
        # Lead 2: the pool overrides with its full branch of two blocks.
        pool_rate += beta * pi_two * 2.0
        # Lead > 2: each honest block lets the pool bank one previously private block.
        for lead in range(3, self.max_lead + 1):
            pool_rate += beta * probabilities.get(lead, 0.0) * 1.0

        total_block_rate = 1.0  # one block per transition after rescaling
        published_rate = pool_rate + honest_rate
        stale_rate = max(0.0, total_block_rate - published_rate)
        return BitcoinRevenue(
            params=params, pool_rate=pool_rate, honest_rate=honest_rate, stale_rate=stale_rate
        )

    def relative_pool_revenue(self, params: MiningParams) -> float:
        """Pool revenue share from the numerical model."""
        return self.revenue(params).relative_pool_revenue

    def profitable_threshold(self, gamma: float, *, tolerance: float = 1e-6) -> float:
        """Numerically invert the model to find the profitability threshold for ``gamma``.

        The result should agree with :func:`bitcoin_threshold` up to the tolerance; the
        test-suite asserts that it does.
        """
        low, high = 1e-4, 0.4999

        def gain(alpha: float) -> float:
            params = MiningParams(alpha=alpha, gamma=gamma)
            return self.relative_pool_revenue(params) - alpha

        if gain(low) >= 0:
            return low
        if gain(high) < 0:
            return high
        while high - low > tolerance:
            middle = 0.5 * (low + high)
            if gain(middle) >= 0:
                high = middle
            else:
                low = middle
        return 0.5 * (low + high)
