"""Exact policy iteration over the mining MDP for the pool's revenue share.

The pool's objective is its *share* of all rewards — a ratio of two long-run
averages — so the solve is Howard's policy iteration for ratio objectives (the
approach of Sapirshtein et al. for Bitcoin).  Each round of
:meth:`MdpSolver.solve`:

1. **Evaluate** the incumbent policy *exactly*, with the call sequence of
   :meth:`~repro.analysis.revenue.RevenueModel.revenue_rates`: one banded
   elimination (:class:`~repro.markov.stationary.EliminationPlan`) on the chosen
   edges' state indices, whose override jumps land in the anchored row, then the
   fold of their Appendix-B rows through
   :func:`~repro.analysis.revenue.stationary_rates`.  A policy pinned to the
   selfish decisions therefore reproduces the analytical model's
   :class:`~repro.analysis.revenue.RevenueRates` bit for bit.  Its share is
   ``rho``.
2. **Bias** (:meth:`MdpSolver.bias`): under the one-step reward
   ``pool - rho * total`` the incumbent's gain is zero, so its bias ``h`` is the
   expected reward collected until the chain first returns to ``(0, 0)``, where
   ``h`` is pinned to 0 — one linear solve.
3. **Improve** (:meth:`MdpSolver.policy_step`): every state whose best action
   beats the incumbent's by more than :data:`DEFAULT_SHARE_TOLERANCE` switches to
   its first best action; every other state, ties included, keeps its decision,
   so the solved policy deviates from Algorithm 1 only where that strictly pays.

The loop stops when no state switches, or when the switched policy's exact share
does not rise by more than the tolerance (a rearrangement in states of
negligible stationary mass).  Each accepted round strictly raises the share
(pinned by the property suite), so the loop terminates after finitely many
rounds; in practice one or two.

Solved policies are cached per ``(alpha, gamma, max_lead, schedule)`` via
:func:`solve_optimal_policy`, so repeated simulation runs (including process-pool
workers, each of which re-solves at most once per parameter point) stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..analysis.revenue import RevenueRates, stationary_rates
from ..errors import ConvergenceError, ParameterError
from ..markov.state import State
from ..markov.stationary import EliminationPlan
from ..params import MiningParams
from ..rewards.breakdown import PartyRewards, RevenueSplit
from ..rewards.schedule import EthereumByzantiumSchedule, RewardSchedule
from .model import MdpModel, PoolDecision

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from ..strategies.optimal import OptimalStrategy

#: Default cap on the pool's lead in the solved state space.  Matches the
#: analytical :class:`~repro.analysis.revenue.RevenueModel` default; the truncation
#: error of the extracted policy's value decays like ``(alpha / beta) ** max_lead``.
DEFAULT_POLICY_MAX_LEAD = 60

#: The margin by which a switched decision must beat the incumbent's action
#: value, and a switched policy the incumbent's share, to be adopted.
DEFAULT_SHARE_TOLERANCE = 1e-12

#: Guard on policy-iteration rounds (each accepted one strictly raises the share).
_MAX_ROUNDS = 50


@dataclass(frozen=True)
class PolicyEvaluation:
    """Exact long-run rates of one decision table and the stationary solve's residual."""

    rates: RevenueRates
    residual: float

    @property
    def share(self) -> float:
        """The pool's relative revenue under the evaluated policy."""
        return self.rates.relative_pool_revenue


@dataclass(frozen=True)
class OptimalPolicyResult:
    """A solved optimal policy with its exact value and solve diagnostics.

    Attributes
    ----------
    params, max_lead:
        The parameter point and lead cap the policy was solved for.
    decisions:
        The chosen :class:`~repro.mdp.model.PoolDecision` per state, in
        :class:`~repro.markov.state.LumpedSpace` index order
        (``2 * max_lead + 1`` entries).
    override_codes:
        Sorted ``State.encode`` codes of the class representatives whose
        pool-event response is ``OVERRIDE`` (always includes the forced tie-break
        at ``(1, 1)``).  This is the lookup table
        :class:`~repro.strategies.optimal.OptimalStrategy` carries.
    revenue:
        Exact long-run rates of the optimal policy.
    shares:
        The share of each accepted policy-iteration round, starting from
        Algorithm 1's; it strictly increases and its last entry is the optimal
        share.
    """

    params: MiningParams
    max_lead: int
    decisions: tuple[PoolDecision, ...]
    override_codes: tuple[int, ...]
    revenue: RevenueRates
    shares: tuple[float, ...]

    @property
    def optimal_share(self) -> float:
        """The pool's optimal relative revenue at this parameter point."""
        return self.revenue.relative_pool_revenue

    def divergence_from_selfish(self) -> tuple[State, ...]:
        """States where the optimal policy deviates from Algorithm 1.

        Algorithm 1 withholds everywhere except the forced tie-break, so the
        divergence is exactly the overridden states other than ``(1, 1)``.
        """
        from .model import TIE_STATE_CODE
        from ..markov.state import decode_state

        return tuple(
            decode_state(code) for code in self.override_codes if code != TIE_STATE_CODE
        )

    def policy_label(self) -> str:
        """Compact description of the policy's structure for reports.

        ``"honest"`` — the pool publishes immediately at ``(0, 0)`` and never
        races; ``"selfish"`` — Algorithm 1 exactly; ``"selfish+k"`` — Algorithm 1
        with ``k`` extra override states (deep-lead deviations).
        """
        divergence = self.divergence_from_selfish()
        if any(state == State(0, 0) for state in divergence):
            return "honest"
        if not divergence:
            return "selfish"
        return f"selfish+{len(divergence)}"

    def strategy(self) -> "OptimalStrategy":
        """The solved policy as a registered, engine-ready mining strategy."""
        from ..strategies.optimal import OptimalStrategy

        return OptimalStrategy(override_codes=self.override_codes)


class MdpSolver:
    """Solve the withhold/override decision problem at one parameter point.

    Parameters
    ----------
    params:
        The ``(alpha, gamma)`` point.
    schedule:
        Reward schedule (defaults to Ethereum Byzantium, like the analysis).
    max_lead:
        Cap on the pool's lead (see :class:`~repro.mdp.model.MdpModel`).
    """

    def __init__(
        self,
        params: MiningParams,
        schedule: RewardSchedule | None = None,
        *,
        max_lead: int = DEFAULT_POLICY_MAX_LEAD,
    ) -> None:
        self.schedule = schedule if schedule is not None else EthereumByzantiumSchedule()
        self.model = MdpModel(params, self.schedule, max_lead=max_lead)

    @property
    def params(self) -> MiningParams:
        """The parameter point the solver was built for."""
        return self.model.params

    # ------------------------------------------------------------------ evaluation
    def evaluate(self, policy: np.ndarray) -> PolicyEvaluation:
        """Exact long-run rates of ``policy`` (flat action index per state).

        Compiles an :class:`~repro.markov.stationary.EliminationPlan` over the
        chosen actions' edges, solves their chain with it and settles their
        Appendix-B rows through :func:`repro.analysis.revenue.stationary_rates`,
        as :meth:`repro.analysis.revenue.RevenueModel.revenue_rates` does for
        Algorithm 1, so the selfish-pinned policy reproduces it exactly.  Each
        policy has its own edge pattern, so each evaluation compiles its own plan.
        """
        model = self.model
        params = self.params
        chosen = model.policy_edges(policy)
        sources = model.sources[chosen].tolist()
        targets = model.targets[chosen].tolist()
        rates = model.rates[chosen].tolist()
        plan = EliminationPlan(model.num_states, sources, targets)
        probabilities = plan.solve(rates)
        revenue = stationary_rates(
            params,
            probabilities,
            sources,
            rates,
            lambda live: model.rewards.gather(params, chosen[live]),
            model.space.boundary_indices(),
        )
        return PolicyEvaluation(rates=revenue, residual=plan.residual(probabilities, rates))

    # ------------------------------------------------------------------ policy iteration
    def bias(self, policy: np.ndarray, share: float) -> np.ndarray:
        """The bias of ``policy`` under the one-step reward ``pool - share * total``.

        At the policy's own exact ``share`` the gain is zero, so ``h(0, 0)`` is
        pinned to 0 and ``h(s) - sum_t P(s, t) h(t) = r(s)`` is solved for every
        other state: ``h(s)`` is the reward expected from ``s`` until the chain
        first reaches ``(0, 0)``, which it does from every state.
        """
        model = self.model
        chosen = model.policy_edges(policy)
        system = np.eye(model.num_states)
        np.subtract.at(system, (model.sources[chosen], model.targets[chosen]), model.rates[chosen])
        rewards = model.pool_rewards[policy] - share * model.total_rewards[policy]
        values = np.zeros(model.num_states)
        values[1:] = np.linalg.solve(system[1:, 1:], rewards[1:])
        return values

    def policy_step(self, policy: np.ndarray, share: float) -> np.ndarray:
        """One improvement of ``policy``, whose exact share is ``share``.

        Every action is scored with the incumbent's :meth:`bias`; a state switches
        to its first best action only when that beats the incumbent's action by
        more than :data:`DEFAULT_SHARE_TOLERANCE`, so exact ties keep the
        incumbent's decision.
        """
        model = self.model
        q = model.pool_rewards - share * model.total_rewards
        q += model.expected_values(self.bias(policy, share))
        offsets = model.action_offsets
        best = np.maximum.reduceat(q, offsets[:-1])
        improved = policy.copy()
        for index in np.flatnonzero(best > q[policy] + DEFAULT_SHARE_TOLERANCE).tolist():
            start, stop = offsets[index], offsets[index + 1]
            improved[index] = start + int(np.argmax(q[start:stop]))
        return improved

    def solve(self) -> OptimalPolicyResult:
        """Run policy iteration from Algorithm 1 to the optimal policy and its exact value."""
        model = self.model
        policy = model.selfish_policy()
        evaluation = self.evaluate(policy)
        shares = [evaluation.share]
        for _ in range(_MAX_ROUNDS):
            improved = self.policy_step(policy, shares[-1])
            if np.array_equal(improved, policy):
                break
            improved_evaluation = self.evaluate(improved)
            if improved_evaluation.share <= shares[-1] + DEFAULT_SHARE_TOLERANCE:
                # The candidate rearranges decisions without raising the share
                # (ties in states of negligible stationary mass): keep the
                # incumbent, which deviates less from Algorithm 1.
                break
            policy = improved
            evaluation = improved_evaluation
            shares.append(evaluation.share)
        else:
            raise ConvergenceError(
                f"policy iteration did not stabilise within {_MAX_ROUNDS} "
                f"rounds ({model.describe()}); last shares {shares[-3:]}"
            )
        decisions = tuple(model.decisions[flat] for flat in policy.tolist())
        override_codes = tuple(
            sorted(
                state.encode()
                for state, decision in zip(model.space, decisions)
                if decision is PoolDecision.OVERRIDE
            )
        )
        return OptimalPolicyResult(
            params=self.params,
            max_lead=model.space.max_lead,
            decisions=decisions,
            override_codes=override_codes,
            revenue=evaluation.rates,
            shares=tuple(shares),
        )


# ---------------------------------------------------------------------- caching
def _schedule_key(schedule: RewardSchedule) -> tuple:
    """A value-based fingerprint of a reward schedule, used as a cache key.

    A thin alias of :func:`repro.rewards.schedule.schedule_fingerprint`, the
    package-wide schedule identity (also the result store's key component);
    exotic custom schedules that differ only beyond distance 16 should bypass
    the cache by calling :class:`MdpSolver` directly.
    """
    from ..rewards.schedule import schedule_fingerprint

    return schedule_fingerprint(schedule)


_POLICY_CACHE: dict[tuple, OptimalPolicyResult] = {}

#: Optional on-disk second cache level (a :class:`repro.store.ResultStore`).
#: When configured, solves missing from the in-memory dict are looked up on
#: disk before computing, and fresh solves are persisted — so the optimal
#: strategy's per-point solve survives process restarts and is shared by every
#: process pointed at the same cache directory.
_POLICY_STORE = None


def set_policy_store(store) -> None:
    """Install (or, with ``None``, remove) the on-disk policy cache level.

    Process-pool workers forked after this call inherit the setting, so one
    ``set_policy_store`` in the parent covers a whole parallel sweep.
    """
    global _POLICY_STORE
    _POLICY_STORE = store


def get_policy_store():
    """The currently installed on-disk policy cache level (or ``None``)."""
    return _POLICY_STORE


def _policy_store_key(params: MiningParams, schedule: RewardSchedule, max_lead: int) -> str:
    """Content address of one solve in the store's ``policy`` namespace."""
    from ..store import hash_payload

    return hash_payload(
        {
            "alpha": params.alpha,
            "gamma": params.gamma,
            "max_lead": int(max_lead),
            "schedule": list(_schedule_key(schedule)),
        }
    )


#: The top-level keys of a stored policy.
_PAYLOAD_KEYS = frozenset(
    {"alpha", "gamma", "max_lead", "decisions", "override_codes", "revenue", "shares"}
)


def _policy_payload(result: OptimalPolicyResult) -> dict:
    """Serialise a solved policy to a JSON-able dict (floats round-trip exactly)."""
    rates = result.revenue
    return {
        "alpha": result.params.alpha,
        "gamma": result.params.gamma,
        "max_lead": result.max_lead,
        "decisions": [decision.value for decision in result.decisions],
        "override_codes": list(result.override_codes),
        "revenue": {
            "pool": {"static": rates.pool.static, "uncle": rates.pool.uncle, "nephew": rates.pool.nephew},
            "honest": {
                "static": rates.honest.static,
                "uncle": rates.honest.uncle,
                "nephew": rates.honest.nephew,
            },
            "regular_rate": rates.regular_rate,
            "uncle_rate": rates.uncle_rate,
            "pool_uncle_rate": rates.pool_uncle_rate,
            "honest_uncle_rate": rates.honest_uncle_rate,
            "honest_uncle_distance_rates": {
                str(distance): rate
                for distance, rate in sorted(rates.honest_uncle_distance_rates.items())
            },
            "stale_rate": rates.stale_rate,
            "truncation_mass": rates.truncation_mass,
        },
        "shares": list(result.shares),
    }


def _policy_from_payload(payload: dict) -> OptimalPolicyResult:
    """Rebuild a solved policy from its stored payload.

    Raises :class:`ValueError` when the payload's keys are not exactly the ones
    :func:`_policy_payload` writes (a payload stored by the earlier
    value-iteration solver also carries its sweep count), or when the decision
    table does not have one entry per :class:`~repro.markov.state.LumpedSpace`
    state, as a payload stored by a solver on another state space does not.
    """
    if set(payload) != _PAYLOAD_KEYS:
        raise ValueError(f"stored policy has keys {sorted(payload)}, not {sorted(_PAYLOAD_KEYS)}")
    if len(payload["decisions"]) != 2 * payload["max_lead"] + 1:
        raise ValueError(
            f"stored policy has {len(payload['decisions'])} decisions, not one per "
            f"state of the lumped space at max_lead={payload['max_lead']}"
        )
    revenue = payload["revenue"]
    params = MiningParams(alpha=payload["alpha"], gamma=payload["gamma"])
    rates = RevenueRates(
        params=params,
        split=RevenueSplit(
            pool=PartyRewards(**revenue["pool"]), honest=PartyRewards(**revenue["honest"])
        ),
        regular_rate=revenue["regular_rate"],
        uncle_rate=revenue["uncle_rate"],
        pool_uncle_rate=revenue["pool_uncle_rate"],
        honest_uncle_rate=revenue["honest_uncle_rate"],
        honest_uncle_distance_rates={
            int(distance): rate
            for distance, rate in revenue["honest_uncle_distance_rates"].items()
        },
        stale_rate=revenue["stale_rate"],
        truncation_mass=revenue["truncation_mass"],
    )
    return OptimalPolicyResult(
        params=params,
        max_lead=payload["max_lead"],
        decisions=tuple(PoolDecision(value) for value in payload["decisions"]),
        override_codes=tuple(int(code) for code in payload["override_codes"]),
        revenue=rates,
        shares=tuple(payload["shares"]),
    )


def solve_optimal_policy(
    params: MiningParams,
    schedule: RewardSchedule | None = None,
    *,
    max_lead: int = DEFAULT_POLICY_MAX_LEAD,
    store=None,
) -> OptimalPolicyResult:
    """Solve (or fetch from cache) the optimal policy at ``params``.

    Results are cached per ``(alpha, gamma, max_lead, schedule)`` — the schedule
    compared by value, not identity — so strategy construction inside repeated
    simulation runs costs one solve per distinct parameter point per process.

    ``store`` (or the process-wide store installed via :func:`set_policy_store`)
    adds an on-disk level under the result store's ``policy`` namespace: memory
    miss -> disk lookup -> solve-and-persist.  A corrupted or schema-incompatible
    disk entry reads as a miss and is recomputed.
    """
    if max_lead < 2:
        raise ParameterError(f"max_lead must be at least 2, got {max_lead}")
    resolved = schedule if schedule is not None else EthereumByzantiumSchedule()
    key = (params.alpha, params.gamma, int(max_lead), _schedule_key(resolved))
    cached = _POLICY_CACHE.get(key)
    if cached is not None:
        return cached
    disk = store if store is not None else _POLICY_STORE
    store_key = _policy_store_key(params, resolved, max_lead) if disk is not None else None
    if disk is not None:
        from ..store import POLICY_NAMESPACE

        payload = disk.get(POLICY_NAMESPACE, store_key)
        if payload is not None:
            try:
                cached = _policy_from_payload(payload)
            except (KeyError, TypeError, ValueError):
                cached = None  # incompatible schema: fall through to a fresh solve
        if cached is not None:
            _POLICY_CACHE[key] = cached
            return cached
    cached = MdpSolver(params, resolved, max_lead=max_lead).solve()
    _POLICY_CACHE[key] = cached
    if disk is not None:
        from ..store import POLICY_NAMESPACE

        disk.put(POLICY_NAMESPACE, store_key, _policy_payload(cached))
    return cached


def clear_policy_cache() -> None:
    """Drop every cached in-memory solve (exposed for tests and benchmarks).

    The on-disk level (if configured) is untouched: clearing memory is how
    tests exercise the disk path.
    """
    _POLICY_CACHE.clear()
