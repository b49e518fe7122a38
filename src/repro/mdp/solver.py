"""Relative value iteration over the mining MDP, driven by a Dinkelbach ratio loop.

The pool's objective is its *share* of all rewards — a ratio of two long-run
averages — so the solve is the classic two-level scheme for ratio objectives
(Dinkelbach's method, the approach of Sapirshtein et al. for Bitcoin):

1. **Inner level** (:meth:`MdpSolver.improve`): for a candidate share ``rho`` run
   relative value iteration on the auxiliary average-reward MDP with one-step
   reward ``pool(s, a) - rho * total(s, a)``.  The optimal gain of that MDP is
   positive exactly when some policy earns a share above ``rho``; the greedy
   policy of the converged values is the improving policy.
2. **Outer level** (:meth:`MdpSolver.solve`): evaluate the improving policy
   *exactly*, with the call sequence of
   :meth:`~repro.analysis.revenue.RevenueModel.revenue_rates`: one banded
   elimination (:func:`~repro.markov.stationary.banded_solve`) on the chosen
   edges' state indices, whose override jumps land in the anchored row, then the
   fold of their Appendix-B rows through
   :func:`~repro.analysis.revenue.stationary_rates`.  A policy pinned to the
   selfish decisions therefore reproduces the analytical model's
   :class:`~repro.analysis.revenue.RevenueRates` bit for bit.  The evaluated
   share becomes the next ``rho``.

The share sequence is non-decreasing and strictly increases until the optimal
policy is found (policy-improvement monotonicity — pinned by the property suite),
so the loop terminates after finitely many improvements; in practice two or three.

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
from ..markov.stationary import banded_solve
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

#: Default span tolerance of the relative-value-iteration sweeps.
DEFAULT_RVI_TOLERANCE = 1e-10

#: Default iteration budget of one relative-value-iteration solve.
DEFAULT_RVI_MAX_ITERATIONS = 200_000

#: Default share tolerance of the outer Dinkelbach loop.
DEFAULT_SHARE_TOLERANCE = 1e-12

#: Safety cap on outer improvements (each must strictly raise the share).
DEFAULT_MAX_IMPROVEMENTS = 50


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
        The Dinkelbach share sequence, starting from Algorithm 1's share; it is
        non-decreasing and its last entry is the optimal share.
    rvi_iterations:
        Total inner value-iteration sweeps spent across all improvements.
    """

    params: MiningParams
    max_lead: int
    decisions: tuple[PoolDecision, ...]
    override_codes: tuple[int, ...]
    revenue: RevenueRates
    shares: tuple[float, ...]
    rvi_iterations: int

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

        Solves the chain the chosen actions' edges form with
        :func:`~repro.markov.stationary.banded_solve` and settles their
        Appendix-B rows through :func:`repro.analysis.revenue.stationary_rates`,
        as :meth:`repro.analysis.revenue.RevenueModel.revenue_rates` does for
        Algorithm 1, so the selfish-pinned policy reproduces it exactly.
        """
        model = self.model
        params = self.params
        chosen = model.policy_edges(policy)
        sources = model.sources[chosen].tolist()
        targets = model.targets[chosen].tolist()
        rates = model.rates[chosen].tolist()
        probabilities, residual = banded_solve(
            model.num_states,
            [(source, target, rate) for source, target, rate in zip(sources, targets, rates) if source != target],
        )
        revenue = stationary_rates(
            params,
            probabilities,
            sources,
            rates,
            lambda live: model.rewards.gather(params, chosen[live]),
            model.space.boundary_indices(),
        )
        return PolicyEvaluation(rates=revenue, residual=residual)

    def evaluate_decisions(self, decisions: dict[State, PoolDecision]) -> PolicyEvaluation:
        """Evaluate a policy given as a (possibly partial) ``state -> decision`` map.

        States absent from the map take Algorithm 1's decision; the map form is
        what the pinning tests use.
        """
        policy = self.model.selfish_policy().copy()
        for state, decision in decisions.items():
            index = self.model.space.index_of(state)
            policy[index] = self.model.flat_index(index, decision)
        return self.evaluate(policy)

    # ------------------------------------------------------------------ inner RVI
    def improve(
        self,
        rho: float,
        *,
        values: np.ndarray | None = None,
        tolerance: float = DEFAULT_RVI_TOLERANCE,
        max_iterations: int = DEFAULT_RVI_MAX_ITERATIONS,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Relative value iteration on the ``rho``-adjusted MDP.

        Returns ``(policy, values, iterations)``: the greedy policy of the
        converged relative values (flat action index per state; ties keep the
        first — withhold-preferring — action so the extracted policy deviates
        from Algorithm 1 only where it strictly pays), the values themselves
        (reusable as a warm start for the next ``rho``), and the sweep count.
        """
        model = self.model
        rewards = model.pool_rewards - rho * model.total_rewards
        starts = model.action_offsets[:-1]
        h = np.zeros(model.num_states) if values is None else values.copy()
        for iteration in range(1, max_iterations + 1):
            q = rewards + model.expected_values(h)
            best = np.maximum.reduceat(q, starts)
            delta = best - h
            span = float(delta.max() - delta.min())
            # Subtract the reference state's value (state 0 is ``(0, 0)``) so the
            # iterates stay bounded — the defining trick of *relative* VI.
            h = best - best[0]
            if span < tolerance:
                q = rewards + model.expected_values(h)
                return self._greedy(q), h, iteration
        raise ConvergenceError(
            f"relative value iteration did not reach span {tolerance:g} within "
            f"{max_iterations} sweeps at rho={rho:.6f} ({model.describe()})"
        )

    def _greedy(self, q: np.ndarray) -> np.ndarray:
        """First-maximum greedy policy of the action values ``q`` (flat indices)."""
        offsets = self.model.action_offsets
        policy = np.empty(self.model.num_states, dtype=np.int64)
        for index in range(self.model.num_states):
            start, stop = int(offsets[index]), int(offsets[index + 1])
            policy[index] = start + int(np.argmax(q[start:stop]))
        return policy

    # ------------------------------------------------------------------ outer loop
    def solve(
        self,
        *,
        share_tolerance: float = DEFAULT_SHARE_TOLERANCE,
        max_improvements: int = DEFAULT_MAX_IMPROVEMENTS,
        rvi_tolerance: float = DEFAULT_RVI_TOLERANCE,
        rvi_max_iterations: int = DEFAULT_RVI_MAX_ITERATIONS,
    ) -> OptimalPolicyResult:
        """Run the Dinkelbach loop to the optimal policy and its exact value."""
        model = self.model
        policy = model.selfish_policy()
        evaluation = self.evaluate(policy)
        shares = [evaluation.share]
        values: np.ndarray | None = None
        total_sweeps = 0
        for _ in range(max_improvements):
            improved, values, sweeps = self.improve(
                shares[-1],
                values=values,
                tolerance=rvi_tolerance,
                max_iterations=rvi_max_iterations,
            )
            total_sweeps += sweeps
            if np.array_equal(improved, policy):
                break
            improved_evaluation = self.evaluate(improved)
            if improved_evaluation.share <= shares[-1] + share_tolerance:
                # The candidate rearranges decisions without raising the share
                # (ties in states of negligible stationary mass): keep the
                # incumbent, which deviates less from Algorithm 1.
                break
            policy = improved
            evaluation = improved_evaluation
            shares.append(evaluation.share)
        else:
            raise ConvergenceError(
                f"policy improvement did not stabilise within {max_improvements} "
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
            rvi_iterations=total_sweeps,
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
        "rvi_iterations": result.rvi_iterations,
    }


def _policy_from_payload(payload: dict) -> OptimalPolicyResult:
    """Rebuild a solved policy from its stored payload.

    Raises :class:`ValueError` when the decision table does not have one entry
    per :class:`~repro.markov.state.LumpedSpace` state, as a payload stored by a
    solver on another state space does not.
    """
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
        rvi_iterations=payload["rvi_iterations"],
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
