"""Ablation benchmarks: two modelling choices of the analytical reproduction.

Two ablations accompany the reproduction:

* **State-space truncation** — the analytical results must be insensitive to the
  truncation level well below the default; this ablation quantifies the residual at a
  heavy-tailed parameter point and times the solve at increasing depths.
* **Uncle-reward window** — the paper's flat-reward curves read best without the
  protocol's 6-generation inclusion window (see ``repro.experiments.figure9``); this
  ablation reports how much of Fig. 9's total-revenue inflation is attributable to
  far-away uncles.
"""

from __future__ import annotations

import pytest
from report_utils import emit_report

from repro.analysis.absolute import Scenario, absolute_revenue
from repro.analysis.revenue import RevenueModel
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule
from repro.utils.tables import Table

HEAVY_TAIL_POINT = MiningParams(alpha=0.45, gamma=0.5)


def _truncation_ablation() -> tuple[str, list[tuple[int, float]]]:
    rows: list[tuple[int, float]] = []
    for max_lead in (20, 30, 40, 60, 80):
        model = RevenueModel(EthereumByzantiumSchedule(), max_lead=max_lead)
        rows.append((max_lead, model.revenue_rates(HEAVY_TAIL_POINT).pool.total))
    table = Table(
        headers=["max_lead", "pool revenue rate"],
        title=f"Truncation ablation at {HEAVY_TAIL_POINT.describe()}",
        float_format=".8f",
    )
    for max_lead, value in rows:
        table.add_row(max_lead, value)
    return table.render(), rows


def test_truncation_ablation(benchmark):
    report, rows = benchmark.pedantic(_truncation_ablation, rounds=1, iterations=1)
    emit_report("Ablation: Markov state-space truncation", report)
    reference = rows[-1][1]
    errors = [abs(value - reference) for _, value in rows[:-1]]
    # Deeper truncations converge monotonically towards the reference value.
    assert all(later <= earlier + 1e-12 for earlier, later in zip(errors, errors[1:]))
    # And the default depth (60) is already within 1e-6 of the deepest evaluated.
    assert abs(rows[-2][1] - reference) < 1e-6


def _window_ablation() -> tuple[str, float, float]:
    windowed = RevenueModel(FlatUncleSchedule(7 / 8), max_lead=60)
    unlimited = RevenueModel(FlatUncleSchedule(7 / 8, max_uncle_distance=10**6), max_lead=60)
    point = MiningParams(alpha=0.45, gamma=0.5)
    total_windowed = absolute_revenue(windowed.revenue_rates(point), Scenario.REGULAR_ONLY).total
    total_unlimited = absolute_revenue(unlimited.revenue_rates(point), Scenario.REGULAR_ONLY).total
    table = Table(
        headers=["uncle window", "total absolute revenue (alpha=0.45, Ku=7/8)"],
        title="Uncle-reward window ablation (Fig. 9 peak)",
    )
    table.add_row("protocol window (6)", total_windowed)
    table.add_row("unlimited distance", total_unlimited)
    return table.render(), total_windowed, total_unlimited


def test_uncle_window_ablation(benchmark):
    report, windowed, unlimited = benchmark.pedantic(_window_ablation, rounds=1, iterations=1)
    emit_report("Ablation: uncle-reward inclusion window", report)
    assert unlimited == pytest.approx(1.35, abs=0.04)  # the paper's reading
    assert windowed == pytest.approx(1.27, abs=0.04)  # the protocol-accurate reading
    assert unlimited > windowed
