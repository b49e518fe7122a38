"""Bit-exact regression of the analytical revenue model and the Fig. 10 thresholds.

``tests/fixtures/analytic_fixtures.json`` pins every :class:`RevenueRates` field,
each float as its ``repr``, over a grid of ``(alpha, gamma)`` points, three reward
schedules and four lead caps, plus :func:`run_figure10`'s thresholds and
evaluation counts.  The comparison is ``==`` on purpose: a refactor of the model's
chain, solve or fold must reproduce every recorded digit.

The module needs neither scipy nor the test oracles, so it also runs where only
numpy is installed.  Regenerate after an intentional change to the model with::

    PYTHONPATH=src python tests/unit/test_analytic_fixture.py
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping
from pathlib import Path

import pytest

from repro.analysis.revenue import RevenueModel
from repro.experiments.figure10 import run_figure10
from repro.params import MiningParams
from repro.rewards.schedule import make_schedule

FIXTURE_PATH = Path(__file__).parent.parent / "fixtures" / "analytic_fixtures.json"

ALPHAS = (1e-4, 0.05, 0.2, 0.3, 0.45, 0.4995)
GAMMAS = (0.0, 0.5, 1.0)
SCHEDULES = ("ethereum", "bitcoin", "flat:0.5")
MAX_LEADS = (2, 40, 60, 200)
FIGURE10_GAMMAS = (0.0, 0.3, 0.7)


def _encode(value):
    """``value`` with every float replaced by its ``repr``, recursively."""
    if isinstance(value, float):
        return repr(value)
    if dataclasses.is_dataclass(value):
        return {field.name: _encode(getattr(value, field.name)) for field in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(key): _encode(item) for key, item in value.items()}
    return value


def _rates_grid(schedule: str, max_lead: int) -> list[dict]:
    model = RevenueModel(make_schedule(schedule), max_lead=max_lead)
    return [
        _encode(model.revenue_rates(MiningParams(alpha=alpha, gamma=gamma)))
        for alpha in ALPHAS
        for gamma in GAMMAS
    ]


def _figure10() -> list[dict]:
    result = run_figure10(gammas=list(FIGURE10_GAMMAS), max_workers=1)
    return [
        {
            "gamma": repr(point.gamma),
            "scenario1": {
                "alpha_star": repr(point.ethereum_scenario1.alpha_star),
                "evaluations": point.ethereum_scenario1.evaluations,
            },
            "scenario2": {
                "alpha_star": repr(point.ethereum_scenario2.alpha_star),
                "evaluations": point.ethereum_scenario2.evaluations,
            },
        }
        for point in result.points
    ]


def _load() -> dict:
    with FIXTURE_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("max_lead", MAX_LEADS)
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_revenue_rates_match_the_fixture_bit_for_bit(schedule, max_lead):
    expected = _load()["revenue_rates"][schedule][str(max_lead)]
    assert _rates_grid(schedule, max_lead) == expected


def test_figure10_thresholds_match_the_fixture_bit_for_bit():
    assert _figure10() == _load()["figure10"]


def _record() -> dict:
    return {
        "revenue_rates": {
            schedule: {str(max_lead): _rates_grid(schedule, max_lead) for max_lead in MAX_LEADS}
            for schedule in SCHEDULES
        },
        "figure10": _figure10(),
    }


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(_record(), indent=1) + "\n")
    print(f"wrote {FIXTURE_PATH}")
