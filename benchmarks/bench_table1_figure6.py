"""Benchmark + reproduction of the descriptive artifacts: Table I and Figure 6.

These are cheap static tables, kept in the harness so that ``pytest benchmarks/
--benchmark-only`` prints them; the computed artifacts are timed end to end by
``perfbench`` and their numbers checked by the tier-1 suite.
"""

from __future__ import annotations

import pytest
from report_utils import emit_report

from repro.experiments.pools import pool_concentration_report, top_k_share
from repro.experiments.table1 import run_table1


def test_table1_reproduction(benchmark):
    result = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    emit_report("Table I: mining rewards in Ethereum and Bitcoin", result.report())
    by_type = {row.reward_type: row for row in result.rows}
    assert by_type["Uncle reward"].in_ethereum and not by_type["Uncle reward"].in_bitcoin
    assert by_type["Nephew reward"].in_ethereum and not by_type["Nephew reward"].in_bitcoin
    assert by_type["Static reward"].in_ethereum and by_type["Static reward"].in_bitcoin


def test_figure6_reproduction(benchmark):
    report = benchmark.pedantic(pool_concentration_report, rounds=1, iterations=1)
    emit_report("Figure 6: Ethereum mining-pool hash power (2018-09)", report)
    assert top_k_share(k=1) == pytest.approx(0.2634, abs=1e-4)
    assert top_k_share(k=2) == pytest.approx(0.488, abs=1e-3)
    assert top_k_share(k=5) > 0.81
