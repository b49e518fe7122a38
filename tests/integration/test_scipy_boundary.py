"""Where scipy is loaded: only by the generic sparse LU solve the test oracles use.

Every paper artifact solves the banded lumped chain in pure Python: the
analytical :class:`~repro.analysis.revenue.RevenueModel` and the optimal-strategy
MDP alike.  So importing the package, its CLI, the sweep engine and the store,
computing a Fig. 10 threshold, compiling an :class:`~repro.mdp.model.MdpModel`
and solving an optimal policy must all leave scipy unloaded.  Each check runs
in a fresh interpreter, since this test process has long since imported scipy.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

SCRIPT = """
import json, sys
import repro, repro.experiments.cli, repro.scenarios, repro.store
from repro.experiments.figure10 import run_figure10

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

after_import = scipy_modules()
result = run_figure10(gammas=[0.3], max_lead=30)
after_figure10 = scipy_modules()

from repro.mdp.model import MdpModel
from repro.mdp.solver import solve_optimal_policy
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule

after_mdp_import = scipy_modules()
MdpModel(MiningParams(alpha=0.3, gamma=0.5), EthereumByzantiumSchedule(), max_lead=4)
after_mdp_compile = scipy_modules()
policy = solve_optimal_policy(MiningParams(alpha=0.4, gamma=0.5))
print(json.dumps({
    "after_import": after_import,
    "after_figure10": after_figure10,
    "after_mdp_import": after_mdp_import,
    "after_mdp_compile": after_mdp_compile,
    "after_mdp_solve": scipy_modules(),
    "threshold": result.points[0].ethereum_scenario1.alpha_star,
    "policy": policy.policy_label(),
}))
"""


def test_paper_artifacts_leave_scipy_unloaded():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert report["after_import"] == []
    assert report["after_figure10"] == []
    assert report["after_mdp_import"] == []
    assert report["after_mdp_compile"] == []
    assert report["after_mdp_solve"] == []
    assert 0.0 < report["threshold"] < 0.5
    assert report["policy"] == "selfish"
