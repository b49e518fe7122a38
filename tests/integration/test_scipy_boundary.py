"""Where scipy is loaded: only by the MDP and the generic sparse LU solve.

The paper artifacts built on :class:`~repro.analysis.revenue.RevenueModel` solve
their banded lumped chain in pure Python, so importing the package, its CLI, the
sweep engine and the store, and computing a Fig. 10 threshold, must leave scipy
unloaded.  Compiling an :class:`~repro.mdp.model.MdpModel` is where it loads.
Each check runs in a fresh interpreter, since this test process has long since
imported scipy.
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
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule

after_mdp_import = scipy_modules()
MdpModel(MiningParams(alpha=0.3, gamma=0.5), EthereumByzantiumSchedule(), max_lead=4)
print(json.dumps({
    "after_import": after_import,
    "after_figure10": after_figure10,
    "after_mdp_import": after_mdp_import,
    "after_mdp_compile": bool(scipy_modules()),
    "threshold": result.points[0].ethereum_scenario1.alpha_star,
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
    assert report["after_mdp_compile"] is True
    assert 0.0 < report["threshold"] < 0.5
