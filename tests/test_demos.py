"""Run the quick demos end to end, so an API change cannot break them unseen.

``05_experiment_matrix.py`` is left out: it takes about half a minute, and
``run_matrix`` is covered by ``test_cli`` and the c10 acceptance test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = [
    "01_single_cartogram.py",
    "02_multi_weight_stability.py",
    "03_leaders_and_interpolation.py",
    "04_force_baseline.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
