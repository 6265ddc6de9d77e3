import os
import subprocess
import sys
from pathlib import Path

import pytest

import coverpebbling

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# demo 05 spends its time on the acceptance gadget's refutation, which
# test_acceptance.py already checks, so only CI runs it
@pytest.mark.parametrize("name", [
    "01_cover_numbers.py",
    "02_solvability_certificates.py",
    "03_random_configurations.py",
    "04_threshold_sweep.py",
])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(Path(coverpebbling.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
