"""Every quick demo runs to completion as a standalone script."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 05_streaming_space.py is left out: it takes 12-16 s on a 2-vCPU machine and
# repeats the runs of acceptance criterion 5
# (test_acceptance.py::test_criterion_5_streaming_space_bound)
DEMOS = ["01_parse_and_cdg.py", "02_trace_and_slice.py", "03_overloads.py",
         "04_differential.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
