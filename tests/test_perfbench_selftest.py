"""The benchmark's self-test passes.

``perfbench/selftest.py`` makes one short traced run per workload and
fails when a layer that ``perfbench/run.py`` expects a workload to
reach records no call, so a change that stops reaching such a layer
fails here as well as in a traced benchmark run.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
