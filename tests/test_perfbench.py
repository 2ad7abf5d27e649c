"""The benchmark's own smoke test, run as part of the suite.

perfbench's tracer wraps functions of ``spangraph`` by name, so renaming one
of them breaks the benchmark without breaking any unit test; this catches it.
"""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.slow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "0 failure(s)" in proc.stdout
