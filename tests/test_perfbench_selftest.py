"""The benchmark's own tests pass against the library in ``src/``.

``perfbench/selftest.py`` checks the benchmark's input generator, oracles
and tracer arithmetic; several of those checks run library code.  It is
run here as it is meant to be run, as a script in a fresh interpreter from
the root of the checkout, so that a library change that breaks one of the
benchmark's oracles fails the test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout
