"""The benchmark's own unit tests, run as part of the library's suite.

They read library internals (the Kostant memo, the traced layer
functions), so a library change that breaks the benchmark fails here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_unittests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench",
         "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
