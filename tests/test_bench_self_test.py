"""The benchmark harness's self-test passes on the current tree.

A benchmark operation that fails counts against the change that broke it,
so the harness's tiny-input self-test runs with the unit tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "self-test ok" in result.stdout
