"""The benchmark's own smoke test runs, so a refactor that renames or
re-routes a function the tracer wraps fails here and not only in a
benchmark run."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_perfbench_smoke_exits_zero():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=900)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]
