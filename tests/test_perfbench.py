"""A refactor that renames or re-routes a function the benchmark's tracer
wraps fails here and not only in a benchmark run: a fast test installs and
uninstalls the tracer, and a slow one runs the benchmark's own smoke test."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_uninstalls():
    # every site the tracer wraps still exists under its name (~0.2 ms)
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = list(tracer._undo)
        assert patched
    finally:
        tracer.uninstall()
    for owner, attr, raw in patched:
        assert owner.__dict__[attr] is raw, attr


@pytest.mark.slow
def test_perfbench_smoke_exits_zero():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=900)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]
