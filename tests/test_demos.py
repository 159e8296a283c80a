"""The demos run against the public API as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

QUICK_DEMOS = ["01_pinyin_fuzzy.py", "02_lexicon_matching.py",
               "03_candidate_lattice.py", "04_train_correct.py"]


def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_zero(demo):
    run_demo(demo)


@pytest.mark.slow
def test_ablation_demo_exits_zero():
    # the only demo that runs run_ablation and format_ablation (~10 s)
    run_demo("05_evaluate_ablate.py")
