"""A refactor that renames or re-routes a function the benchmark's tracer
wraps fails here and not only in a benchmark run: fast tests install and
uninstall the tracer and check that featurization and correction still pass
through the traced sites, and a slow one runs the benchmark's own smoke
test."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_and_uninstalls():
    # every site the tracer wraps still exists under its name (~0.2 ms)
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = list(tracer._undo)
        assert patched
    finally:
        tracer.uninstall()
    for owner, attr, raw in patched:
        assert owner.__dict__[attr] is raw, attr


# the sites a featurize + correct pass goes through; a change that routes
# around one zeroes its per-layer metrics.  model.forward_batch is left out:
# correct_many runs the forward pass without it.
HOT_SITES = ("desm.featurize", "desm.build_lattice", "desm.lattice_to_feature_ids",
             "lexicon.trie_match_all", "lexicon.pinyin_2gram_lookup", "pinyin.fuzzy_key",
             "model.assemble_batch", "encoder.forward", "model.correct_many")


def test_featurize_and_correct_pass_every_traced_site():
    import hanfix.desm as desm
    import hanfix.model as model
    from hanfix.corpus import make_toy_benchmark
    from hanfix.lexicon import lexicon_from_words

    bench = make_toy_benchmark(n_words=60, n_train=1, n_test=16, seed=2)
    # a lexicon of its own, so no window's hits are remembered yet
    lex = lexicon_from_words(zip(bench.lexicon.surfaces, bench.lexicon.frequencies),
                             bench.ptable, bench.fuzzy)
    chars = sorted({ch for p in bench.test_pairs for ch in p.source})
    params = model.init_params(model.ModelConfig(
        char_vocab_size=len(chars) + 2, word_vocab_size=len(lex) + 2, d_c=8, d_w=4,
        layers=1, heads=2, ffn_dim=16, gate_dim=4, m_max=4, max_len=16), chars)
    sentences = [p.source for p in bench.test_pairs]
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        feats = desm.featurize_sentences(sentences, lex, bench.ptable, bench.fuzzy, 4)
        model.correct_many(params, sentences, feats)
    finally:
        tracer.uninstall()
    calls = {name: tracer.calls((tracer.phase,), name) for name in HOT_SITES}
    assert all(calls.values()), calls


@pytest.mark.slow
def test_perfbench_smoke_exits_zero():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=900)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]
