#!/usr/bin/env python3
"""Train a small corrector end to end and watch it fix sentences.

The corpus is synthetic: sample word sequences from the demo lexicon, then
corrupt ~20% of characters with same-sounding or fuzzy-sounding ones.  A
fresh model already echoes its input (the copy gate starts around 0.88),
so training only has to learn *where* to distrust the input and which
candidate to trust instead.  A couple hundred epochs on a few hundred
pairs takes well under a minute on a laptop CPU.
"""

from hanfix import data
from hanfix.corpus import NoiseSpec, corpus_stats, generate_synthetic
from hanfix.desm import featurize_sentences
from hanfix.lexicon import build_lexicon
from hanfix.model import correct_many
from hanfix.pinyin import FuzzyClassTable, PinyinTable
from hanfix.training import TrainConfig, train

ptable = PinyinTable.from_file(data.demo_pinyin_path())
fuzzy = FuzzyClassTable.from_file(data.demo_fuzzy_path())
lex = build_lexicon(data.demo_words_path(), ptable, fuzzy)

pairs = generate_synthetic(
    lex, ptable, fuzzy, 300, (4, 10), NoiseSpec(error_rate=0.2, seed=3)
)
n_pairs, n_errors = corpus_stats(pairs)
print(f"corpus: {n_pairs} pairs, {n_errors} corrupted characters")
for p in pairs[:3]:
    print(f"  {p.source}  ->  {p.target}")

over = dict(d_c=16, d_w=16, layers=1, heads=2, ffn_dim=32, gate_dim=8,
            m_max=5, max_len=32)
tconf = TrainConfig(lr=2e-3, batch_size=32, epochs=40, seed=0)
params, history = train(pairs, lex, ptable, fuzzy, tconf, model_overrides=over)
print(f"loss {history[0]:.3f} -> {history[-1]:.3f} over {len(history)} epochs")

held_out = generate_synthetic(
    lex, ptable, fuzzy, 8, (4, 10), NoiseSpec(error_rate=0.2, seed=99)
)
sources = [p.source for p in held_out]
# featurize the way the model was trained: its m_max and lattice mode
cfg = params.config
feats = featurize_sentences(sources, lex, ptable, fuzzy, cfg.m_max, cfg.lattice_mode)
fixed = correct_many(params, sources, feats)
print("\nheld-out corrections (input -> output | gold)")
for p, out in zip(held_out, fixed):
    flag = "ok " if out == p.target else "    "
    print(f"  {flag}{p.source} -> {out} | {p.target}")
