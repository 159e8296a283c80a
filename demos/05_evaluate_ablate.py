#!/usr/bin/env python3
"""Character-level scoring and the component ablation.

Detection asks "did the model change the right positions", correction asks
"did it change them to the right characters".  The ablation trains one
model per variant on the same synthetic split and prints mean P/R/F per
variant:

  plain      no candidates, no copy gate
  copy       copy gate only
  ttm+copy   exact-match candidates only
  desm+copy  full lattice with pinyin probes

With candidates and the gate both on, detection and correction improve
together; the pinyin probes mostly buy correction, because they put the
intended word in the candidate list at exactly the broken positions.
Numbers here come from a deliberately small run, so expect low recall.
"""

import logging

from hanfix.corpus import make_toy_benchmark
from hanfix.evaluation import DEFAULT_VARIANTS, format_ablation, run_ablation, score
from hanfix.training import TrainConfig

logging.basicConfig(level=logging.WARNING)

print("hand-scoring three toy triples (source, gold, prediction):")
triples = [
    ("AB", "AC", "AC"),  # the error was found and fixed
    ("DE", "DE", "XE"),  # false alarm on clean text
    ("FG", "HG", "FG"),  # miss
]
report = score(triples, tag="demo")
d, c = report.detection, report.correction
print(f"  detection  P={d[0]:.3f} R={d[1]:.3f} F1={d[2]:.3f}")
print(f"  correction P={c[0]:.3f} R={c[1]:.3f} F1={c[2]:.3f}")

print("\nmini ablation (toy benchmark, 1 seed, a few epochs; ~1 min)")
bench = make_toy_benchmark(n_words=200, n_train=1200, n_test=300,
                           error_rate=0.15, seed=0)
over = dict(d_c=16, d_w=16, layers=1, heads=2, ffn_dim=32, gate_dim=16,
            m_max=8, max_len=64)
tconf = TrainConfig(lr=2e-3, batch_size=64, epochs=12)
rows = run_ablation(
    DEFAULT_VARIANTS, list(bench.train_pairs), list(bench.test_pairs),
    bench.lexicon, bench.ptable, bench.fuzzy,
    seeds=(0,), tconf=tconf, model_overrides=over,
)
print(format_ablation(rows))
