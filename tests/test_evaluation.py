import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanfix.corpus import ParallelPair, generate_synthetic, NoiseSpec
from hanfix.corpus import make_toy_inventory, make_toy_words
from hanfix.desm import featurize_sentences
from hanfix.errors import LengthMismatch
from hanfix.evaluation import (
    DEFAULT_VARIANTS,
    AblationVariant,
    EvalReport,
    f1,
    format_ablation,
    format_report,
    run_ablation,
    score,
)
from hanfix.lexicon import lexicon_from_words
from hanfix.model import correct_many
from hanfix.pinyin import FuzzyClassTable, PinyinTable
from hanfix.training import TrainConfig, train

# hand-scored fixture:
#   triple 1: error at pos 1, detected and corrected
#   triple 2: clean, model edits pos 0 anyway        -> detection FP
#   triple 3: error at pos 0, model leaves it alone  -> detection FN
FIXTURE = [
    ("AB", "AC", "AC"),
    ("DE", "DE", "XE"),
    ("FG", "HG", "FG"),
]


class TestScore:
    def test_hand_computed_values(self):
        rep = score(FIXTURE, tag="hand")
        # PP = 2, AP = 2, TP = 1
        assert abs(rep.detection[0] - 0.5) < 5e-7
        assert abs(rep.detection[1] - 0.5) < 5e-7
        assert abs(rep.detection[2] - 0.5) < 5e-7
        # hits = 1; precision over detected (1/1), recall over actual (1/2)
        assert abs(rep.correction[0] - 1.0) < 5e-7
        assert abs(rep.correction[1] - 0.5) < 5e-7
        assert abs(rep.correction[2] - 0.666667) < 5e-7
        assert rep.counts == {
            "detection_tp": 1,
            "detection_fp": 1,
            "detection_fn": 1,
            "correction_hits": 1,
            "correction_precision_denominator": 1,
            "correction_recall_denominator": 2,
        }
        assert rep.flags == ()

    def test_correction_precision_conditioned_on_detection(self):
        # one detected-and-fixed error plus one spurious edit at a clean
        # position: conditional correction P stays 1.0, detection P drops
        rep = score([("AB", "AC", "XC")])
        assert rep.detection[0] == 0.5
        assert rep.correction[0] == 1.0

    def test_wrong_fix_counts_detection_not_correction(self):
        rep = score([("AB", "AC", "AD")])  # right position, wrong char
        assert rep.counts["detection_tp"] == 1
        assert rep.counts["correction_hits"] == 0
        assert rep.correction == (0.0, 0.0, 0.0)

    def test_perfect(self):
        rep = score([("AB", "AC", "AC"), ("DD", "DD", "DD")])
        assert rep.detection == (1.0, 1.0, 1.0)
        assert rep.correction == (1.0, 1.0, 1.0)

    def test_zero_denominators_flagged(self):
        rep = score([("AB", "AB", "AB")])  # clean corpus, no edits
        assert rep.detection == (0.0, 0.0, 0.0)
        assert set(rep.flags) == {
            "detection_precision",
            "detection_recall",
            "correction_precision",
            "correction_recall",
        }
        rep2 = score([("AB", "AC", "AB")])  # errors exist, no edits
        assert "detection_precision" in rep2.flags
        assert "detection_recall" not in rep2.flags

    def test_empty_corpus_flags_everything(self):
        rep = score([])
        assert len(rep.flags) == 4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch) as ei:
            score([("AB", "AC", "AC"), ("AB", "AB", "ABC")])
        assert "#1" in str(ei.value)

    @given(
        st.lists(
            st.tuples(
                st.text("ab", min_size=1, max_size=6),
                st.text("ab", min_size=1, max_size=6),
                st.text("ab", min_size=1, max_size=6),
            ).map(lambda t: (t[0], t[1][: len(t[0])].ljust(len(t[0]), "a"),
                             t[2][: len(t[0])].ljust(len(t[0]), "a"))),
            min_size=0,
            max_size=20,
        )
    )
    @settings(max_examples=200)
    def test_brute_force_recount(self, triples):
        rep = score(triples)
        tp = fp = fn = hits = 0
        for s, g, y in triples:
            for i in range(len(s)):
                if y[i] != s[i] and g[i] != s[i]:
                    tp += 1
                elif y[i] != s[i]:
                    fp += 1
                elif g[i] != s[i]:
                    fn += 1
                if g[i] != s[i] and y[i] == g[i]:
                    hits += 1
        assert rep.counts["detection_tp"] == tp
        assert rep.counts["detection_fp"] == fp
        assert rep.counts["detection_fn"] == fn
        assert rep.counts["correction_hits"] == hits
        if tp + fp:
            assert abs(rep.detection[0] - tp / (tp + fp)) < 1e-12
        if tp + fn:
            assert abs(rep.detection[1] - tp / (tp + fn)) < 1e-12
        if tp:
            assert abs(rep.correction[0] - hits / tp) < 1e-12

    def test_f1_helper(self):
        assert f1(0.0, 0.0) == 0.0
        assert abs(f1(1.0, 0.5) - 2 / 3) < 1e-12

    def test_format_report(self):
        text = format_report(score(FIXTURE, tag="demo"))
        assert "[demo]" in text
        assert "P 0.5000" in text
        text2 = format_report(score([("AB", "AB", "AB")]))
        assert "zero denominator" in text2


@pytest.fixture(scope="module")
def tiny_world():
    fuzzy = FuzzyClassTable.default()
    inv = make_toy_inventory(homophones=3, fuzzy=fuzzy)
    ptable = PinyinTable.from_pairs(inv)
    words = make_toy_words(inv, n_words=60, word_len=2, seed=0, fuzzy=fuzzy)
    lex = lexicon_from_words(words, ptable, fuzzy)
    train_pairs = generate_synthetic(lex, ptable, fuzzy, 40, (4, 8),
                                     NoiseSpec(0.2, 0.5, seed=1))
    test_pairs = generate_synthetic(lex, ptable, fuzzy, 15, (4, 8),
                                    NoiseSpec(0.2, 0.5, seed=2))
    return lex, ptable, fuzzy, train_pairs, test_pairs


SMALL_OVER = {"d_c": 16, "d_w": 8, "layers": 1, "heads": 2, "ffn_dim": 32,
              "gate_dim": 8, "m_max": 4, "max_len": 32}


class TestAblation:
    def test_single_variant_runs_and_is_deterministic(self, tiny_world):
        lex, ptable, fuzzy, train_pairs, test_pairs = tiny_world
        tconf = TrainConfig(lr=1e-3, batch_size=16, epochs=2)
        rows1 = run_ablation(
            [AblationVariant("desm+copy", True, "desm")],
            train_pairs, test_pairs, lex, ptable, fuzzy,
            seeds=(0,), tconf=tconf, model_overrides=dict(SMALL_OVER),
        )
        rows2 = run_ablation(
            [AblationVariant("desm+copy", True, "desm")],
            train_pairs, test_pairs, lex, ptable, fuzzy,
            seeds=(0,), tconf=tconf, model_overrides=dict(SMALL_OVER),
        )
        assert rows1[0].error is None
        assert rows1[0].mean_detection == rows2[0].mean_detection
        assert rows1[0].mean_correction == rows2[0].mean_correction
        assert rows1[0].reports[0].tag == "desm+copy/seed0"

    def test_scores_the_model_that_train_makes(self, tiny_world):
        # the harness trains exactly what train() trains at the same seed and
        # overrides: the same vocabulary, features and weights.  Without the
        # copy path this model edits its input, so its report tells models
        # apart (a reordered vocabulary changes it)
        lex, ptable, fuzzy, train_pairs, test_pairs = tiny_world
        tconf = TrainConfig(lr=1e-3, batch_size=16, epochs=2, seed=3)
        [row] = run_ablation(
            [AblationVariant("desm", False, "desm")],
            train_pairs, test_pairs, lex, ptable, fuzzy,
            seeds=(3,), tconf=tconf, model_overrides=dict(SMALL_OVER),
        )
        over = dict(SMALL_OVER, use_copy=False, lattice_mode="desm")
        params, _ = train(train_pairs, lex, ptable, fuzzy, tconf=tconf, model_overrides=over)
        sources = [p.source for p in test_pairs]
        feats = featurize_sentences(sources, lex, ptable, fuzzy, SMALL_OVER["m_max"])
        preds = correct_many(params, sources, feats)
        want = score([(p.source, p.target, yh) for p, yh in zip(test_pairs, preds)],
                     tag="desm/seed3")
        assert want.counts["detection_fp"] > 0
        assert row.reports == [want]

    def test_seeds_averaged(self, tiny_world):
        lex, ptable, fuzzy, train_pairs, test_pairs = tiny_world
        tconf = TrainConfig(lr=1e-3, batch_size=16, epochs=1)
        rows = run_ablation(
            [AblationVariant("copy", True, "none")],
            train_pairs, test_pairs, lex, ptable, fuzzy,
            seeds=(0, 1), tconf=tconf, model_overrides=dict(SMALL_OVER),
        )
        row = rows[0]
        assert len(row.reports) == 2
        want = tuple(
            (row.reports[0].detection[i] + row.reports[1].detection[i]) / 2
            for i in range(3)
        )
        assert row.mean_detection == want

    def test_variant_error_is_isolated(self, tiny_world):
        lex, ptable, fuzzy, train_pairs, test_pairs = tiny_world
        tconf = TrainConfig(lr=1e-3, batch_size=16, epochs=1)
        rows = run_ablation(
            [AblationVariant("broken", True, "bogus-mode"),
             AblationVariant("copy", True, "none")],
            train_pairs, test_pairs, lex, ptable, fuzzy,
            seeds=(0,), tconf=tconf, model_overrides=dict(SMALL_OVER),
        )
        assert rows[0].error is not None
        assert "bogus-mode" in rows[0].error
        assert rows[1].error is None

    def test_default_variants_shape(self):
        names = [v.name for v in DEFAULT_VARIANTS]
        assert names == ["plain", "copy", "ttm+copy", "desm+copy"]
        assert DEFAULT_VARIANTS[0].use_copy is False

    def test_format_ablation(self, tiny_world):
        lex, ptable, fuzzy, train_pairs, test_pairs = tiny_world
        tconf = TrainConfig(lr=1e-3, batch_size=16, epochs=1)
        rows = run_ablation(
            [AblationVariant("copy", True, "none"),
             AblationVariant("bad", True, "nope")],
            train_pairs, test_pairs, lex, ptable, fuzzy,
            seeds=(0,), tconf=tconf, model_overrides=dict(SMALL_OVER),
        )
        text = format_ablation(rows)
        assert "variant" in text and "corr F1" in text
        assert "FAILED" in text

    def test_needs_a_seed(self, tiny_world):
        lex, ptable, fuzzy, train_pairs, test_pairs = tiny_world
        with pytest.raises(ValueError):
            run_ablation([DEFAULT_VARIANTS[0]], train_pairs, test_pairs,
                         lex, ptable, fuzzy, seeds=())
