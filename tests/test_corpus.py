import logging

import numpy as np
import pytest

from hanfix.corpus import (
    NoiseSpec,
    ParallelPair,
    corpus_stats,
    generate_synthetic,
    homophone_pools,
    load_parallel_tsv,
    make_toy_benchmark,
    make_toy_inventory,
    make_toy_words,
    save_parallel_tsv,
)
from hanfix.errors import LengthMismatch, MalformedLine
from hanfix.lexicon import lexicon_from_words
from hanfix.pinyin import FuzzyClassTable, PinyinTable, fuzzy_key, parse_syllable


@pytest.fixture(scope="module")
def fuzzy():
    return FuzzyClassTable.default()


@pytest.fixture(scope="module")
def toy(fuzzy):
    inv = make_toy_inventory(homophones=3, fuzzy=fuzzy)
    ptable = PinyinTable.from_pairs(inv)
    words = make_toy_words(inv, n_words=150, word_len=2, seed=0, fuzzy=fuzzy)
    lex = lexicon_from_words(words, ptable, fuzzy)
    return inv, ptable, lex


class TestParallelPair:
    def test_error_positions(self):
        p = ParallelPair("abcd", "axcy")
        assert p.error_positions() == (1, 3)
        assert ParallelPair("ab", "ab").error_positions() == ()

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ParallelPair("abc", "ab")

    def test_stats(self):
        pairs = [ParallelPair("ab", "ab"), ParallelPair("abc", "xbc")]
        assert corpus_stats(pairs) == (2, 1)


class TestTsv:
    def test_round_trip(self, tmp_path):
        pairs = [ParallelPair("我参家", "我参加"), ParallelPair("好", "好")]
        p = tmp_path / "c.tsv"
        save_parallel_tsv(pairs, p)
        assert load_parallel_tsv(p) == pairs

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("我\t你\n\n  \n好\t好\n", encoding="utf-8")
        assert len(load_parallel_tsv(p)) == 2

    def test_malformed(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("onlyonefield\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_parallel_tsv(p)

    def test_length_mismatch_names_line(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("我你\t我你\n我你他\t我你\n", encoding="utf-8")
        with pytest.raises(LengthMismatch) as ei:
            load_parallel_tsv(p)
        assert ":2" in str(ei.value)

    def test_reports_counts(self, tmp_path, caplog):
        # SIGHAN2015-shaped sanity fixture: the loader must report exactly
        # the sentence and error-char totals present in the file
        rng = np.random.default_rng(5)
        lines = []
        n_err = 0
        for _ in range(1100):
            tgt = "".join(chr(0x4E00 + int(c)) for c in rng.integers(0, 40, 8))
            src = list(tgt)
            if n_err < 703 and rng.random() < 0.7:
                k = int(rng.integers(1, 3))
                k = min(k, 703 - n_err)
                for j in rng.choice(8, size=k, replace=False):
                    src[j] = chr(0x4E00 + ((ord(src[j]) - 0x4E00 + 1) % 40))
                n_err += k
        # top up to exactly 703 if the random walk fell short
            lines.append(("".join(src), tgt))
        while n_err < 703:
            tgt = "".join(chr(0x4E00 + int(c)) for c in rng.integers(0, 40, 8))
            src = list(tgt)
            src[0] = chr(0x4E00 + ((ord(src[0]) - 0x4E00 + 1) % 40))
            n_err += 1
            lines.append((("".join(src)), tgt))
        p = tmp_path / "sighan_shaped.tsv"
        save_parallel_tsv([ParallelPair(s, t) for s, t in lines], p)
        with caplog.at_level(logging.INFO, logger="hanfix.corpus"):
            pairs = load_parallel_tsv(p)
        n_sent, n_errs = corpus_stats(pairs)
        assert n_errs == 703
        assert n_sent == len(lines)
        assert any(str(n_sent) in r.getMessage() and "703" in r.getMessage()
                   for r in caplog.records)


class TestHomophonePools:
    def test_split_by_reading(self, fuzzy):
        t = PinyinTable.from_pairs(
            [("参", "can1"), ("餐", "can1"), ("禅", "chan2"), ("蚕", "can2"),
             ("我", "wo3")]
        )
        pools = homophone_pools(t, fuzzy)
        exact, near = pools["参"]
        assert set(exact) == {"餐", "蚕"}  # same toneless reading, tones differ
        assert set(near) == {"禅"}  # c/ch class only
        assert pools["我"] == ((), ())

    def test_polyphone_unions(self, fuzzy):
        t = PinyinTable.from_pairs(
            [("参", "can1"), ("参", "shen1"), ("深", "shen1"), ("餐", "can1")]
        )
        exact, near = homophone_pools(t, fuzzy)["参"]
        assert set(exact) == {"深", "餐"}

    def test_never_contains_self(self, toy, fuzzy):
        _, ptable, _ = toy
        for ch, (exact, near) in homophone_pools(ptable, fuzzy).items():
            assert ch not in exact and ch not in near
            assert not set(exact) & set(near)


class TestGenerate:
    def test_deterministic(self, toy, fuzzy):
        _, ptable, lex = toy
        spec = NoiseSpec(0.2, 0.5, seed=42)
        a = generate_synthetic(lex, ptable, fuzzy, 50, (4, 10), spec)
        b = generate_synthetic(lex, ptable, fuzzy, 50, (4, 10), spec)
        assert a == b
        c = generate_synthetic(lex, ptable, fuzzy, 50, (4, 10),
                               NoiseSpec(0.2, 0.5, seed=43))
        assert a != c

    def test_targets_are_word_concatenations(self, toy, fuzzy):
        _, ptable, lex = toy
        surfaces = {e.surface for e in lex.entries}
        pairs = generate_synthetic(lex, ptable, fuzzy, 40, (4, 10),
                                   NoiseSpec(0.3, 0.5, seed=1))
        for p in pairs:
            assert len(p.target) >= 4 or len(p.target) == 2  # one-word overshoot floor
            assert len(p.target) % 2 == 0
            for k in range(0, len(p.target), 2):
                assert p.target[k:k + 2] in surfaces

    def test_error_rate_within_tolerance(self, toy, fuzzy):
        # over >=10k characters the realized rate must sit within 2 points
        _, ptable, lex = toy
        pairs = generate_synthetic(lex, ptable, fuzzy, 1500, (6, 12),
                                   NoiseSpec(0.15, 0.5, seed=7))
        n_chars = sum(len(p.source) for p in pairs)
        _, n_err = corpus_stats(pairs)
        assert n_chars >= 10_000
        assert abs(n_err / n_chars - 0.15) < 0.02

    def test_every_swap_is_a_homophone(self, toy, fuzzy):
        # oracle: each corrupted char must share a fuzzy key with the char
        # it replaced (exact homophones share it trivially)
        _, ptable, lex = toy
        pairs = generate_synthetic(lex, ptable, fuzzy, 120, (4, 10),
                                   NoiseSpec(0.3, 0.5, seed=9))
        swaps = 0
        for p in pairs:
            for i in p.error_positions():
                src, tgt = p.source[i], p.target[i]
                assert any(
                    fuzzy_key(a, fuzzy) == fuzzy_key(b, fuzzy)
                    for a in ptable.get(src)
                    for b in ptable.get(tgt)
                )
                swaps += 1
        assert swaps > 50

    def test_fuzzy_prob_steers_pool_choice(self, toy, fuzzy):
        _, ptable, lex = toy

        def strict_fuzzy_fraction(prob):
            pairs = generate_synthetic(lex, ptable, fuzzy, 400, (4, 10),
                                       NoiseSpec(0.3, prob, seed=21))
            exact = near = 0
            for p in pairs:
                for i in p.error_positions():
                    src_r = set(ptable.get(p.source[i]))
                    tgt_r = set(ptable.get(p.target[i]))
                    if src_r & tgt_r:
                        exact += 1
                    else:
                        near += 1
            return near / (exact + near)

        assert strict_fuzzy_fraction(0.0) == 0.0
        assert strict_fuzzy_fraction(1.0) == 1.0
        mid = strict_fuzzy_fraction(0.5)
        assert 0.4 < mid < 0.6

    def test_char_without_homophone_left_unchanged(self, fuzzy, caplog):
        # single word whose chars have no confusable partner at all
        t = PinyinTable.from_pairs([("我", "wo3"), ("好", "hao3")])
        lex = lexicon_from_words([("我好", 1)], t, fuzzy)
        with caplog.at_level(logging.DEBUG, logger="hanfix.corpus"):
            pairs = generate_synthetic(lex, t, fuzzy, 30, (2, 6),
                                       NoiseSpec(1.0, 0.5, seed=3))
        for p in pairs:
            assert p.source == p.target
        assert any("no homophone" in r.getMessage() for r in caplog.records)

    def test_validation(self, toy, fuzzy):
        _, ptable, lex = toy
        with pytest.raises(ValueError):
            generate_synthetic(lex, ptable, fuzzy, 5, (0, 4), NoiseSpec(0.1))
        with pytest.raises(ValueError):
            generate_synthetic(lex, ptable, fuzzy, 5, (6, 4), NoiseSpec(0.1))
        with pytest.raises(ValueError, match="n_sentences"):
            generate_synthetic(lex, ptable, fuzzy, -2, (2, 4), NoiseSpec(0.1))
        with pytest.raises(ValueError):
            NoiseSpec(1.5)
        with pytest.raises(ValueError):
            NoiseSpec(0.1, -0.2)


class TestToyWorld:
    def test_inventory_structure(self, fuzzy):
        inv = make_toy_inventory(homophones=3, fuzzy=fuzzy)
        # 5 initial bases x 2 class members, 3 final bases x 2 class members,
        # 3 homophones each
        assert len(inv) == 5 * 2 * 3 * 2 * 3
        chars = [c for c, _ in inv]
        assert len(set(chars)) == len(chars)
        by_reading: dict[str, int] = {}
        for _, r in inv:
            assert parse_syllable(r) == r  # each a toneless reading
            by_reading[r] = by_reading.get(r, 0) + 1
        assert set(by_reading.values()) == {3}

    def test_inventory_deterministic(self, fuzzy):
        assert make_toy_inventory(3, fuzzy) == make_toy_inventory(3, fuzzy)

    def test_every_toy_char_has_both_pools(self, fuzzy):
        # the worlds used for benchmarks must let both corruption kinds fire
        inv = make_toy_inventory(homophones=3, fuzzy=fuzzy)
        ptable = PinyinTable.from_pairs(inv)
        for ch, (exact, near) in homophone_pools(ptable, fuzzy).items():
            assert len(exact) == 2, ch  # 3 homophones minus self
            assert len(near) == 9, ch  # 3 sibling syllables x 3 homophones

    def test_words_distinct_and_capped(self, fuzzy):
        inv = make_toy_inventory(homophones=3, fuzzy=fuzzy)
        words = make_toy_words(inv, n_words=200, word_len=2, seed=1,
                               fuzzy=fuzzy, bucket_cap=4)
        assert len(words) == 200
        surfaces = [w for w, _ in words]
        assert len(set(surfaces)) == 200
        reading = dict(inv)
        buckets: dict[tuple[str, str], int] = {}
        for w in surfaces:
            assert w[0] != w[1]
            k = (fuzzy_key(reading[w[0]], fuzzy), fuzzy_key(reading[w[1]], fuzzy))
            buckets[k] = buckets.get(k, 0) + 1
        assert max(buckets.values()) <= 4

    def test_words_deterministic(self, fuzzy):
        inv = make_toy_inventory(homophones=3, fuzzy=fuzzy)
        a = make_toy_words(inv, 50, seed=3, fuzzy=fuzzy)
        b = make_toy_words(inv, 50, seed=3, fuzzy=fuzzy)
        assert a == b

    def test_infeasible_request_raises(self, fuzzy):
        inv = make_toy_inventory(homophones=1, fuzzy=fuzzy)[:8]
        with pytest.raises(ValueError):
            make_toy_words(inv, n_words=500, word_len=2, seed=0, fuzzy=fuzzy,
                           bucket_cap=1)


class TestToyBenchmark:
    def test_shapes_and_determinism(self):
        b1 = make_toy_benchmark(n_words=60, n_train=25, n_test=10, seed=4)
        b2 = make_toy_benchmark(n_words=60, n_train=25, n_test=10, seed=4)
        assert len(b1.train_pairs) == 25 and len(b1.test_pairs) == 10
        assert len(b1.lexicon) == 60
        assert b1.train_pairs == b2.train_pairs
        assert b1.test_pairs == b2.test_pairs

    def test_train_and_test_noise_differ(self):
        b = make_toy_benchmark(n_words=60, n_train=20, n_test=20, seed=4)
        assert [p.source for p in b.train_pairs[:20]] != [
            p.source for p in b.test_pairs]

    def test_holdout_splits_confusors(self):
        b = make_toy_benchmark(n_words=60, n_train=40, n_test=40, seed=2,
                               homophones=3, holdout_confusors=True)

        def replacements(pairs):
            out = set()
            for p in pairs:
                for s, t in zip(p.source, p.target):
                    if s != t:
                        out.add(s)
            return out

        train_repl = replacements(b.train_pairs)
        test_repl = replacements(b.test_pairs)
        assert train_repl and test_repl
        assert not (train_repl & test_repl)

    def test_holdout_needs_homophones(self):
        with pytest.raises(ValueError, match="homophones"):
            make_toy_benchmark(n_words=20, n_train=5, n_test=5,
                               homophones=1, holdout_confusors=True)
