import json
import re
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hanfix.desm as desm
from hanfix.desm import (
    WORD_ID_OFFSET,
    WORD_PAD_ID,
    CharWordLattice,
    Direction,
    MatchCandidate,
    Provenance,
    build_lattice,
    featurize_sentences,
    lattice_records,
    lattice_to_feature_ids,
    sentence_features,
)
from hanfix.corpus import NoiseSpec, generate_synthetic, make_toy_inventory, make_toy_words
from hanfix.data import demo_fuzzy_path, demo_pinyin_path, demo_words_path
from hanfix.lexicon import RANK_BITS, RANK_MASK, Lexicon, build_lexicon, lexicon_from_words
from hanfix.pinyin import (
    FuzzyClassTable,
    PinyinTable,
    parse_syllable,
    syllables_equivalent,
)

PAIRS = [
    ("我", "wo3"), ("参", "can1"), ("参", "shen1"), ("加", "jia1"),
    ("家", "jia1"), ("禅", "chan2"), ("禅", "shan4"), ("会", "hui4"),
    ("会", "kuai4"), ("议", "yi4"), ("计", "ji4"), ("好", "hao3"),
    ("很", "hen3"), ("恨", "hen4"), ("哼", "heng1"),
]

WORDS = [
    ("参加", 80), ("禅家", 5), ("会议", 60), ("会计", 15),
    ("参", 10), ("家", 20), ("很好", 30),
]


@pytest.fixture(scope="module")
def ptable():
    return PinyinTable.from_pairs(PAIRS)


@pytest.fixture(scope="module")
def fuzzy():
    return FuzzyClassTable.default()


@pytest.fixture(scope="module")
def lex(ptable, fuzzy):
    return lexicon_from_words(WORDS, ptable, fuzzy)


def suspects(lex, ptable, fuzzy, sentence):
    return build_lattice(lex, ptable, fuzzy, sentence).suspect


def occurrences(lex, sentence):
    """(start, end, word_id), end inclusive, wherever a lexicon surface
    occurs; found with str.find, not with the trie."""
    for e in lex.entries:
        start = sentence.find(e.surface)
        while start >= 0:
            yield start, start + len(e.surface) - 1, e.word_id
            start = sentence.find(e.surface, start + 1)


def scan_suspects(lex, sentence):
    covered = [False] * len(sentence)
    for start, end, _ in occurrences(lex, sentence):
        if end > start:
            for i in range(start, end + 1):
                covered[i] = True
    return [not c for c in covered]


class TestSuspects:
    def test_broken_word_is_suspect(self, lex, ptable, fuzzy):
        # 参家 is 参加 with its second char swapped for a homophone, so no
        # multi-char word covers positions 1-2; 会议 keeps 3-4 covered
        flags = suspects(lex, ptable, fuzzy, "我参家会议")
        assert flags == [True, True, True, False, False]

    def test_clean_sentence(self, lex, ptable, fuzzy):
        assert suspects(lex, ptable, fuzzy, "参加会议") == [False] * 4

    def test_single_char_word_does_not_cover(self, lex, ptable, fuzzy):
        # 参 alone matches the 1-char entry but stays suspect
        assert suspects(lex, ptable, fuzzy, "参") == [True]

    def test_empty(self, lex, ptable, fuzzy):
        assert suspects(lex, ptable, fuzzy, "") == []


class TestLattice:
    def test_canonical_example(self, lex, ptable, fuzzy):
        lat = build_lattice(lex, ptable, fuzzy, "我参家会议", m_max=5)
        by_word = {
            lex.surfaces[c.word_id]: c for c in lat.per_char[1]
        }
        # the trie still sees the 1-char word 参
        assert by_word["参"].provenance == Provenance.EXACT
        # 参家 sounds exactly like 参加 (can jia), so the probe recovers it
        assert by_word["参加"].provenance == Provenance.PINYIN_EXACT
        assert by_word["参加"].direction == Direction.FORWARD
        assert by_word["参加"].span == (1, 2)
        # 禅家 only matches through the c/ch fuzzy class
        assert by_word["禅家"].provenance == Provenance.PINYIN_FUZZY
        # the same candidates attach to the window's second character
        w2 = {lex.surfaces[c.word_id] for c in lat.per_char[2]}
        assert {"参加", "禅家", "家"} <= w2

    def test_exact_ranks_before_pinyin(self, lex, ptable, fuzzy):
        lat = build_lattice(lex, ptable, fuzzy, "我参家会议", m_max=5)
        provs = [c.provenance for c in lat.per_char[1]]
        assert provs == sorted(provs, key=lambda p: ["EXACT", "PINYIN_EXACT",
                                                     "PINYIN_FUZZY"].index(p.value))

    def test_no_probe_on_clean_text(self, lex, ptable, fuzzy):
        # all positions covered -> candidate lists hold exact matches only
        lat = build_lattice(lex, ptable, fuzzy, "参加会议", m_max=5)
        for cands in lat.per_char:
            assert all(c.provenance == Provenance.EXACT for c in cands)

    def test_ttm_mode_drops_pinyin(self, lex, ptable, fuzzy):
        lat = build_lattice(lex, ptable, fuzzy, "我参家会议", m_max=5,
                            include_pinyin=False)
        words1 = {lex.surfaces[c.word_id] for c in lat.per_char[1]}
        assert words1 == {"参"}

    def test_truncation(self, lex, ptable, fuzzy):
        lat = build_lattice(lex, ptable, fuzzy, "我参家会议", m_max=1)
        for cands in lat.per_char:
            assert len(cands) <= 1
        # the single kept candidate at position 1 is the best-ranked one
        assert lex.surfaces[lat.per_char[1][0].word_id] == "参"

    @pytest.mark.parametrize("m_max", [0, 2.0, True, "3", desm.M_MAX_LIMIT + 1, 10 ** 12])
    def test_m_max_validation(self, lex, ptable, fuzzy, m_max):
        with pytest.raises(ValueError, match="m_max must be"):
            build_lattice(lex, ptable, fuzzy, "我", m_max=m_max)

    def test_dedupe_keeps_best_provenance(self, lex, ptable, fuzzy):
        # 会计 written correctly: EXACT via trie; the backward probe from a
        # suspect neighbor could re-add it as PINYIN_*, but dedupe keeps EXACT
        lat = build_lattice(lex, ptable, fuzzy, "参会计", m_max=5)
        for cands in lat.per_char:
            seen = {}
            for c in cands:
                assert c.word_id not in seen
                seen[c.word_id] = c
        kuaiji = [c for c in lat.per_char[1]
                  if lex.surfaces[c.word_id] == "会计"]
        assert kuaiji and kuaiji[0].provenance == Provenance.EXACT

    def test_each_window_probed_once(self, ptable, fuzzy, monkeypatch):
        # a lexicon of its own: the module's one arrives with window hits
        # remembered from earlier tests
        lex = lexicon_from_words(WORDS, ptable, fuzzy)
        calls = Counter()
        lookup = Lexicon.pinyin_2gram_lookup

        def counted(self, a, b, fz):
            calls[(a, b)] += 1
            return lookup(self, a, b, fz)

        def reading_pairs(sentence, windows):
            return Counter((a, b) for lo in windows
                           for a in ptable.get(sentence[lo])
                           for b in ptable.get(sentence[lo + 1]))

        monkeypatch.setattr(Lexicon, "pinyin_2gram_lookup", counted)
        # no multi-char word covers any position, so every window has two
        # suspect ends; 参, 禅 and 会 have two readings each
        sentence = "参家禅会"
        lat = build_lattice(lex, ptable, fuzzy, sentence, m_max=50)
        assert lat.suspect == [True] * 4
        assert calls == reading_pairs(sentence, range(3))
        pinyin = [c for cands in lat.per_char for c in cands
                  if c.provenance != Provenance.EXACT]
        assert pinyin
        assert {c.direction for c in pinyin} == {Direction.FORWARD}
        # the lexicon remembers each window's hits: a second build looks up nothing
        calls.clear()
        assert build_lattice(lex, ptable, fuzzy, sentence, m_max=50) == lat
        assert not calls
        # a window whose pair of reading sets came before is not looked up again
        lex = lexicon_from_words(WORDS, ptable, fuzzy)
        build_lattice(lex, ptable, fuzzy, "参家参家", m_max=50)
        assert calls == reading_pairs("参家参家", range(2))

    def test_unreadable_char_contributes_nothing(self, lex, ptable, fuzzy):
        # X has no readings: suspect, but probes touching it return nothing
        lat = build_lattice(lex, ptable, fuzzy, "X参家", m_max=5)
        assert lat.suspect[0]
        assert all(c.provenance != Provenance.PINYIN_FUZZY or
                   lex.surfaces[c.word_id] != "X" for c in lat.per_char[0])

    def test_brute_force_oracle(self, lex, ptable, fuzzy):
        # independent reconstruction of the pinyin candidates at suspect
        # positions for a handful of sentences
        sentences = ["我参家会议", "参加会议", "很好我", "哼好参家",
                     "我我我", "禅家会计"]
        for s in sentences:
            lat = build_lattice(lex, ptable, fuzzy, s, m_max=50)
            flags = scan_suspects(lex, s)
            assert lat.suspect == flags, s
            ttm = build_lattice(lex, ptable, fuzzy, s, include_pinyin=False)
            assert ttm.suspect == flags, s
            expect: list[set] = [set() for _ in s]
            for start, end, wid in occurrences(lex, s):
                for i in range(start, end + 1):
                    expect[i].add(wid)
            for i, susp in enumerate(flags):
                if not susp:
                    continue
                for lo, hi in ((i, i + 1), (i - 1, i)):
                    if lo < 0 or hi >= len(s):
                        continue
                    for e in lex.entries:
                        if len(e.surface) != 2:
                            continue
                        ok_a = any(
                            syllables_equivalent(x, parse_syllable(r), fuzzy)
                            for x in ptable.get(s[lo]) for r in e.readings[0]
                        )
                        ok_b = any(
                            syllables_equivalent(x, parse_syllable(r), fuzzy)
                            for x in ptable.get(s[hi]) for r in e.readings[1]
                        )
                        if ok_a and ok_b:
                            expect[lo].add(e.word_id)
                            expect[hi].add(e.word_id)
            got = [{c.word_id for c in cands} for cands in lat.per_char]
            assert got == expect, s


# ------------------------------------------ the lattice before window hits
# build_lattice as it probed every window afresh and fed every hit into the
# lattice: the reference the build from remembered, truncated hits must equal.


def reference_lattice(lex, ptable, fuzzy, sentence, m_max, include_pinyin=True):
    """(per_char, suspect) of sentence."""
    n = len(sentence)
    rank = lex.rank
    best = [{} for _ in range(n)]
    suspects = [True] * n
    for start, end, wid in lex.trie_match_all(sentence):
        key = (0, rank[wid], 0, (start, end), wid)
        for i in range(start, end + 1):
            best[i].setdefault(wid, key)
            if end > start:
                suspects[i] = False
    char_syllables = [ptable.get(ch) for ch in sentence]
    char_readings = ptable.toneless_sets(sentence)
    entries = lex.entries
    for lo in range(n - 1 if include_pinyin else 0):
        hi = lo + 1
        if suspects[lo]:
            direction = 1
        elif suspects[hi]:
            direction = 2
        else:
            continue
        span = (lo, hi)
        ra, rb = char_readings[lo], char_readings[hi]
        at_lo, at_hi = best[lo], best[hi]
        for sa in char_syllables[lo]:
            for sb in char_syllables[hi]:
                for wid in lex.pinyin_2gram_lookup(sa, sb, fuzzy):
                    readings = entries[wid].readings
                    exact = not (ra.isdisjoint(readings[0]) or rb.isdisjoint(readings[1]))
                    key = (1 if exact else 2, rank[wid], direction, span, wid)
                    old = at_lo.get(wid)
                    if old is None or key < old:
                        at_lo[wid] = key
                    at_hi.setdefault(wid, key)
    per_char = [[MatchCandidate(wid, span, desm._PROVENANCES[prov], desm._DIRECTIONS[d])
                 for prov, _, d, span, wid in sorted(words.values())[:m_max]]
                for words in best]
    return per_char, suspects


# every character of PAIRS and one without readings
ALPHABET = "".join(dict.fromkeys(ch for ch, _ in PAIRS)) + "X"


def window_hits(lex, ptable, fuzzy, a, b):
    """The ranked lattice keys of the window `a` `b`, untruncated."""
    return lex.probe_windows(ptable, fuzzy, a + b, [True, True], len(lex))[0][0]


def built(lex, ptable, fuzzy, sentence, m_max):
    lat = build_lattice(lex, ptable, fuzzy, sentence, m_max=m_max)
    return lat.per_char, lat.suspect


class TestWindowHits:
    @given(st.text(alphabet=ALPHABET, max_size=12), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, lex, ptable, fuzzy, sentence, m_max):
        want = reference_lattice(lex, ptable, fuzzy, sentence, m_max)
        cold = lexicon_from_words(WORDS, ptable, fuzzy)
        assert built(cold, ptable, fuzzy, sentence, m_max) == want
        assert built(cold, ptable, fuzzy, sentence, m_max) == want
        # the module's lexicon has remembered hits for other m_max and sentences
        assert built(lex, ptable, fuzzy, sentence, m_max) == want

    def test_hits_are_ranked_and_unique(self, lex, ptable, fuzzy):
        rank, order = lex.rank, lex.order
        hits = window_hits(lex, ptable, fuzzy, "参", "家")
        assert hits == tuple(sorted(hits))
        assert len({key & RANK_MASK for key in hits}) == len(hits)
        # each key is its word's provenance over its rank
        assert set(hits) == {1 << RANK_BITS | rank[lex.surfaces.index("参加")],
                             2 << RANK_BITS | rank[lex.surfaces.index("禅家")]}
        assert {(lex.surfaces[order[key & RANK_MASK]], key >> RANK_BITS) for key in hits} == {
            ("参加", 1), ("禅家", 2)}
        # 家 and 加 share their one reading, so their windows share hits
        assert window_hits(lex, ptable, fuzzy, "参", "加") is hits
        assert window_hits(lex, ptable, fuzzy, "X", "家") == ()

    def test_one_lexicon_two_fuzzy_tables(self, ptable):
        tables = [FuzzyClassTable.default(), FuzzyClassTable(())]
        lex = lexicon_from_words(WORDS, ptable, tables[0])
        sentences = ["我参家会议", "禅家会计", "参家禅会", "X参家"]
        got = [[built(lex, ptable, tables[k], s, 3) for s in sentences] for k in (0, 1, 0, 1)]
        for k, per_table in zip((0, 1, 0, 1), got):
            fresh = lexicon_from_words(WORDS, ptable, tables[k])
            assert per_table == [built(fresh, ptable, tables[k], s, 3) for s in sentences]
        # without the c/ch class, 禅家 no longer sounds like 参家
        assert got[0] != got[1]

    def test_one_lexicon_two_pinyin_tables(self, ptable, fuzzy):
        # the second table reads 参 as cen only, which sounds like no word's can
        other = PinyinTable.from_pairs([(ch, "cen1") if ch == "参" else (ch, r)
                                        for ch, r in PAIRS])
        lex = lexicon_from_words(WORDS, ptable, fuzzy)
        sentences = ["我参家会议", "参家禅会", "参会计好"]
        for table in (ptable, other, ptable, other):
            fresh = lexicon_from_words(WORDS, ptable, fuzzy)
            assert ([built(lex, table, fuzzy, s, 5) for s in sentences]
                    == [built(fresh, table, fuzzy, s, 5) for s in sentences])
        assert built(lex, ptable, fuzzy, "参家", 5) != built(lex, other, fuzzy, "参家", 5)


# ------------------------------------------ a dense lexicon and the merge
# correct_batch's shape: up to 16 words per fuzzy 2-gram bucket, so candidate
# lists overflow m_max 8, and sentences built from words plus stray
# characters, so positions meet exact matches and both windows at once

DENSE_FUZZY = FuzzyClassTable.default()
DENSE_INVENTORY = make_toy_inventory(fuzzy=DENSE_FUZZY)
DENSE_PTABLE = PinyinTable.from_pairs(DENSE_INVENTORY)
DENSE_LEX = lexicon_from_words(
    make_toy_words(DENSE_INVENTORY, n_words=2000, word_len=2, seed=3, fuzzy=DENSE_FUZZY,
                   bucket_cap=16),
    DENSE_PTABLE, DENSE_FUZZY)
DENSE_CHUNKS = st.one_of(st.sampled_from([e.surface for e in DENSE_LEX.entries]),
                         st.sampled_from(sorted({ch for ch, _ in DENSE_INVENTORY}) + ["X"]))

# duplicates the merge must drop: 家嘉 and 嘉嘉 sound like both windows of
# 家家家's middle; 参禅 sounds like 参参 (fuzzy) and 参蝉 (literally); 参禅 is
# exact in 参参禅 and 参禅禅 and sounds like the window beside it; 嘉嘉
# covers the middle of 嘉嘉嘉 twice
HAND_PAIRS = [("参", "can1"), ("参", "shen1"), ("禅", "chan2"), ("禅", "shan4"),
              ("蝉", "chan2"), ("家", "jia1"), ("嘉", "jia1")]
HAND_WORDS = [("参禅", 5), ("家嘉", 3), ("嘉嘉", 2)]


def reference_ids(per_char, m_max):
    ids = np.full((len(per_char), m_max), WORD_PAD_ID, dtype=np.int64)
    for i, cands in enumerate(per_char):
        for j, c in enumerate(cands[:m_max]):
            ids[i, j] = c.word_id + WORD_ID_OFFSET
    return ids


def assert_equals_reference(lex, ptable, fuzzy, sentence, m_max):
    want = reference_lattice(lex, ptable, fuzzy, sentence, m_max)
    lat = build_lattice(lex, ptable, fuzzy, sentence, m_max=m_max)
    ids, mask = lattice_to_feature_ids(lat)
    assert (lat.per_char, lat.suspect) == want
    assert (ids == reference_ids(want[0], m_max)).all()
    assert (mask == (ids != WORD_PAD_ID)).all()
    # reading per_char leaves the keys to featurization
    assert (lattice_to_feature_ids(lat)[0] == ids).all()
    return lat


class TestDenseLattice:
    def test_lists_overflow(self):
        # first characters of words: mostly suspect, so every window is probed
        sentence = "".join(e.surface[0] for e in DENSE_LEX.entries[:24])
        lat = build_lattice(DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY, sentence, m_max=8)
        assert sum(len(c) == 8 for c in lat.per_char) >= len(sentence) // 2

    @given(st.lists(DENSE_CHUNKS, max_size=10), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, chunks, m_max):
        assert_equals_reference(DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY, "".join(chunks), m_max)

    @pytest.mark.parametrize("sentence, word, cand", [
        ("家家家", "家嘉", (Provenance.PINYIN_EXACT, Direction.FORWARD, (0, 1))),
        ("参参蝉", "参禅", (Provenance.PINYIN_EXACT, Direction.FORWARD, (1, 2))),
        ("参参禅", "参禅", (Provenance.EXACT, Direction.NONE, (1, 2))),
        ("参禅禅", "参禅", (Provenance.EXACT, Direction.NONE, (0, 1))),
        ("嘉嘉嘉", "嘉嘉", (Provenance.EXACT, Direction.NONE, (0, 1))),
    ], ids=["both-windows", "both-windows-other-provenance", "exact-and-left-window",
            "exact-and-right-window", "exact-twice"])
    def test_duplicate_sources_merge(self, sentence, word, cand):
        ptable = PinyinTable.from_pairs(HAND_PAIRS)
        lex = lexicon_from_words(HAND_WORDS, ptable, DENSE_FUZZY)
        wid = lex.surfaces.index(word)
        # the word reaches the middle position twice
        proposals = [key for lo in (0, 1)
                     for key in window_hits(lex, ptable, DENSE_FUZZY, sentence[lo], sentence[lo + 1])
                     if lex.order[key & RANK_MASK] == wid]
        proposals += [m for m in lex.trie_match_all(sentence) if m[2] == wid]
        assert len(proposals) >= 2
        for m_max in range(1, 10):
            lat = assert_equals_reference(lex, ptable, DENSE_FUZZY, sentence, m_max)
            mine = [c for c in lat.per_char[1] if c.word_id == wid]
            if m_max >= len(lex):
                assert [(c.provenance, c.direction, c.span) for c in mine] == [cand]
            assert len(mine) <= 1


class TestFeatures:
    def test_shapes_and_offset(self, lex, ptable, fuzzy):
        lat = build_lattice(lex, ptable, fuzzy, "我参家会议", m_max=4)
        ids, mask = lattice_to_feature_ids(lat)
        assert ids.shape == (5, 4) and mask.shape == (5, 4)
        assert ids.dtype == np.int64
        for i, cands in enumerate(lat.per_char):
            for j, c in enumerate(cands):
                assert ids[i, j] == c.word_id + WORD_ID_OFFSET
                assert mask[i, j] == 1.0
            assert (ids[i, len(cands):] == WORD_PAD_ID).all()
            assert (mask[i, len(cands):] == 0.0).all()

    def test_mode_none_is_empty(self, lex, ptable, fuzzy):
        ids, mask = sentence_features("我参家", lex, ptable, fuzzy, 3, "none")
        assert (ids == WORD_PAD_ID).all()
        assert (mask == 0.0).all()

    def test_mode_validation(self, lex, ptable, fuzzy):
        with pytest.raises(ValueError):
            sentence_features("我", lex, ptable, fuzzy, 3, "DESM")

    def test_mode_none_rejects_m_max_zero(self, lex, ptable, fuzzy):
        with pytest.raises(ValueError, match="m_max must be positive, got 0"):
            sentence_features("我参家", lex, ptable, fuzzy, 0, "none")

    @pytest.mark.parametrize("m_max", [-2, 2.0, True, "3"])
    def test_negative_m_max_is_the_modules_error(self, lex, ptable, fuzzy, m_max):
        kind = "positive" if type(m_max) is int else "an int"
        message = re.escape(f"m_max must be {kind}, got {m_max!r}")
        for mode in desm.LATTICE_MODES:
            with pytest.raises(ValueError, match=message):
                sentence_features("我参家", lex, ptable, fuzzy, m_max, mode)
            with pytest.raises(ValueError, match=message):
                featurize_sentences(["我参家"], lex, ptable, fuzzy, m_max, mode)

    def test_featurize_checks_arguments_without_sentences(self, lex, ptable, fuzzy):
        with pytest.raises(ValueError, match="lattice mode must be one of"):
            featurize_sentences([], lex, ptable, fuzzy, 3, mode="bogus")
        with pytest.raises(ValueError, match="m_max must be positive"):
            featurize_sentences([], lex, ptable, fuzzy, 0)

    def test_ttm_subset_of_desm(self, lex, ptable, fuzzy):
        # every ttm candidate survives in desm mode (big m_max, no truncation)
        for s in ["我参家会议", "参会计好", "很好"]:
            ids_t, mask_t = sentence_features(s, lex, ptable, fuzzy, 50, "ttm")
            ids_d, mask_d = sentence_features(s, lex, ptable, fuzzy, 50, "desm")
            for i in range(len(s)):
                t = set(ids_t[i][mask_t[i] > 0].tolist())
                d = set(ids_d[i][mask_d[i] > 0].tolist())
                assert t <= d

    def test_empty_sentence(self, lex, ptable, fuzzy):
        ids, mask = lattice_to_feature_ids(build_lattice(lex, ptable, fuzzy, "", m_max=4))
        assert ids.shape == mask.shape == (0, 4)
        assert ids.dtype == np.int64 and mask.dtype == np.float64

    def test_truncates_a_longer_lattice(self, lex, ptable, fuzzy):
        # a lattice is truncated where it is built: the features of a build
        # at 2 are the first two candidates of a build at 8
        lat = build_lattice(lex, ptable, fuzzy, "我参家会议", m_max=8)
        assert max(len(c) for c in lat.per_char) == 3
        ids, mask = lattice_to_feature_ids(build_lattice(lex, ptable, fuzzy, "我参家会议",
                                                         m_max=2))
        assert ids.shape == mask.shape == (5, 2)
        for i, cands in enumerate(lat.per_char):
            k = min(len(cands), 2)
            assert ids[i, :k].tolist() == [c.word_id + WORD_ID_OFFSET for c in cands[:k]]
            assert (ids[i, k:] == WORD_PAD_ID).all()
            assert mask[i].tolist() == [1.0] * k + [0.0] * (2 - k)

    def test_pads_a_shorter_lattice(self, lex, ptable, fuzzy):
        # rows of at most 3 keys, built at 5 slots: the slots past 3 are pads
        lat = build_lattice(lex, ptable, fuzzy, "我参家会议", m_max=5)
        ids, mask = lattice_to_feature_ids(lat)
        assert max(len(c) for c in lat.per_char) == 3
        assert (ids == reference_ids(lat.per_char, 5)).all()
        assert (mask == (ids != WORD_PAD_ID)).all() and not mask[:, 3:].any()

    def test_wide_rows_take_memory_linear_in_m_max(self):
        # the bundled tables and lexicon; the index and window memo are
        # built by the narrow call, so the traced one builds a lattice only
        ptable = PinyinTable.from_file(demo_pinyin_path())
        fuzzy = FuzzyClassTable.from_file(demo_fuzzy_path())
        lex = build_lexicon(demo_words_path(), ptable, fuzzy)
        narrow_ids, narrow_mask = sentence_features("参家会义", lex, ptable, fuzzy, 64)
        assert narrow_mask.any() and not narrow_mask[:, -1].any()
        tracemalloc.start()
        try:
            ids, mask = sentence_features("参家会义", lex, ptable, fuzzy, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak
        assert (ids[:, :64] == narrow_ids).all() and (ids[:, 64:] == WORD_PAD_ID).all()
        assert (mask[:, :64] == narrow_mask).all() and not mask[:, 64:].any()

    def test_featurization_builds_no_candidates(self, lex, ptable, fuzzy, monkeypatch):
        built = Counter()

        def counted(*args):
            built["n"] += 1
            return MatchCandidate(*args)

        monkeypatch.setattr(desm, "MatchCandidate", counted)
        sentences = ["我参家会议", "参会计好", "禅家会计", "很好我"]
        for mode in ("desm", "ttm"):
            featurize_sentences(sentences, lex, ptable, fuzzy, 8, mode)
        assert built["n"] == 0
        lat = build_lattice(lex, ptable, fuzzy, "我参家会议", m_max=8)
        ids = lattice_to_feature_ids(lat)[0]
        assert built["n"] == 0
        assert lat.per_char[1] and built["n"] > 0
        # once per_char is read, featurization still reads the keys: the
        # same ids, and no candidate built
        made = built["n"]
        assert (lattice_to_feature_ids(lat)[0] == ids).all()
        assert built["n"] == made

    def test_lattice_api(self, lex, ptable, fuzzy):
        # per_char is built once, and the ends of a span share one candidate
        lat = build_lattice(lex, ptable, fuzzy, "参家", m_max=3)
        assert lat.per_char is lat.per_char
        assert lat.per_char[0][1] is lat.per_char[1][1]
        # CharWordLattice(sentence, per_char, suspect) is public: readers see
        # its lists, and a candidate appended to one of them
        hand = CharWordLattice("参家", [list(c) for c in lat.per_char], list(lat.suspect))
        assert hand == lat and len(hand) == 2
        assert lattice_records(hand, lex) == lattice_records(lat, lex)
        # it holds candidates, not the keys featurization reads
        with pytest.raises(ValueError, match="made by build_lattice"):
            lattice_to_feature_ids(hand)
        extra = MatchCandidate(lex.surfaces.index("会议"), (0, 0), Provenance.PINYIN_FUZZY,
                               Direction.FORWARD)
        hand.per_char[0].append(extra)
        assert hand.per_char[0][-1] is extra
        assert lattice_records(hand, lex)[0]["candidates"][-1] == {
            "word": "会议", "span": [0, 0], "provenance": "PINYIN_FUZZY",
            "direction": "FORWARD"}
        assert hand != lat
        # suspect defaults to an empty list, as it did on the dataclass
        assert CharWordLattice("", []).suspect == []

    def test_records_shape(self, lex, ptable, fuzzy):
        lat = build_lattice(lex, ptable, fuzzy, "参家", m_max=3)
        recs = lattice_records(lat, lex)
        assert [r["char"] for r in recs] == ["参", "家"]
        assert all(
            set(c) == {"word", "span", "provenance", "direction"}
            for r in recs for c in r["candidates"]
        )


class TestMatchCandidate:
    def test_positional_construction_and_default_direction(self):
        c = MatchCandidate(3, (1, 2), Provenance.PINYIN_FUZZY)
        assert (c.word_id, c.span, c.provenance, c.direction) == (
            3, (1, 2), Provenance.PINYIN_FUZZY, Direction.NONE)
        d = MatchCandidate(word_id=3, span=(1, 2), provenance=Provenance.PINYIN_FUZZY,
                           direction=Direction.BACKWARD)
        assert d.direction is Direction.BACKWARD

    def test_immutable(self):
        c = MatchCandidate(3, (1, 2), Provenance.EXACT)
        with pytest.raises(AttributeError):
            c.word_id = 4

    def test_equal_candidates_hash_equal(self):
        a = MatchCandidate(3, (1, 2), Provenance.EXACT, Direction.FORWARD)
        b = MatchCandidate(3, (1, 2), Provenance.EXACT, Direction.FORWARD)
        assert a == b and hash(a) == hash(b)
        assert a != MatchCandidate(3, (1, 2), Provenance.EXACT, Direction.BACKWARD)
        assert len({a, b}) == 1

    def test_records_json_is_pinned(self, lex, ptable, fuzzy):
        lat = build_lattice(lex, ptable, fuzzy, "我参家会议", m_max=3)
        got = json.dumps(lattice_records(lat, lex), ensure_ascii=False, separators=(",", ":"))
        assert got == (
            '[{"pos":0,"char":"我","suspect":true,"candidates":[]},'
            '{"pos":1,"char":"参","suspect":true,"candidates":['
            '{"word":"参","span":[1,1],"provenance":"EXACT","direction":"NONE"},'
            '{"word":"参加","span":[1,2],"provenance":"PINYIN_EXACT","direction":"FORWARD"},'
            '{"word":"禅家","span":[1,2],"provenance":"PINYIN_FUZZY","direction":"FORWARD"}]},'
            '{"pos":2,"char":"家","suspect":true,"candidates":['
            '{"word":"家","span":[2,2],"provenance":"EXACT","direction":"NONE"},'
            '{"word":"参加","span":[1,2],"provenance":"PINYIN_EXACT","direction":"FORWARD"},'
            '{"word":"禅家","span":[1,2],"provenance":"PINYIN_FUZZY","direction":"FORWARD"}]},'
            '{"pos":3,"char":"会","suspect":false,"candidates":['
            '{"word":"会议","span":[3,4],"provenance":"EXACT","direction":"NONE"}]},'
            '{"pos":4,"char":"议","suspect":false,"candidates":['
            '{"word":"会议","span":[3,4],"provenance":"EXACT","direction":"NONE"}]}]'
        )


# ------------------------------------------ featurize_sentences end to end
# many sentences per call, as correct_batch featurizes them, against the
# reference lattice's ids sentence by sentence


def reference_features(lex, ptable, fuzzy, sentence, m_max, mode):
    if mode == "none":
        ids = np.full((len(sentence), m_max), WORD_PAD_ID, dtype=np.int64)
    else:
        per_char, _ = reference_lattice(lex, ptable, fuzzy, sentence, m_max,
                                        include_pinyin=(mode == "desm"))
        ids = reference_ids(per_char, m_max)
    return ids, (ids != WORD_PAD_ID).astype(np.float64)


def assert_featurized_as_reference(lex, ptable, fuzzy, sentences, m_max):
    for mode in desm.LATTICE_MODES:
        got = featurize_sentences(sentences, lex, ptable, fuzzy, m_max, mode)
        assert len(got) == len(sentences)
        for sentence, (ids, mask) in zip(sentences, got):
            want_ids, want_mask = reference_features(lex, ptable, fuzzy, sentence, m_max, mode)
            assert ids.dtype == np.int64 and mask.dtype == np.float64
            assert np.array_equal(ids, want_ids), (mode, sentence)
            assert np.array_equal(mask, want_mask), (mode, sentence)


DENSE_SENTENCES = st.lists(st.lists(DENSE_CHUNKS, max_size=10).map("".join), max_size=6)


class TestFeaturizeSentences:
    @given(DENSE_SENTENCES, st.integers(1, 9))
    @settings(max_examples=150, deadline=None)
    def test_dense_world_equals_reference(self, sentences, m_max):
        assert_featurized_as_reference(DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY, sentences, m_max)

    @given(st.lists(st.text(alphabet=ALPHABET, max_size=12), max_size=6), st.integers(1, 9))
    @settings(max_examples=150, deadline=None)
    def test_toy_world_equals_reference(self, lex, ptable, fuzzy, sentences, m_max):
        assert_featurized_as_reference(lex, ptable, fuzzy, sentences, m_max)

    def test_duplicate_sources_in_one_call(self):
        ptable = PinyinTable.from_pairs(HAND_PAIRS)
        lex = lexicon_from_words(HAND_WORDS, ptable, DENSE_FUZZY)
        sentences = ["家家家", "参参蝉", "参参禅", "参禅禅", "嘉嘉嘉"]
        for m_max in range(1, 10):
            assert_featurized_as_reference(lex, ptable, DENSE_FUZZY, sentences, m_max)

    def test_unreadable_repeated_and_empty_sentences(self, lex, ptable, fuzzy):
        sentences = ["X参家", "我参家会议", "", "X参家", "XX", "我参家会议", ""]
        for m_max in (1, 3, 8):
            assert_featurized_as_reference(lex, ptable, fuzzy, sentences, m_max)
            got = featurize_sentences(sentences, lex, ptable, fuzzy, m_max)
            assert got[2][0].shape == (0, m_max)

    def test_one_reading_lookup_per_character_and_one_slot_read(self, monkeypatch):
        # a fresh lexicon, so windows are computed as well as remembered
        lex = lexicon_from_words(
            [(e.surface, e.frequency) for e in DENSE_LEX.entries], DENSE_PTABLE, DENSE_FUZZY)
        calls = Counter()
        table_entry = Lexicon._table_entry
        toneless_sets, lookup = PinyinTable.toneless_sets, Lexicon.pinyin_2gram_lookup

        def counted_sets(self, text):
            calls.update(text)
            return toneless_sets(self, text)

        def counted_entry(self, fz):
            calls["slot"] += 1
            return table_entry(self, fz)

        def counted_lookup(self, a, b, fz):
            calls["lookup"] += 1
            return lookup(self, a, b, fz)

        monkeypatch.setattr(PinyinTable, "toneless_sets", counted_sets)
        monkeypatch.setattr(Lexicon, "_table_entry", counted_entry)
        monkeypatch.setattr(Lexicon, "pinyin_2gram_lookup", counted_lookup)
        # each character appears once, and most windows are probed
        sentence = "".join(dict.fromkeys(e.surface[0] for e in DENSE_LEX.entries[:40]))
        for cold in (True, False):  # computing the windows' hits, then remembering them
            calls.clear()
            lat = build_lattice(lex, DENSE_PTABLE, DENSE_FUZZY, sentence, m_max=8)
            assert sum(lat.suspect) > len(sentence) // 2
            assert {ch: calls[ch] for ch in sentence} == dict.fromkeys(sentence, 1)
            # a window computed for the memo reads the table's entry only
            # through pinyin_2gram_lookup
            assert (calls["lookup"] > 0) == cold
            assert calls["slot"] == 1 + calls["lookup"]


def dense_corpus(n, seed):
    return [p.source for p in generate_synthetic(
        DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY, n, (24, 60), NoiseSpec(0.3, 0.5, seed=seed),
        filler_rate=0.2)]


def lattice_features(sentence, m_max, mode, world=(DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY)):
    """The features of one lattice built alone, as the model reads them."""
    if mode == "none":
        return (np.full((len(sentence), m_max), WORD_PAD_ID, dtype=np.int64),
                np.zeros((len(sentence), m_max)))
    return lattice_to_feature_ids(build_lattice(*world, sentence, m_max=m_max,
                                                include_pinyin=mode == "desm"))


class TestChunkedFeaturization:
    """featurize_sentences builds and converts one lattice per chunk of
    sentences, with the features of converting each sentence's lattice
    alone."""

    @pytest.mark.parametrize("mode", desm.LATTICE_MODES)
    def test_equals_one_lattice_at_a_time(self, monkeypatch, mode):
        # over three chunks, with empty and one-character sentences at the
        # start, the end and among the others
        sentences = dense_corpus(120, seed=3)
        for at in (0, 7, 40, 41, 90, len(sentences)):
            sentences.insert(at, "" if at % 2 else sentences[at][0])
        sentences.append("")
        calls = []

        def spy(lat):
            calls.append(lat.sentence)
            return lattice_to_feature_ids(lat)

        monkeypatch.setattr(desm, "lattice_to_feature_ids", spy)
        got = featurize_sentences(sentences, DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY, 8, mode)
        assert len(got) == len(sentences)
        for s, (ids, mask) in zip(sentences, got):
            want_ids, want_mask = lattice_features(s, 8, mode)
            assert ids.dtype == np.int64 and mask.dtype == np.float64
            assert np.array_equal(ids, want_ids) and np.array_equal(mask, want_mask), s
        if mode != "none":
            # one lattice per call, over consecutive sentences, each within
            # _FEATURIZE_CHARS
            assert len(calls) > 2
            assert "".join(calls) == "".join(sentences)
            assert all(len(text) <= desm._FEATURIZE_CHARS for text in calls)

    def test_a_long_sentence_is_a_chunk_of_its_own(self, monkeypatch):
        long = "".join(dense_corpus(80, seed=4))
        assert len(long) > desm._FEATURIZE_CHARS
        sentences = ["参", long, "", long[:30]]
        texts = []

        def spy(*args, **kwargs):
            texts.append(args[3])
            return build_lattice(*args, **kwargs)

        monkeypatch.setattr(desm, "build_lattice", spy)
        got = featurize_sentences(sentences, DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY, 4)
        assert texts == ["参", long, long[:30]]
        for s, (ids, mask) in zip(sentences, got):
            want_ids, want_mask = lattice_features(s, 4, "desm")
            assert np.array_equal(ids, want_ids) and np.array_equal(mask, want_mask)

    def test_a_hand_made_lattice_raises(self):
        a = build_lattice(DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY, dense_corpus(1, seed=8)[0],
                          m_max=5)
        hand = CharWordLattice(a.sentence, a.per_char, list(a.suspect))
        with pytest.raises(ValueError, match="made by build_lattice"):
            lattice_to_feature_ids(hand)

    def test_a_long_call_holds_one_chunk_of_lattices(self):
        # the memory a call needs beyond the features it returns stays a
        # fraction of what holding every lattice of the call would take
        sentences = dense_corpus(240, seed=9)
        assert sum(map(len, sentences)) > 4 * desm._FEATURIZE_CHARS
        featurize_sentences(sentences, DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY, 8)  # warm memo
        tracemalloc.start()
        try:
            feats = featurize_sentences(sentences, DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY, 8)
            kept, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            lats = [build_lattice(DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY, s, m_max=8)
                    for s in sentences]
            every_lattice = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(feats) == len(lats)
        assert peak - kept < every_lattice / 2, (peak - kept, every_lattice)


# ---------------------------------------------- sentence ends in a chunk
# a chunk's lattice is built on its sentences joined: nothing may reach
# across the end of one into the next


def sentence_ends(sentences):
    ends, end = [], 0
    for s in sentences:
        end += len(s)
        ends.append(end)
    return ends


def shifted_records(records, by):
    """lattice_records of a sentence as they read at offset `by` of a chunk."""
    return [{**r, "pos": r["pos"] + by,
             "candidates": [{**c, "span": [c["span"][0] + by, c["span"][1] + by]}
                            for c in r["candidates"]]}
            for r in records]


def assert_reads_as_its_sentences(world, sentences, m_max, include_pinyin):
    """A chunk's lattice has, at each sentence's offset, the suspects, rows,
    candidates and records of that sentence's own lattice, with shifted spans."""
    lex = world[0]
    chunk = build_lattice(*world, "".join(sentences), m_max=m_max,
                          include_pinyin=include_pinyin, ends=sentence_ends(sentences))
    ids, mask = lattice_to_feature_ids(chunk)
    records = lattice_records(chunk, lex)
    start = 0
    for s in sentences:
        end = start + len(s)
        lat = build_lattice(*world, s, m_max=m_max, include_pinyin=include_pinyin)
        want_ids, want_mask = lattice_to_feature_ids(lat)
        assert np.array_equal(ids[start:end], want_ids), s
        assert np.array_equal(mask[start:end], want_mask), s
        assert chunk.suspect[start:end] == lat.suspect, s
        assert chunk.per_char[start:end] == [
            [c._replace(span=(c.span[0] + start, c.span[1] + start)) for c in cands]
            for cands in lat.per_char], s
        assert records[start:end] == shifted_records(lattice_records(lat, lex), start), s
        start = end
    return chunk


BOUNDARY_CASES = {
    # 参加 is a word only across the end of 我参
    "word-across": ["我参", "加会议"],
    # the window 参家 sounds like 参加 and 禅家 only across the end of 我参
    "window-across": ["我参", "家会议"],
    "empty-and-one-char": ["参", "", "家", "参", "", "加", ""],
    "empty-first-and-last": ["", "参加", "", "会", "议", ""],
    "empty-only": ["", "", ""],
    "one-char-only": ["会", "议", "很", "好"],
}


class TestSentenceEnds:
    @pytest.mark.parametrize("m_max", [1, 3, 8])
    @pytest.mark.parametrize("mode", desm.LATTICE_MODES)
    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_features_equal_one_lattice_per_sentence(self, lex, ptable, fuzzy, case, mode,
                                                     m_max):
        sentences = BOUNDARY_CASES[case]
        got = featurize_sentences(sentences, lex, ptable, fuzzy, m_max, mode)
        assert len(got) == len(sentences)
        for s, (ids, mask) in zip(sentences, got):
            want_ids, want_mask = lattice_features(s, m_max, mode, (lex, ptable, fuzzy))
            assert np.array_equal(ids, want_ids) and np.array_equal(mask, want_mask), s

    @pytest.mark.parametrize("m_max", [1, 3, 8])
    @pytest.mark.parametrize("include_pinyin", [True, False])
    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_a_chunk_reads_as_its_sentences(self, lex, ptable, fuzzy, case, include_pinyin,
                                            m_max):
        assert_reads_as_its_sentences((lex, ptable, fuzzy), BOUNDARY_CASES[case], m_max,
                                      include_pinyin)

    def test_nothing_reaches_across_an_end(self, lex, ptable, fuzzy):
        wid = lex.surfaces.index("参加")
        for sentences, provenance, direction in (
                (["我参", "加会议"], Provenance.EXACT, Direction.NONE),
                (["我参", "家会议"], Provenance.PINYIN_EXACT, Direction.FORWARD)):
            # joined, 参加 covers positions 1-2; with the end between them, not
            whole = build_lattice(lex, ptable, fuzzy, "".join(sentences), m_max=8)
            assert MatchCandidate(wid, (1, 2), provenance, direction) in whole.per_char[1]
            chunk = assert_reads_as_its_sentences((lex, ptable, fuzzy), sentences, 8, True)
            assert all(c.span[0] >= 2 or c.span[1] < 2 for row in chunk.per_char for c in row)
            assert chunk.suspect[1:3] == [True, True]

    @given(st.lists(st.lists(DENSE_CHUNKS, max_size=4).map("".join), max_size=6),
           st.integers(1, 9), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_dense_chunks_read_as_their_sentences(self, sentences, m_max, include_pinyin):
        assert_reads_as_its_sentences((DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY), sentences, m_max,
                                      include_pinyin)

    def test_the_memo_keeps_only_windows_within_sentences(self, lex, ptable, fuzzy):
        # a window across an end is never probed, so a chunk leaves the
        # window memo that its sentences featurized one at a time leave
        boundary = [s for case in BOUNDARY_CASES.values() for s in case]
        for (world, sentences) in (((lex, ptable, fuzzy), boundary),
                                   ((DENSE_LEX, DENSE_PTABLE, DENSE_FUZZY), dense_corpus(64, 3))):
            base, table, fz = world
            pairs = []
            for calls in ([sentences], [[s] for s in sentences]):
                fresh = Lexicon(base.surfaces, base.frequencies, base.readings)
                for call in calls:
                    featurize_sentences(call, fresh, table, fz, 8)
                memo = fresh._table_entry(fz)[1]
                pairs.append({(ra, rb) for ra, row in memo.items() for rb in row})
            assert pairs[0] == pairs[1]

    @pytest.mark.parametrize("ends", [[], [3], [6], [2, 1, 5], [-1, 5], [5, 5, 4]])
    def test_ends_must_rise_to_the_length(self, lex, ptable, fuzzy, ends):
        with pytest.raises(ValueError, match="sentence ends must rise from 0 to 5"):
            build_lattice(lex, ptable, fuzzy, "我参家会议", ends=ends)


def test_threads_sharing_a_lexicon_featurize_as_one():
    sentences = dense_corpus(48, seed=5)
    words = [(e.surface, e.frequency) for e in DENSE_LEX.entries]
    want = featurize_sentences(sentences, lexicon_from_words(words, DENSE_PTABLE, DENSE_FUZZY),
                               DENSE_PTABLE, DENSE_FUZZY, 8)
    shared = lexicon_from_words(words, DENSE_PTABLE, DENSE_FUZZY)  # nothing remembered yet
    wrong, errors = [], []

    def work(k):
        try:
            # every sentence, from a different start per thread, so threads
            # compute different entries at once
            order = sentences[12 * k:] + sentences[:12 * k]
            got = featurize_sentences(order, shared, DENSE_PTABLE, DENSE_FUZZY, 8)
            expect = {s: f for s, f in zip(sentences, want)}
            for s, (ids, mask) in zip(order, got):
                if not (np.array_equal(ids, expect[s][0]) and np.array_equal(mask, expect[s][1])):
                    wrong.append((k, s))
        except Exception as e:  # noqa: BLE001 - a thread's error fails the test
            errors.append(repr(e))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-build as often as possible
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and wrong == []



def test_two_threads_on_two_tables_build_each_index_once(monkeypatch):
    # two threads share one fresh lexicon, each under its own fuzzy table:
    # querying one table neither rebuilds the other's 2-gram index nor
    # empties its window memo
    tables = [DENSE_FUZZY, FuzzyClassTable()]
    sentences = dense_corpus(24, seed=7)
    columns = DENSE_LEX.surfaces, DENSE_LEX.frequencies, DENSE_LEX.readings
    want = [featurize_sentences(sentences, Lexicon(*columns), DENSE_PTABLE, t, 8)
            for t in tables]
    shared = Lexicon(*columns)
    built = Counter()
    build_index = Lexicon._build_index

    def counted_build(self, fz):
        built[tables.index(fz)] += 1
        return build_index(self, fz)

    monkeypatch.setattr(Lexicon, "_build_index", counted_build)
    wrong, errors = [], []

    def work(k):
        try:
            for _ in range(3):
                got = featurize_sentences(sentences, shared, DENSE_PTABLE, tables[k], 8)
                for s, (ids, mask), (want_ids, want_mask) in zip(sentences, got, want[k]):
                    if not (np.array_equal(ids, want_ids) and np.array_equal(mask, want_mask)):
                        wrong.append((k, s))
        except Exception as e:  # noqa: BLE001 - a thread's error fails the test
            errors.append(repr(e))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-lookup as often as possible
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and wrong == []
    assert built == {0: 1, 1: 1}
