import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanfix.desm import (
    WORD_ID_OFFSET,
    WORD_PAD_ID,
    Direction,
    Provenance,
    build_lattice,
    featurize_sentences,
    lattice_records,
    lattice_to_feature_ids,
    sentence_features,
)
from hanfix.lexicon import lexicon_from_words
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
            lex.surface(c.word_id): c for c in lat.per_char[1]
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
        w2 = {lex.surface(c.word_id) for c in lat.per_char[2]}
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
        words1 = {lex.surface(c.word_id) for c in lat.per_char[1]}
        assert words1 == {"参"}

    def test_truncation(self, lex, ptable, fuzzy):
        lat = build_lattice(lex, ptable, fuzzy, "我参家会议", m_max=1)
        for cands in lat.per_char:
            assert len(cands) <= 1
        # the single kept candidate at position 1 is the best-ranked one
        assert lex.surface(lat.per_char[1][0].word_id) == "参"

    def test_m_max_validation(self, lex, ptable, fuzzy):
        with pytest.raises(ValueError):
            build_lattice(lex, ptable, fuzzy, "我", m_max=0)

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
                  if lex.surface(c.word_id) == "会计"]
        assert kuaiji and kuaiji[0].provenance == Provenance.EXACT

    def test_unreadable_char_contributes_nothing(self, lex, ptable, fuzzy):
        # X has no readings: suspect, but probes touching it return nothing
        lat = build_lattice(lex, ptable, fuzzy, "X参家", m_max=5)
        assert lat.suspect[0]
        assert all(c.provenance != Provenance.PINYIN_FUZZY or
                   lex.surface(c.word_id) != "X" for c in lat.per_char[0])

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


class TestFeatures:
    def test_shapes_and_offset(self, lex, ptable, fuzzy):
        lat = build_lattice(lex, ptable, fuzzy, "我参家会议", m_max=4)
        ids, mask = lattice_to_feature_ids(lat, 4)
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

    def test_ttm_subset_of_desm(self, lex, ptable, fuzzy):
        # every ttm candidate survives in desm mode (big m_max, no truncation)
        for s in ["我参家会议", "参会计好", "很好"]:
            ids_t, mask_t = sentence_features(s, lex, ptable, fuzzy, 50, "ttm")
            ids_d, mask_d = sentence_features(s, lex, ptable, fuzzy, 50, "desm")
            for i in range(len(s)):
                t = set(ids_t[i][mask_t[i] > 0].tolist())
                d = set(ids_d[i][mask_d[i] > 0].tolist())
                assert t <= d

    def test_featurize_memoizes(self, lex, ptable, fuzzy):
        feats = featurize_sentences(["我参家", "我参家"], lex, ptable, fuzzy, 3)
        assert feats[0][0] is feats[1][0]

    def test_records_shape(self, lex, ptable, fuzzy):
        lat = build_lattice(lex, ptable, fuzzy, "参家", m_max=3)
        recs = lattice_records(lat, lex)
        assert [r["char"] for r in recs] == ["参", "家"]
        assert all(
            set(c) == {"word", "span", "provenance", "direction"}
            for r in recs for c in r["candidates"]
        )
