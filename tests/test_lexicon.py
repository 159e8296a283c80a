import gc
import itertools
import json
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanfix import data as bundled
from hanfix.desm import build_lattice, featurize_sentences
from hanfix.errors import (
    LexiconFormatError,
    MalformedLine,
    MissingPinyin,
    WordTooLong,
)
from hanfix.lexicon import (
    RANK_BITS,
    Lexicon,
    WordEntry,
    build_lexicon,
    lexicon_fingerprint,
    lexicon_from_words,
)
from hanfix.pinyin import FuzzyClassTable, PinyinTable, fuzzy_key

PAIRS = [
    ("参", "can1"), ("参", "shen1"), ("加", "jia1"), ("家", "jia1"),
    ("禅", "chan2"), ("禅", "shan4"), ("会", "hui4"), ("会", "kuai4"),
    ("议", "yi4"), ("计", "ji4"), ("我", "wo3"), ("好", "hao3"),
    ("啊", "a1"), ("山", "shan1"), ("单", "dan1"),
]

WORDS = [
    ("参加", 80), ("禅家", 5), ("会议", 60), ("会计", 15),
    ("参", 10), ("家", 20), ("山单", 1),
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


DEMO_TABLE = PinyinTable.from_file(bundled.demo_pinyin_path())
DEMO_LEX = build_lexicon(bundled.demo_words_path(), DEMO_TABLE, FuzzyClassTable.default())


def equivalence_oracle(lex, a, b, fuzzy):
    """2-char entries with some reading pair equivalent to the readings
    (a, b) under `fuzzy`, ranked like the index: descending frequency, then
    word_id."""
    expect = set()
    for e in lex.entries:
        if len(e.surface) != 2:
            continue
        for ra in e.readings[0]:
            for rb in e.readings[1]:
                if fuzzy_key(a, fuzzy) == fuzzy_key(ra, fuzzy) and \
                   fuzzy_key(b, fuzzy) == fuzzy_key(rb, fuzzy):
                    expect.add(e.word_id)
    return sorted(expect, key=lambda w: (-lex.entries[w].frequency, w))


ORACLE_SYLLABLES = ["can", "chan", "shan", "shen", "jia", "hui", "kuai",
                    "ji", "yi", "wo", "dan", "a"]


def write_payload(payload, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    return p


def load_columns(surfaces, frequencies, readings, tmp_path):
    return Lexicon.load(write_payload(
        {"magic": "hanfix-lexicon", "version": 4, "surfaces": surfaces,
         "frequencies": frequencies, "readings": readings}, tmp_path))


def v3_entries(lex):
    """The words as a version 3 file stored them, one object per word."""
    return [{"frequency": f, "readings": r, "surface": s}
            for s, f, r in zip(lex.surfaces, lex.frequencies, lex.readings)]


def window_hits(lex, ptable, fuzzy, a, b):
    """The ranked lattice keys of the window `a` `b`, untruncated."""
    return lex.probe_windows(ptable, fuzzy, a + b, [True, True], len(lex))[0][0]


def columns(lex):
    return lex.surfaces, lex.frequencies, lex.readings


def brute_force_spans(lex, sentence):
    # oracle: check every substring against every entry surface
    out = []
    for start in range(len(sentence)):
        for end in range(start, len(sentence)):
            for e in lex.entries:
                if e.surface == sentence[start:end + 1]:
                    out.append((start, end, e.word_id))
    return sorted(out)


class TestBuild:
    def test_ids_follow_input_order(self, lex):
        assert [e.surface for e in lex.entries] == [
            "参加", "禅家", "会议", "会计", "参", "家", "山单",
        ]
        assert lex.surfaces.index("参加") == 0
        assert lex.surfaces[1] == "禅家"
        assert len(lex) == 7

    def test_readings_follow_table_order(self, lex):
        e = lex.entries[lex.surfaces.index("参加")]
        # polyphone keeps every toneless reading for matching
        assert e.readings == (("can", "shen"), ("jia",))

    def test_tone_variants_share_one_reading(self, fuzzy, tmp_path):
        # each toneless reading once per character, in table order; a file
        # that repeats one (as files built before did) still loads and
        # indexes the same
        table = PinyinTable.from_pairs([
            ("中", "zhong1"), ("中", "zhong4"), ("长", "chang2"), ("长", "zhang3"),
            ("长", "chang4"), ("国", "guo2"),
        ])
        lex = lexicon_from_words([("中国", 5), ("长中", 1)], table, fuzzy)
        assert [e.readings for e in lex.entries] == [
            (("zhong",), ("guo",)), (("chang", "zhang"), ("zhong",))]
        payload = json.loads(lex.to_json())
        payload["readings"][0][0] = ["zhong", "zhong"]
        path = tmp_path / "repeated.lexicon"
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        assert Lexicon.load(path).pinyin2gram_index(fuzzy) == lex.pinyin2gram_index(fuzzy)

    def test_duplicate_surface_merges_frequency(self, ptable, fuzzy):
        lex2 = lexicon_from_words(
            [("参加", 10), ("家", 1), ("参加", 5)], ptable, fuzzy
        )
        assert len(lex2) == 2
        assert lex2.entries[0].frequency == 15

    def test_missing_pinyin(self, ptable, fuzzy):
        with pytest.raises(MissingPinyin):
            lexicon_from_words([("参外", 1)], ptable, fuzzy)

    @pytest.mark.parametrize("freq", [-1, 1.5, True, "3"])
    def test_rejects_a_frequency_its_file_could_not_hold(self, ptable, fuzzy, freq):
        # Lexicon.load takes only non-bool ints >= 0, so the build does too
        with pytest.raises(ValueError, match=r"^word #2 word '会议': frequency must be a "
                                             r"non-negative int, got "):
            lexicon_from_words([("参加", 1), ("会议", freq)], ptable, fuzzy)
        with pytest.raises(ValueError, match="^words.tsv:3 word '会议'"):
            lexicon_from_words([("参加", 1), ("会议", freq)], ptable, fuzzy,
                               labels=["words.tsv:1", "words.tsv:3"])
        with pytest.raises(ValueError, match="word #2 word '参加'"):  # merged or not
            lexicon_from_words([("参加", 1), ("参加", freq)], ptable, fuzzy)

    def test_word_too_long(self, ptable, fuzzy):
        with pytest.raises(WordTooLong):
            lexicon_from_words([("参加参加参", 1)], ptable, fuzzy)
        with pytest.raises(WordTooLong):
            lexicon_from_words([("", 1)], ptable, fuzzy)

    # a lexicon file is where entries arrive from outside: Lexicon.load
    # checks them, and lexicon_from_words makes them from the pinyin table

    @pytest.mark.parametrize("readings", [[], [["can"]], [["can"], ["jia"], ["jia"]]],
                             ids=["none", "one-of-two", "three-of-two"])
    def test_entry_needs_one_reading_tuple_per_character(self, readings, ptable, fuzzy,
                                                         tmp_path):
        # the 2-gram index reads readings[0] and readings[1] of every 2-char word
        with pytest.raises(LexiconFormatError, match="one list of toneless syllables per"):
            load_columns(["参加"], [1], [readings], tmp_path)
        lex2 = Lexicon(("参加",), (1,), ((("can",), ("jia",)),))
        # one PINYIN_EXACT hit, the word of rank 0
        assert window_hits(lex2, ptable, fuzzy, "参", "家") == (1 << RANK_BITS | 0,)

    @pytest.mark.parametrize("readings", [[[], ["jia"]], [["can"], []], [[], []]],
                             ids=["first", "second", "both"])
    def test_entry_needs_a_reading_per_character(self, readings, tmp_path):
        # a character without readings would drop the word from the 2-gram index
        with pytest.raises(LexiconFormatError, match="no reading"):
            load_columns(["参加"], [1], [readings], tmp_path)

    def test_from_file(self, tmp_path, ptable, fuzzy):
        p = tmp_path / "words.tsv"
        p.write_text("参加\t80\n# comment\n家\n", encoding="utf-8")
        lex2 = build_lexicon(p, ptable, fuzzy)
        assert len(lex2) == 2
        assert lex2.entries[1].frequency == 1  # default when column omitted

    @pytest.mark.parametrize("line", ["参加\tx", "参加\t1\t2", "参加\t-3"])
    def test_from_file_malformed(self, tmp_path, ptable, fuzzy, line):
        p = tmp_path / "words.tsv"
        p.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            build_lexicon(p, ptable, fuzzy)

    def test_from_file_missing_pinyin_names_line(self, tmp_path, ptable, fuzzy):
        p = tmp_path / "words.tsv"
        p.write_text("参加\t1\n外\t1\n", encoding="utf-8")
        with pytest.raises(MissingPinyin) as ei:
            build_lexicon(p, ptable, fuzzy)
        assert ":2" in str(ei.value)

    def test_word_rank_orders_by_frequency_then_id(self, lex, ptable, fuzzy):
        # 参加 80, 禅家 5, 会议 60, 会计 15, 参 10, 家 20, 山单 1
        assert lex.rank == (0, 5, 1, 3, 4, 2, 6)
        ties = lexicon_from_words([("参", 3), ("家", 3), ("加", 7)], ptable, fuzzy)
        assert ties.rank == (1, 2, 0)
        assert ties.order == (2, 0, 1)

    def test_order_ids_gather_ranks_to_word_ids(self, lex):
        order = lex.order
        assert sorted(order) == list(range(len(lex)))
        assert all(order[r] == wid for wid, r in enumerate(lex.rank))
        ids = lex.order_ids
        assert ids.dtype == "int64" and ids.tolist() == list(order)
        assert lex.order_ids is ids
        with pytest.raises(ValueError):
            ids[0] = 5

    def test_views_beyond_the_ranking_are_built_on_first_use(self, lex, ptable, fuzzy):
        # a lexicon built only to be saved pays for its surface index and
        # ranking only, whether made from columns or from words
        built = lexicon_from_words(WORDS, ptable, fuzzy)
        for fresh in (Lexicon(*columns(lex)), built):
            assert (fresh.rank, fresh.order) == (lex.rank, lex.order)
            assert not {"entries", "_hit_keys", "order_ids"} & vars(fresh).keys()
            assert len(fresh._tables) == 0
        # the first probe builds the table's index, with the features of a
        # lexicon whose index was built first
        warm = lexicon_from_words(WORDS, ptable, fuzzy)
        warm.pinyin2gram_index(fuzzy)
        sentences = ["我参家会议", "禅家会计", "山单参加"]
        got = featurize_sentences(sentences, built, ptable, fuzzy, 3)
        assert len(built._tables) == 1
        want = featurize_sentences(sentences, warm, ptable, fuzzy, 3)
        for (ids, mask), (want_ids, want_mask) in zip(got, want, strict=True):
            assert ids.tolist() == want_ids.tolist() and mask.tolist() == want_mask.tolist()

    def test_threads_building_order_ids_agree(self, lex):
        fresh = [Lexicon(*columns(lex)) for _ in range(200)]
        expect = lex.order_ids.tolist()
        wrong = []

        def rank_all():
            for other in fresh:
                got = other.order_ids.tolist()
                if got != expect:
                    wrong.append(got)

        threads = [threading.Thread(target=rank_all) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []


class TestOneIdPerWord:
    # word ids are positions in the columns, so only a surface can repeat
    READINGS = {"参加": (("can",), ("jia",)), "会议": (("hui",), ("yi",))}

    def test_rejects_columns_of_unequal_length(self):
        # to_json would write one entry, and featurizing would index past
        # the end of the shorter columns
        with pytest.raises(ValueError, match="columns of unequal length: 2 surfaces, "
                                             "1 frequencies, 2 readings"):
            Lexicon(("参加", "会议"), (1,), tuple(self.READINGS.values()))

    def test_rejects_repeated_surface(self):
        surfaces = ("参加", "会议", "参加")
        with pytest.raises(ValueError, match="entry 2 repeats the surface '参加' of entry 0"):
            Lexicon(surfaces, (1, 1, 1), tuple(self.READINGS[s] for s in surfaces))

    def test_load_rejects_repeated_surface(self, tmp_path):
        # the trie would list 参加 twice at each position
        table = PinyinTable.from_file(bundled.demo_pinyin_path())
        lex = build_lexicon(bundled.demo_words_path(), table, FuzzyClassTable.default())
        payload = json.loads(lex.to_json())
        first = lex.surfaces.index("参加")
        for column in ("surfaces", "frequencies", "readings"):
            payload[column].append(payload[column][first])
        with pytest.raises(LexiconFormatError,
                           match=f"entry {len(lex)} repeats the surface '参加' of entry {first}"):
            Lexicon.load(write_payload(payload, tmp_path))


class TestColumns:
    def test_to_json_is_pinned(self, ptable, fuzzy):
        # a polyphone (参, 会), a 1-character word that prefixes 参加, and
        # a 4-character word that 参加 prefixes
        lex = lexicon_from_words([("参加", 80), ("参加会议", 3), ("参", 10), ("会", 0)],
                                 ptable, fuzzy)
        assert lex.to_json() == (
            '{"frequencies":[80,3,10,0],"magic":"hanfix-lexicon",'
            '"readings":[[["can","shen"],["jia"]],[["can","shen"],["jia"],["hui","kuai"],["yi"]],'
            '[["can","shen"]],[["hui","kuai"]]],'
            '"surfaces":["参加","参加会议","参","会"],"version":4}')
        assert lex.trie_match_all("参加会议") == [(0, 0, 2), (0, 1, 0), (0, 3, 1), (2, 2, 3)]

    @given(st.lists(st.tuples(st.text("参加禅家会议计我好山单", min_size=1, max_size=4),
                              st.integers(0, 50)), max_size=30),
           st.lists(st.text("参加禅家会议计我好山单", max_size=12), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_every_construction_path_agrees(self, ptable, fuzzy, tmp_path_factory,
                                            words, sentences):
        built = lexicon_from_words(words, ptable, fuzzy)
        path = tmp_path_factory.mktemp("lex") / "words.lexicon"
        built.save(path)
        for other in (Lexicon(*columns(built)), Lexicon.load(path)):
            assert other.entries == built.entries
            assert other.to_json() == built.to_json()
            assert other.rank == built.rank
            for s in sentences:
                assert other.trie_match_all(s) == built.trie_match_all(s)
                assert built.trie_match_all(s) == brute_force_spans(built, s)

    def test_loading_and_featurizing_build_no_word_entry(self, tmp_path, monkeypatch):
        table = PinyinTable.from_file(bundled.demo_pinyin_path())
        fuzzy = FuzzyClassTable.from_file(bundled.demo_fuzzy_path())
        path = tmp_path / "demo.lexicon"
        made = []
        new = WordEntry.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(WordEntry, "__new__", counted)
        build_lexicon(bundled.demo_words_path(), table, fuzzy).save(path)
        lex = Lexicon.load(path)
        featurize_sentences(["我们参家会义", "参加"], lex, table, fuzzy, 8)
        assert build_lattice(lex, table, fuzzy, "我们参家会义", m_max=8).per_char
        assert made == []
        assert len(lex.entries) == len(made) == len(lex)  # built on first read
        assert lex.entries is lex.entries

    def test_load_shares_one_tuple_per_reading_list(self, tmp_path):
        table = PinyinTable.from_file(bundled.demo_pinyin_path())
        fuzzy = FuzzyClassTable.from_file(bundled.demo_fuzzy_path())
        built = build_lexicon(bundled.demo_words_path(), table, fuzzy)
        path = tmp_path / "demo.lexicon"
        built.save(path)
        lex = Lexicon.load(path)
        per_char = [r for rs in lex.readings for r in rs]
        assert len({id(r) for r in per_char}) == len(set(per_char)) < len(per_char)
        assert lex.to_json() == built.to_json()
        assert lexicon_fingerprint(lex) == lexicon_fingerprint(built)


class TestTrie:
    def test_match_example(self, lex):
        got = lex.trie_match_all("我参加会议")
        assert got == brute_force_spans(lex, "我参加会议")
        surfaces = {(s, e, lex.surfaces[w]) for s, e, w in got}
        assert (1, 2, "参加") in surfaces
        assert (3, 4, "会议") in surfaces
        assert (1, 1, "参") in surfaces

    def test_no_match(self, lex):
        assert lex.trie_match_all("好好好") == []
        assert lex.trie_match_all("") == []

    def test_overlapping_matches(self, lex):
        # 会 belongs to both 会议 and 会计 contexts; check a string where
        # two 2-char words share a char
        got = lex.trie_match_all("会议会计")
        assert got == brute_force_spans(lex, "会议会计")

    @given(st.lists(st.sampled_from("参加禅家会议计我好山单"),
                    min_size=0, max_size=12))
    @settings(max_examples=200)
    def test_matches_brute_force(self, lex, chars):
        s = "".join(chars)
        assert lex.trie_match_all(s) == brute_force_spans(lex, s)


    @given(st.lists(st.lists(st.sampled_from(DEMO_LEX.surfaces + ("X",)), max_size=4)
                    .map("".join), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_with_ends_matches_each_sentence_alone(self, sentences):
        # the demo words have 1 to 4 characters, so joined sentences put
        # words of every length across their ends; empty sentences are ends
        # at one offset
        ends = list(itertools.accumulate(map(len, sentences)))
        want = [(start + offset, end + offset, wid)
                for s, offset in zip(sentences, [0, *ends])
                for start, end, wid in brute_force_spans(DEMO_LEX, s)]
        assert DEMO_LEX.trie_match_all("".join(sentences), ends) == want

    def test_an_empty_surface_matches_nothing(self):
        lex = Lexicon(("", "参"), (5, 1), ((), (("can", "shen"),)))
        assert lex.trie_match_all("") == lex.trie_match_all("", [0, 0]) == []
        assert lex.trie_match_all("参参", [1, 1, 2]) == [(0, 0, 1), (1, 1, 1)]


class TestPinyin2Gram:
    def test_exact_pair(self, lex, fuzzy):
        a, b = "can", "jia"
        ids = lex.pinyin_2gram_lookup(a, b, fuzzy)
        assert lex.surfaces.index("参加") in ids
        assert lex.surfaces.index("禅家") in ids  # chan ~ can under z/zh c/ch s/sh

    def test_frequency_ranking(self, lex, fuzzy):
        # 参加 (freq 80) must precede 禅家 (freq 5) in their shared bucket
        key = ("can", "jia")
        ids = lex.pinyin2gram_index(fuzzy)[key]
        assert list(ids).index(lex.surfaces.index("参加")) < list(ids).index(
            lex.surfaces.index("禅家")
        )

    def test_polyphone_cross_product(self, lex, fuzzy):
        # 会计 is kuai4 ji4, but 会 also reads hui4: both keys must hit
        ids_hui = lex.pinyin_2gram_lookup(
            "hui", "ji", fuzzy
        )
        ids_kuai = lex.pinyin_2gram_lookup(
            "kuai", "ji", fuzzy
        )
        assert lex.surfaces.index("会计") in ids_hui
        assert lex.surfaces.index("会计") in ids_kuai
        # 参 polyphone: shen reading must find 参加 too
        ids_shen = lex.pinyin_2gram_lookup(
            "shen", "jia", fuzzy
        )
        assert lex.surfaces.index("参加") in ids_shen

    def test_only_two_char_words_indexed(self, lex, fuzzy):
        for ids in lex.pinyin2gram_index(fuzzy).values():
            for wid in ids:
                assert len(lex.surfaces[wid]) == 2

    def test_miss_returns_empty(self, lex, fuzzy):
        assert lex.pinyin_2gram_lookup(
            "wo", "wo", fuzzy
        ) == []

    @given(st.sampled_from(ORACLE_SYLLABLES), st.sampled_from(ORACLE_SYLLABLES))
    @settings(max_examples=150)
    def test_lookup_matches_equivalence_filter(self, lex, fuzzy, sa, sb):
        # oracle: filter 2-char entries by equal fuzzy keys on any reading
        # combination, then rank like the index does
        assert lex.pinyin_2gram_lookup(sa, sb, fuzzy) == equivalence_oracle(lex, sa, sb, fuzzy)

    def test_loaded_lexicon_follows_query_table(self, lex, tmp_path):
        # each table a query passes gets its own index, so one loaded
        # lexicon answers both tables, in any order
        lex.save(tmp_path / "lex.json")
        loaded = Lexicon.load(tmp_path / "lex.json")
        tables = [FuzzyClassTable.default(), FuzzyClassTable()]
        pairs = list(itertools.product(ORACLE_SYLLABLES, repeat=2))
        for _ in range(2):
            for table in tables:
                for a, b in pairs:
                    assert loaded.pinyin_2gram_lookup(a, b, table) == \
                        equivalence_oracle(loaded, a, b, table), (a, b)
        # 禅家 (chan) sounds like 参加 (can) only under the default classes
        a, b = "can", "jia"
        assert loaded.surfaces.index("禅家") in loaded.pinyin_2gram_lookup(a, b, tables[0])
        assert loaded.surfaces.index("禅家") not in loaded.pinyin_2gram_lookup(a, b, tables[1])

    def test_each_table_keeps_its_index_and_window_hits(self, ptable):
        lex = lexicon_from_words(WORDS, ptable, FuzzyClassTable.default())
        a, b = FuzzyClassTable.default(), FuzzyClassTable()
        index = lex.pinyin2gram_index(a)
        hits = window_hits(lex, ptable, a, "禅", "家")
        assert lex.pinyin2gram_index(b) is not index
        assert window_hits(lex, ptable, b, "禅", "家") != hits
        # querying b neither rebuilt a's index nor emptied a's window memo
        assert lex.pinyin2gram_index(a) is index
        assert window_hits(lex, ptable, a, "禅", "家") is hits

    def test_equal_reading_sets_share_one_window_entry(self, fuzzy):
        # X reads as 参 does, in another order: a window's hits are a
        # function of the two reading sets, so 参家 and X家 share one entry
        table = PinyinTable.from_pairs(PAIRS + [("X", "shen1"), ("X", "can4")])
        lex = lexicon_from_words(WORDS, table, fuzzy)
        hits = window_hits(lex, table, fuzzy, "参", "家")
        assert hits and window_hits(lex, table, fuzzy, "X", "家") is hits
        memo = lex._table_entry(fuzzy)[1]
        sets = table.toneless_sets("参X家")
        assert sets[0] == sets[1] and sets[0] is not sets[1]
        assert list(memo) == [sets[0]] and list(memo[sets[1]]) == [sets[2]]
        # another lexicon meets X first and computes the same hits
        fresh = lexicon_from_words(WORDS, table, fuzzy)
        assert window_hits(fresh, table, fuzzy, "X", "家") == hits

    def test_entry_goes_with_its_table(self, ptable):
        build = FuzzyClassTable.default()
        lex = lexicon_from_words(WORDS, ptable, build)
        other = FuzzyClassTable()
        window_hits(lex, ptable, build, "禅", "家")
        window_hits(lex, ptable, other, "禅", "家")
        assert len(lex._tables) == 2
        gone = weakref.ref(other)
        del other
        gc.collect()
        # no entry refers to its table, so the lexicon kept it alive nowhere
        assert gone() is None
        assert len(lex._tables) == 1
        assert lex.pinyin2gram_index(build) is lex.pinyin2gram_index(build)

    def test_threads_sharing_a_lexicon_see_their_own_table(self, lex, ptable):
        tables = [FuzzyClassTable.default(), FuzzyClassTable()]
        a, b = "can", "jia"
        expect = [equivalence_oracle(lex, a, b, t) for t in tables]
        assert expect[0] != expect[1]
        # window hits are remembered beside each table's index
        hits = [window_hits(lexicon_from_words(WORDS, ptable, t), ptable, t, "禅", "家")
                for t in tables]
        assert hits[0] != hits[1]
        wrong = []

        def query(t: int):
            for _ in range(300):
                got = lex.pinyin_2gram_lookup(a, b, tables[t])
                if got != expect[t]:
                    wrong.append((t, got))
                got = window_hits(lex, ptable, tables[t], "禅", "家")
                if got != hits[t]:
                    wrong.append((t, got))

        threads = [threading.Thread(target=query, args=(i % 2,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-lookup as often as possible
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []


class TestSerialization:
    def test_round_trip(self, lex, fuzzy, tmp_path):
        p = tmp_path / "lex.json"
        lex.save(p)
        lex2 = Lexicon.load(p)
        assert len(lex2) == len(lex)
        assert lex2.to_json() == lex.to_json()
        assert lexicon_fingerprint(lex2) == lexicon_fingerprint(lex)
        assert lex2.trie_match_all("我参加会议") == lex.trie_match_all("我参加会议")
        assert lex2.pinyin2gram_index(fuzzy) == lex.pinyin2gram_index(fuzzy)

    def test_file_holds_columns_only(self, lex):
        payload = json.loads(lex.to_json())
        assert sorted(payload) == ["frequencies", "magic", "readings", "surfaces", "version"]
        assert payload["version"] == 4
        assert [tuple(payload[c]) for c in ("surfaces", "frequencies")] == [
            lex.surfaces, lex.frequencies]
        assert [tuple(map(tuple, rs)) for rs in payload["readings"]] == list(lex.readings)

    @pytest.mark.parametrize("where", ["file", "entry", "entry-pinyin"])
    def test_rejects_unknown_fields(self, lex, tmp_path, where):
        payload = json.loads(lex.to_json())
        if where == "file":
            payload["trie"] = {}
        elif where == "entry":  # the version 3 entry list beside the columns
            payload["entries"] = v3_entries(lex)
        else:  # a version 2 tonal reading per character, as a fourth column
            payload["pinyin"] = [["can1"] * len(s) for s in payload["surfaces"]]
        with pytest.raises(LexiconFormatError, match="unknown field"):
            Lexicon.load(write_payload(payload, tmp_path))

    @pytest.mark.parametrize("column", ["surfaces", "frequencies", "readings"])
    def test_rejects_columns_of_unequal_length(self, lex, tmp_path, column):
        # the trie, the ranking and the 2-gram index read one word id across
        # all three columns
        payload = json.loads(lex.to_json())
        del payload[column][-1]
        with pytest.raises(LexiconFormatError, match="columns of unequal length"):
            Lexicon.load(write_payload(payload, tmp_path))

    @pytest.mark.parametrize("column", ["surfaces", "frequencies", "readings"])
    def test_rejects_a_missing_column(self, lex, tmp_path, column):
        payload = json.loads(lex.to_json())
        del payload[column]
        with pytest.raises(LexiconFormatError, match=f"missing field '{column}'"):
            Lexicon.load(write_payload(payload, tmp_path))

    @pytest.mark.parametrize("reading", ["cxn", "can1", "", "CAN", 5])
    def test_rejects_reading_that_is_not_a_toneless_syllable(self, lex, tmp_path, reading):
        payload = json.loads(lex.to_json())
        payload["readings"][0][0] = [reading]
        with pytest.raises(LexiconFormatError, match="toneless"):
            Lexicon.load(write_payload(payload, tmp_path))

    def test_rejects_empty_surface(self, tmp_path):
        with pytest.raises(LexiconFormatError, match="surface is not a non-empty string"):
            load_columns([""], [1], [[]], tmp_path)

    def test_rejects_character_without_readings(self, lex, tmp_path):
        payload = json.loads(lex.to_json())
        payload["readings"][0][0] = []
        with pytest.raises(LexiconFormatError, match="no reading"):
            Lexicon.load(write_payload(payload, tmp_path))

    def test_deterministic_bytes(self, ptable, fuzzy):
        a = lexicon_from_words(WORDS, ptable, fuzzy)
        b = lexicon_from_words(list(WORDS), ptable, fuzzy)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("entries", [None, {}, "", 0], ids=["null", "object", "string", "zero"])
    def test_rejects_entries_that_are_not_a_list(self, lex, tmp_path, entries):
        # the word entries are the three columns: each is mistyped alone
        for column in ("surfaces", "frequencies", "readings"):
            payload = json.loads(lex.to_json())
            payload[column] = entries
            with pytest.raises(LexiconFormatError, match=f"{column} is not a list"):
                Lexicon.load(write_payload(payload, tmp_path))

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json at all", encoding="utf-8")
        with pytest.raises(LexiconFormatError):
            Lexicon.load(p)

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"magic": "other", "version": 1}', encoding="utf-8")
        with pytest.raises(LexiconFormatError):
            Lexicon.load(p)

    def test_rejects_surface_longer_than_four(self, lex, tmp_path):
        payload = json.loads(lex.to_json())
        payload["readings"][0] *= 3
        payload["surfaces"][0] *= 3
        with pytest.raises(LexiconFormatError, match="too long"):
            Lexicon.load(write_payload(payload, tmp_path))

    def test_rejects_wrong_version(self, lex, tmp_path):
        # version 1 files also stored the trie and a fuzzy index frozen
        # under the build-time table; version 2 entries also held a tonal
        # primary reading that nothing read; version 3 stored one object
        # per word instead of the columns
        for version in (1, 2, 3, 99):
            payload = json.loads(lex.to_json())
            payload["version"] = version
            with pytest.raises(LexiconFormatError,
                               match="rebuild it with `hanfix build-lexicon`"):
                Lexicon.load(write_payload(payload, tmp_path))
        v3 = {"magic": "hanfix-lexicon", "version": 3, "entries": v3_entries(lex)}
        with pytest.raises(LexiconFormatError, match=r"unsupported version 3 \(expected 4\); "
                                                     "rebuild it with `hanfix build-lexicon`"):
            Lexicon.load(write_payload(v3, tmp_path))
