import doctest
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanfix.data import demo_pinyin_path
import hanfix.pinyin
from hanfix.errors import InvalidSyllable, MalformedLine
from hanfix.pinyin import (
    FINALS,
    INITIALS,
    FuzzyClassTable,
    PinyinSyllable,
    PinyinTable,
    fuzzy_key,
    parse_syllable,
    syllables_equivalent,
)

ALL_SYLLABLES = [
    PinyinSyllable(i, f) for i in INITIALS + ("",) for f in FINALS
]

syllable_st = st.builds(
    PinyinSyllable,
    initial=st.sampled_from(INITIALS + ("",)),
    final=st.sampled_from(FINALS),
)


# Independent re-derivation of the default class representatives.  Kept as
# literal data so a regression in FuzzyClassTable can't hide in shared code.
ORACLE_INITIAL_REP = {"zh": "z", "ch": "c", "sh": "s", "n": "l", "h": "f"}
ORACLE_FINAL_REP = {"ang": "an", "eng": "en", "ing": "in"}


def oracle_key(syl):
    i = ORACLE_INITIAL_REP.get(syl.initial, syl.initial)
    f = ORACLE_FINAL_REP.get(syl.final, syl.final)
    return i + f


class TestParse:
    @pytest.mark.parametrize(
        "text,initial,final,tone",
        [
            ("zhang", "zh", "ang", 0),
            ("chan", "ch", "an", 0),
            ("can1", "c", "an", 1),
            ("shen1", "sh", "en", 1),
            ("lv4", "l", "v", 4),
            ("er2", "", "er", 2),
            ("an", "", "an", 0),
            ("yan", "y", "an", 0),
            ("wang2", "w", "ang", 2),
            ("jiang3", "j", "iang", 3),
            ("nv3", "n", "v", 3),
            ("hui4", "h", "ui", 4),
        ],
    )
    def test_examples(self, text, initial, final, tone):
        # `tone` is the digit the input carries, and parsing drops it
        s = parse_syllable(text)
        assert (s.initial, s.final) == (initial, final)
        assert str(s) + (str(tone) if tone else "") == text

    def test_longest_prefix_wins(self):
        # "zhan" must be zh+an; a greedy single-letter match would try z+han
        assert parse_syllable("zhan") == PinyinSyllable("zh", "an")
        assert parse_syllable("shi4") == PinyinSyllable("sh", "i")

    @pytest.mark.parametrize(
        "bad", ["", "q", "zh", "xyz", "ZHANG", "zhang5", "zh ang", "zhang12"]
    )
    def test_rejects(self, bad):
        with pytest.raises(InvalidSyllable):
            parse_syllable(bad)

    @pytest.mark.parametrize("bad", ["zhang\u0663", "zhang\uff13", "zhang\u00b2",
                                     "zhang\u2083", "zhang\u0b69"],
                             ids=["arabic-indic", "fullwidth", "superscript", "subscript",
                                  "oriya"])
    def test_only_an_ascii_tone_digit(self, bad):
        # str.isdigit holds for these, and int() reads 3 from some of them
        with pytest.raises(InvalidSyllable, match="tone digit must be 0-4"):
            parse_syllable(bad)

    def test_constructor_validates(self):
        with pytest.raises(InvalidSyllable):
            PinyinSyllable("q", "q")

    def test_round_trip_whole_inventory(self):
        # the syllable set is the full initial x final cross product, closed
        # by construction; str() of any member must re-parse to itself
        for s in ALL_SYLLABLES:
            assert parse_syllable(str(s)) == s
        for s in ALL_SYLLABLES:
            assert parse_syllable(f"{s}3") == s

    @given(syllable_st)
    def test_round_trip_property(self, s):
        assert parse_syllable(str(s)) == s
        assert str(s) == s.initial + s.final


class TestFuzzy:
    def test_default_reps(self):
        t = FuzzyClassTable.default()
        assert t.initial_rep("zh") == "z"
        assert t.initial_rep("z") == "z"
        assert t.initial_rep("n") == "l"
        assert t.initial_rep("h") == "f"
        assert t.initial_rep("b") == "b"
        assert t.initial_rep("") == ""
        assert t.final_rep("ang") == "an"
        assert t.final_rep("ing") == "in"
        assert t.final_rep("ong") == "ong"

    def test_class_accessors(self):
        t = FuzzyClassTable.default()
        assert t.initial_class("zh") == ("z", "zh")
        assert t.initial_class("z") == ("z", "zh")
        assert t.initial_class("b") == ("b",)
        assert t.final_class("ang") == ("an", "ang")
        assert t.final_class("ong") == ("ong",)

    def test_key_matches_independent_oracle(self):
        t = FuzzyClassTable.default()
        for s in ALL_SYLLABLES:
            assert fuzzy_key(s, t) == oracle_key(s)

    def test_key_examples(self):
        t = FuzzyClassTable.default()
        assert fuzzy_key(parse_syllable("chan"), t) == "can"
        assert fuzzy_key(parse_syllable("zhang1"), t) == "zan"
        assert fuzzy_key(parse_syllable("neng"), t) == "len"
        assert fuzzy_key(parse_syllable("hua4"), t) == "fua"
        assert fuzzy_key(parse_syllable("jia"), t) == "jia"

    def test_key_is_parseable_and_idempotent(self):
        t = FuzzyClassTable.default()
        for s in ALL_SYLLABLES:
            k = fuzzy_key(s, t)
            reparsed = parse_syllable(k)
            assert fuzzy_key(reparsed, t) == k

    def test_tone_ignored(self):
        t = FuzzyClassTable.default()
        assert syllables_equivalent(
            parse_syllable("can1"), parse_syllable("can4"), t
        )

    @given(syllable_st, syllable_st, syllable_st)
    @settings(max_examples=300)
    def test_equivalence_relation(self, a, b, c):
        t = FuzzyClassTable.default()
        assert syllables_equivalent(a, a, t)
        assert syllables_equivalent(a, b, t) == syllables_equivalent(b, a, t)
        if syllables_equivalent(a, b, t) and syllables_equivalent(b, c, t):
            assert syllables_equivalent(a, c, t)

    @given(syllable_st, syllable_st)
    @settings(max_examples=300)
    def test_equivalence_iff_same_key(self, a, b):
        t = FuzzyClassTable.default()
        assert syllables_equivalent(a, b, t) == (fuzzy_key(a, t) == fuzzy_key(b, t))

    def test_empty_table_is_identity(self):
        t = FuzzyClassTable()
        for s in ALL_SYLLABLES:
            assert fuzzy_key(s, t) == str(s)

    def test_bad_classes(self):
        with pytest.raises(ValueError):
            FuzzyClassTable([("z", "an")])  # initial mixed with final
        with pytest.raises(ValueError):
            FuzzyClassTable([("z", "zh"), ("z", "c")])  # z in two classes
        with pytest.raises(ValueError):
            FuzzyClassTable([("z", "z")])
        with pytest.raises(ValueError):
            FuzzyClassTable([("xx", "yy")])

    def test_from_file(self, tmp_path):
        p = tmp_path / "fuzzy.txt"
        p.write_text("# comment\nz zh\n\nan ang  # trailing\n", encoding="utf-8")
        t = FuzzyClassTable.from_file(p)
        assert t.initial_rep("zh") == "z"
        assert t.final_rep("ang") == "an"
        assert t.initial_rep("c") == "c"  # untouched -> singleton

    def test_from_file_bad(self, tmp_path):
        p = tmp_path / "fuzzy.txt"
        p.write_text("z an\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            FuzzyClassTable.from_file(p)

    @pytest.mark.parametrize("bad", ["z an", "z z", "zh ch", "ang eng"],
                             ids=["mixed", "repeated-member", "initial-twice", "final-twice"])
    def test_from_file_bad_names_its_line(self, tmp_path, bad):
        p = tmp_path / "fuzzy.txt"
        p.write_text(f"# comment\nz zh\n\nan ang  # trailing\n{bad}\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as ei:
            FuzzyClassTable.from_file(p)
        assert ei.value.line_no == 5
        assert str(ei.value).startswith(f"{p}:5: ")


class TestPinyinTable:
    def test_from_pairs_polyphone_order(self):
        # a reading is kept once, tone variants included, in first-seen order
        t = PinyinTable.from_pairs(
            [("参", "can1"), ("参", "shen1"), ("参", "can4"), ("加", "jia1")]
        )
        assert [str(s) for s in t.get("参")] == ["can", "shen"]
        assert t.get("加") == (parse_syllable("jia"),)

    def test_missing(self):
        t = PinyinTable.from_pairs([("好", "hao3")])
        assert t.get("坏") == ()
        assert t.toneless_sets("坏") == [frozenset()]

    def test_from_file(self, tmp_path):
        p = tmp_path / "py.tsv"
        p.write_text("好\thao3\n# note\n参\tcan1\n参\tshen1\n", encoding="utf-8")
        t = PinyinTable.from_file(p)
        assert len(t) == 2
        assert len(t.get("参")) == 2

    @pytest.mark.parametrize("line", ["好 hao3", "好好\thao3", "好\t", "好\tha o"])
    def test_from_file_malformed(self, tmp_path, line):
        p = tmp_path / "py.tsv"
        p.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as ei:
            PinyinTable.from_file(p)
        assert "1" in str(ei.value)

    def test_from_file_parses_each_reading_once(self, monkeypatch):
        calls = []

        def counted(s):
            calls.append(s)
            return parse_syllable(s)

        monkeypatch.setattr(hanfix.pinyin, "parse_syllable", counted)
        t = PinyinTable.from_file(demo_pinyin_path())
        lines = [line.split("#", 1)[0].split("\t") for line in
                 demo_pinyin_path().read_text(encoding="utf-8-sig").splitlines()]
        pairs = [(parts[0], parts[1].strip()) for parts in lines if len(parts) == 2]
        readings = [r for _, r in pairs]
        assert sorted(calls) == sorted(set(readings)) and len(calls) < len(readings)
        monkeypatch.undo()
        per_line = PinyinTable.from_pairs(pairs)  # parses every line's reading
        assert {c: t.get(c) for c in t.characters()} == {
            c: per_line.get(c) for c in per_line.characters()}

    def test_from_file_names_the_first_bad_line(self, tmp_path):
        # a bad reading seen again later is reported at its first line
        p = tmp_path / "py.tsv"
        p.write_text("好\thao3\n参\tcxn1\n好\thao3\n家\tcxn1\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as ei:
            PinyinTable.from_file(p)
        assert (ei.value.path, ei.value.line_no) == (str(p), 2)
        assert str(ei.value).startswith(f"{p}:2: ")

    def test_toneless_readings_match_get(self):
        t = PinyinTable.from_file(demo_pinyin_path())
        for ch in t.characters():
            want = frozenset(map(str, t.get(ch)))
            assert t.toneless_sets(ch) == [want], ch
            # kept, not rebuilt per call
            assert t.toneless_sets(ch)[0] is t.toneless_sets(ch)[0]
        assert t.toneless_sets("\u2603") == [frozenset(
            map(str, t.get("\u2603")))] == [frozenset()]
        assert t.toneless_sets("参") == [{"can", "shen", "cen"}]

    def test_toneless_sets_of_a_text(self):
        t = PinyinTable.from_file(demo_pinyin_path())
        text = "参\u2603加参"
        got = t.toneless_sets(text)  # the first lookup of each character
        assert got == [t.toneless_sets(ch)[0] for ch in text]
        assert got[0] is got[3] is t.toneless_sets("参")[0]
        assert got[1] == frozenset() and t.toneless_sets("") == []


def test_module_doctests():
    result = doctest.testmod(hanfix.pinyin)
    assert result.attempted > 0 and result.failed == 0, result
