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
    TONELESS_SYLLABLES,
    FuzzyClassTable,
    PinyinTable,
    fuzzy_key,
    parse_syllable,
)

# (initial, final) of every reading; a reading is their concatenation
ALL_PARTS = [(i, f) for i in INITIALS + ("",) for f in FINALS]

parts_st = st.tuples(st.sampled_from(INITIALS + ("",)), st.sampled_from(FINALS))


# Independent re-derivation of the default class representatives.  Kept as
# literal data so a regression in FuzzyClassTable can't hide in shared code.
ORACLE_INITIAL_REP = {"zh": "z", "ch": "c", "sh": "s", "n": "l", "h": "f"}
ORACLE_FINAL_REP = {"ang": "an", "eng": "en", "ing": "in"}


def oracle_key(initial, final):
    return ORACLE_INITIAL_REP.get(initial, initial) + ORACLE_FINAL_REP.get(final, final)


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
        assert s == initial + final
        assert s + (str(tone) if tone else "") == text

    def test_longest_prefix_wins(self):
        # "zhan" must be zh+an; a greedy single-letter match would try z+han
        t = FuzzyClassTable([("zh", "j"), ("sh", "b")])
        assert parse_syllable("zhan") == "zhan" and fuzzy_key("zhan", t) == "jan"
        assert parse_syllable("shi4") == "shi" and fuzzy_key("shi", t) == "bi"
        with pytest.raises(InvalidSyllable, match="no final 'xx' after 'zh'"):
            parse_syllable("zhxx")

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

    def test_round_trip_whole_inventory(self):
        # the syllable set is the full initial x final cross product, closed
        # by construction; any member must parse to itself, toned or not
        assert len(TONELESS_SYLLABLES) == len(ALL_PARTS) == 840
        for s in TONELESS_SYLLABLES:
            assert parse_syllable(s) == s
            assert parse_syllable(f"{s}3") == s

    @given(parts_st)
    def test_round_trip_property(self, parts):
        s = "".join(parts)
        assert parse_syllable(s) == s
        assert s in TONELESS_SYLLABLES


class TestFuzzy:
    def test_default_reps(self):
        # a key is the initial's representative, then the final's
        t = FuzzyClassTable.default()
        for initial, rep in [("zh", "z"), ("z", "z"), ("n", "l"), ("h", "f"),
                             ("b", "b"), ("", "")]:
            assert fuzzy_key(initial + "a", t) == rep + "a"
        for final, rep in [("ang", "an"), ("ing", "in"), ("ong", "ong")]:
            assert fuzzy_key("b" + final, t) == "b" + rep

    def test_class_accessors(self):
        t = FuzzyClassTable.default()
        assert t.initial_class("zh") == ("z", "zh")
        assert t.initial_class("z") == ("z", "zh")
        assert t.initial_class("b") == ("b",)
        assert t.final_class("ang") == ("an", "ang")
        assert t.final_class("ong") == ("ong",)

    def test_key_matches_independent_oracle(self):
        t = FuzzyClassTable.default()
        for initial, final in ALL_PARTS:
            assert fuzzy_key(initial + final, t) == oracle_key(initial, final)

    def test_key_examples(self):
        t = FuzzyClassTable.default()
        assert fuzzy_key(parse_syllable("chan"), t) == "can"
        assert fuzzy_key(parse_syllable("zhang1"), t) == "zan"
        assert fuzzy_key(parse_syllable("neng"), t) == "len"
        assert fuzzy_key(parse_syllable("hua4"), t) == "fua"
        assert fuzzy_key(parse_syllable("jia"), t) == "jia"

    @pytest.mark.parametrize("bad", ["zz", "", "can1", "ZHANG", "zhxx"])
    def test_key_of_a_non_reading_is_invalid_syllable(self, bad):
        # not a KeyError: a string that is no reading is a syllable error
        with pytest.raises(InvalidSyllable, match="not a toneless reading"):
            fuzzy_key(bad, FuzzyClassTable.default())

    def test_key_is_parseable_and_idempotent(self):
        t = FuzzyClassTable.default()
        for s in TONELESS_SYLLABLES:
            k = fuzzy_key(s, t)
            assert parse_syllable(k) == k
            assert fuzzy_key(k, t) == k

    def test_tone_ignored(self):
        t = FuzzyClassTable.default()
        assert parse_syllable("can1") == parse_syllable("can4") == "can"
        assert fuzzy_key(parse_syllable("can1"), t) == fuzzy_key(parse_syllable("can4"), t)

    @given(parts_st, parts_st, parts_st)
    @settings(max_examples=300)
    def test_equivalence_relation(self, a, b, c):
        # "same initial class and same final class", read off the class
        # accessors, is an equivalence relation: the classes partition
        t = FuzzyClassTable.default()

        def equivalent(x, y):
            return y[0] in t.initial_class(x[0]) and y[1] in t.final_class(x[1])

        assert equivalent(a, a)
        assert equivalent(a, b) == equivalent(b, a)
        if equivalent(a, b) and equivalent(b, c):
            assert equivalent(a, c)

    @given(parts_st, parts_st)
    @settings(max_examples=300)
    def test_equivalence_iff_same_key(self, a, b):
        t = FuzzyClassTable.default()
        same_classes = (t.initial_class(a[0]) == t.initial_class(b[0])
                        and t.final_class(a[1]) == t.final_class(b[1]))
        assert same_classes == (fuzzy_key("".join(a), t) == fuzzy_key("".join(b), t))

    def test_empty_table_is_identity(self):
        t = FuzzyClassTable()
        for s in TONELESS_SYLLABLES:
            assert fuzzy_key(s, t) == s

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
        assert fuzzy_key("zha", t) == "za"
        assert fuzzy_key("bang", t) == "ban"
        assert fuzzy_key("cha", t) == "cha"  # untouched -> singleton

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
        assert t.get("参") == ("can", "shen")
        assert t.get("加") == ("jia",)

    def test_constructor_validates(self):
        # the constructor takes readings, not strings to parse: a toned or
        # unknown one is refused
        for bad in ("can1", "qq", "", "CAN"):
            with pytest.raises(InvalidSyllable, match="not a toneless reading") as ei:
                PinyinTable({"加": ("jia",), "参": ("can", bad)})
            assert ei.value.text == bad
        assert PinyinTable({"参": ("can", "can", "shen")}).get("参") == ("can", "shen")

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
        per_line = PinyinTable.from_pairs(pairs)
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
            want = frozenset(t.get(ch))
            assert t.toneless_sets(ch) == [want], ch
            # kept, not rebuilt per call
            assert t.toneless_sets(ch)[0] is t.toneless_sets(ch)[0]
        assert t.toneless_sets("\u2603") == [frozenset(t.get("\u2603"))] == [frozenset()]
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
