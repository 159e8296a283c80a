"""Pinyin readings, reading tables, and fuzzy phonetic equivalence.

A reading is its toneless written form, a str such as 'zhang': every use of
a reading here (the lexicon's 2-gram index, a window's PINYIN_EXACT test,
the lexicon file and the noise generator) reads that form only, so a tone
digit is accepted and dropped when a syllable is parsed.  A reading is an
initial, one of the 23 standard onsets (y/w included) or empty, followed
by one of the written finals below.  Parsing accepts any initial+final
combination, not just syllables attested in a dictionary: canonical keys
produced by fuzzy-class substitution (e.g. neng -> len) must themselves
re-parse, so the valid set has to be closed under that substitution.

Fuzzy equivalence groups initials and finals into confusion classes
(flat/retroflex tongue, front/back nasal, ...).  Two readings are
equivalent when both their initials and finals fall in the same classes,
which is when their fuzzy keys are equal.

    >>> parse_syllable("chan2")
    'chan'
    >>> fuzzy_key("chan", FuzzyClassTable.default())
    'can'
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from pathlib import Path

from .errors import InvalidSyllable, MalformedLine

# Standard initials, two-letter ones first so that the longest-prefix match
# picks zh/ch/sh over z/c/s.
INITIALS = (
    "zh", "ch", "sh",
    "b", "p", "m", "f", "d", "t", "n", "l",
    "g", "k", "h", "j", "q", "x", "r",
    "z", "c", "s", "y", "w",
)

# Written finals ("v" stands for u-umlaut as in nv/lv; "ue"/"ve" are the
# written forms after j/q/x/y and n/l respectively).
FINALS = (
    "a", "o", "e", "i", "u", "v",
    "ai", "ei", "ui", "ao", "ou", "iu", "ie", "ue", "ve", "er",
    "an", "en", "in", "un", "vn",
    "ang", "eng", "ing", "ong",
    "ia", "iao", "ian", "iang", "iong",
    "ua", "uo", "uai", "uan", "uang",
)

_INITIAL_SET = frozenset(INITIALS)
_FINAL_SET = frozenset(FINALS)

# The readings: every string parse_syllable returns.  No final starts with a
# consonant or with h, so each is spelled by one initial and final only.
TONELESS_SYLLABLES = frozenset(i + f for i in ("",) + INITIALS for f in FINALS)


def parse_syllable(s: str) -> str:
    """The toneless reading that a pinyin string spells, e.g. 'zhang' for
    "zhang1".

    Accepts lowercase ASCII with an optional trailing ASCII tone digit 0-4,
    which is dropped; any other trailing digit, such as "5", a fullwidth
    "３" or a superscript "²", is rejected.  Raises InvalidSyllable for
    anything outside the closed syllable set, naming the longest initial
    the string starts with when no final follows it, so "zhxx" is zh+xx,
    never z+hxx.
    """
    if not s:
        raise InvalidSyllable(s, "empty string")
    body = s
    if body[-1].isdigit():  # any Unicode digit; only an ASCII 0-4 is a tone
        if body[-1] not in "01234":
            raise InvalidSyllable(s, "tone digit must be 0-4")
        body = body[:-1]
    if body in TONELESS_SYLLABLES:
        return body
    if not body or not body.isascii() or not body.islower():
        raise InvalidSyllable(s, "expected lowercase ASCII letters")
    for initial in INITIALS:  # two-letter initials listed first
        if body.startswith(initial):
            raise InvalidSyllable(s, f"no final {body[len(initial):]!r} after {initial!r}")
    raise InvalidSyllable(s, "no initial or final matches")


class _BadClass(ValueError):
    """A fuzzy class that FuzzyClassTable rejects, with its place in the
    class list."""

    def __init__(self, index: int, reason: str):
        self.index = index
        super().__init__(reason)


class FuzzyClassTable:
    """Partitions of initials and finals into confusable classes.

    Built from the non-trivial classes only; everything unmentioned becomes
    a singleton class, so both partitions always cover the full inventory.
    """

    def __init__(self, classes: list[list[str]] | tuple = ()):
        initial_classes: list[tuple[str, ...]] = []
        final_classes: list[tuple[str, ...]] = []
        seen_i: set[str] = set()
        seen_f: set[str] = set()
        for index, members in enumerate(classes):
            members = tuple(members)
            if len(set(members)) != len(members) or not members:
                raise _BadClass(index, f"bad fuzzy class: {members!r}")
            if all(m in _INITIAL_SET for m in members):
                if seen_i & set(members):
                    raise _BadClass(index, f"initial repeated across classes: {members!r}")
                seen_i |= set(members)
                initial_classes.append(members)
            elif all(m in _FINAL_SET for m in members):
                if seen_f & set(members):
                    raise _BadClass(index, f"final repeated across classes: {members!r}")
                seen_f |= set(members)
                final_classes.append(members)
            else:
                raise _BadClass(
                    index,
                    f"fuzzy class mixes initials and finals (or has unknown "
                    f"members): {members!r}",
                )
        # complete to full partitions with singletons
        initial_classes += [(i,) for i in INITIALS if i not in seen_i]
        initial_classes += [("",)]
        final_classes += [(f,) for f in FINALS if f not in seen_f]
        self.initial_classes: tuple[tuple[str, ...], ...] = tuple(initial_classes)
        self.final_classes: tuple[tuple[str, ...], ...] = tuple(final_classes)
        # member -> lexicographically smallest member of its class
        self._initial_rep = {m: min(c) for c in self.initial_classes for m in c}
        self._final_rep = {m: min(c) for c in self.final_classes for m in c}

    # The confusion pairs every deployment gets unless overridden: flat vs
    # retroflex tongue (z/zh c/ch s/sh), front vs back nasal (an/ang en/eng
    # in/ing), plus the common l/n and f/h mixups.
    DEFAULT_CLASSES = (
        ("z", "zh"), ("c", "ch"), ("s", "sh"), ("l", "n"), ("f", "h"),
        ("an", "ang"), ("en", "eng"), ("in", "ing"),
    )

    @classmethod
    def default(cls) -> "FuzzyClassTable":
        return cls(cls.DEFAULT_CLASSES)

    @classmethod
    def from_file(cls, path: str | Path) -> "FuzzyClassTable":
        """Load classes from a UTF-8 file, one class per line, members
        space-separated (e.g. "z zh").  '#' starts a comment."""
        path = Path(path)
        classes, line_nos = [], []
        for line_no, raw in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                classes.append(line.split())
                line_nos.append(line_no)
        try:
            return cls(classes)
        except _BadClass as e:
            raise MalformedLine(str(path), line_nos[e.index], str(e)) from e

    @cached_property
    def _keys(self) -> dict[str, str]:
        """Reading -> fuzzy key, for each of TONELESS_SYLLABLES; built on
        first use and kept."""
        ir, fr = self._initial_rep, self._final_rep
        return {i + f: ir[i] + fr[f] for i in ("",) + INITIALS for f in FINALS}

    def initial_class(self, initial: str) -> tuple[str, ...]:
        """All initials confusable with `initial`, itself included, sorted."""
        rep = self._initial_rep[initial]
        return tuple(sorted(m for m, r in self._initial_rep.items() if r == rep))

    def final_class(self, final: str) -> tuple[str, ...]:
        """All finals confusable with `final`, itself included, sorted."""
        rep = self._final_rep[final]
        return tuple(sorted(m for m, r in self._final_rep.items() if r == rep))


def fuzzy_key(reading: str, table: FuzzyClassTable) -> str:
    """Canonical key: the class representatives of the reading's initial
    and final, e.g. 'can' for 'chan' under the default table.

    Two readings collide on this key exactly when they are confusable
    under `table`.  The key is itself a reading.  Raises InvalidSyllable
    for a string that is not a toneless reading.
    """
    key = table._keys.get(reading)
    if key is None:
        raise InvalidSyllable(reading, "not a toneless reading")
    return key


_NO_READINGS: frozenset[str] = frozenset()


class PinyinTable:
    """Character -> readings map (polyphones keep every reading, each once,
    in first-seen order)."""

    def __init__(self, readings: dict[str, tuple[str, ...]]):
        """InvalidSyllable for a reading outside TONELESS_SYLLABLES, such as
        'can1': parse_syllable makes a reading of a table's string."""
        if not TONELESS_SYLLABLES.issuperset(chain.from_iterable(readings.values())):
            bad = next(r for r in chain.from_iterable(readings.values())
                       if r not in TONELESS_SYLLABLES)
            raise InvalidSyllable(bad, "not a toneless reading")
        self._readings = {c: tuple(dict.fromkeys(r)) for c, r in readings.items()}
        # char -> the set of its readings, read by toneless_sets
        self._sets = {c: frozenset(r) for c, r in self._readings.items()}

    @classmethod
    def from_pairs(cls, pairs) -> "PinyinTable":
        """Build from (char, syllable_string) pairs; duplicates accumulate.
        Each distinct string is parsed once."""
        parsed: dict[str, str] = {}
        readings: dict[str, list[str]] = {}
        for char, syl in pairs:
            reading = parsed.get(syl)
            if reading is None:
                reading = parsed[syl] = parse_syllable(syl)
            readings.setdefault(char, []).append(reading)
        return cls(readings)

    @classmethod
    def from_file(cls, path: str | Path) -> "PinyinTable":
        """Load a UTF-8 TSV of `char<TAB>reading` lines (tone digit optional
        and dropped, so tone variants of a reading are one reading).

        Repeat a character on multiple lines to record polyphone readings.
        Blank lines and '#' comments are skipped.  Each distinct reading is
        parsed once; a bad one is reported at its first line.
        """
        path = Path(path)
        parsed: dict[str, str] = {}
        readings: dict[str, list[str]] = {}
        for line_no, raw in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), 1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2 or len(parts[0]) != 1 or not parts[1]:
                raise MalformedLine(
                    str(path), line_no, f"expected `char<TAB>reading`, got {raw!r}"
                )
            text = parts[1].strip()
            reading = parsed.get(text)
            if reading is None:
                try:
                    reading = parsed[text] = parse_syllable(text)
                except InvalidSyllable as e:
                    raise MalformedLine(str(path), line_no, str(e)) from e
            readings.setdefault(parts[0], []).append(reading)
        return cls(readings)

    def get(self, char: str) -> tuple[str, ...]:
        """All readings of `char`; () for an unknown character."""
        return self._readings.get(char, ())

    def toneless_sets(self, text: str) -> list[frozenset[str]]:
        """The set of get(ch) for each character ch of `text`, e.g.
        {'can', 'shen'} for a 参 read can and shen; empty for unknown
        characters.  Each set is built with the table, so a character's
        set is one object.  A list comprehension: at a sentence's length its
        fixed cost is below list(map(...))'s."""
        sets = self._sets
        return [sets.get(ch, _NO_READINGS) for ch in text]

    def __len__(self) -> int:
        return len(self._readings)

    def characters(self):
        return self._readings.keys()
