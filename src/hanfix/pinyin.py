"""Pinyin syllables, reading tables, and fuzzy phonetic equivalence.

A syllable is stored as (initial, final), its written form without a tone:
every use of a reading here (the lexicon's 2-gram index, a window's
PINYIN_EXACT test, the lexicon file and the noise generator) reads that form
only, so a tone digit is accepted and dropped when a syllable is parsed.
The initial is one of the 23 standard onsets (y/w included) or empty; the
final is one of the written finals below.  Parsing accepts any
initial+final combination, not just syllables attested in a dictionary:
canonical keys produced by fuzzy-class substitution (e.g. neng -> len) must
themselves re-parse, so the valid set has to be closed under that
substitution.

Fuzzy equivalence groups initials and finals into confusion classes
(flat/retroflex tongue, front/back nasal, ...).  Two syllables are
equivalent when both their initials and finals fall in the same classes.

    >>> parse_syllable("chan2")
    PinyinSyllable(initial='ch', final='an')
    >>> fuzzy_key(parse_syllable("chan"), FuzzyClassTable.default())
    'can'
"""

from __future__ import annotations

from dataclasses import dataclass
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

# Every string parse_syllable accepts without a tone digit; each one parses
# back into the initial and final it was built from.
TONELESS_SYLLABLES = frozenset(i + f for i in ("",) + INITIALS for f in FINALS)


@dataclass(frozen=True)
class PinyinSyllable:
    """One character's pronunciation, decomposed for segment-level matching;
    str() is its written form, e.g. 'zhang'."""

    initial: str
    final: str

    def __post_init__(self):
        if self.initial and self.initial not in _INITIAL_SET:
            raise InvalidSyllable(self.initial + self.final, "unknown initial")
        if self.final not in _FINAL_SET:
            raise InvalidSyllable(self.initial + self.final, "unknown final")

    def __str__(self) -> str:
        return self.initial + self.final


def parse_syllable(s: str) -> PinyinSyllable:
    """Split a pinyin string into (initial, final).

    Accepts lowercase ASCII with an optional trailing ASCII tone digit 0-4,
    which is dropped; any other trailing digit, such as "5", a fullwidth
    "３" or a superscript "²", is rejected.  The longest matching initial
    wins, so "zhan" is zh+an, never z+han.  Raises InvalidSyllable for
    anything outside the closed syllable set.
    """
    if not s:
        raise InvalidSyllable(s, "empty string")
    body = s
    if body[-1].isdigit():  # any Unicode digit; only an ASCII 0-4 is a tone
        if body[-1] not in "01234":
            raise InvalidSyllable(s, "tone digit must be 0-4")
        body = body[:-1]
    if not body or not body.isascii() or not body.islower():
        raise InvalidSyllable(s, "expected lowercase ASCII letters")
    for initial in INITIALS:  # two-letter initials listed first
        if body.startswith(initial):
            final = body[len(initial):]
            if final in _FINAL_SET:
                return PinyinSyllable(initial, final)
            raise InvalidSyllable(s, f"no final {final!r} after {initial!r}")
    if body in _FINAL_SET:
        return PinyinSyllable("", body)
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

    def initial_rep(self, initial: str) -> str:
        return self._initial_rep[initial]

    def final_rep(self, final: str) -> str:
        return self._final_rep[final]

    def initial_class(self, initial: str) -> tuple[str, ...]:
        """All initials confusable with `initial`, itself included, sorted."""
        rep = self._initial_rep[initial]
        return tuple(sorted(m for m, r in self._initial_rep.items() if r == rep))

    def final_class(self, final: str) -> tuple[str, ...]:
        """All finals confusable with `final`, itself included, sorted."""
        rep = self._final_rep[final]
        return tuple(sorted(m for m, r in self._final_rep.items() if r == rep))


def fuzzy_key(s: PinyinSyllable, table: FuzzyClassTable) -> str:
    """Canonical key: class representatives of initial and final.

    Two syllables collide on this key exactly when they are confusable
    under `table`.  The key is itself a parseable syllable string.
    """
    return table.initial_rep(s.initial) + table.final_rep(s.final)


def syllables_equivalent(
    a: PinyinSyllable, b: PinyinSyllable, table: FuzzyClassTable
) -> bool:
    """True iff a and b share fuzzy initial and final classes."""
    return fuzzy_key(a, table) == fuzzy_key(b, table)


_NO_READINGS: frozenset[str] = frozenset()


class PinyinTable:
    """Character -> readings map (polyphones keep every reading, each once,
    in first-seen order)."""

    def __init__(self, readings: dict[str, tuple[PinyinSyllable, ...]]):
        self._readings = {c: tuple(dict.fromkeys(r)) for c, r in readings.items()}
        # char -> the written forms of its readings, read by toneless_sets
        self._sets = {c: frozenset(map(str, r)) for c, r in self._readings.items()}

    @classmethod
    def from_pairs(cls, pairs) -> "PinyinTable":
        """Build from (char, syllable_string) pairs; duplicates accumulate."""
        readings: dict[str, list[PinyinSyllable]] = {}
        for char, syl in pairs:
            parsed = syl if isinstance(syl, PinyinSyllable) else parse_syllable(syl)
            readings.setdefault(char, []).append(parsed)
        return cls(readings)

    @classmethod
    def from_file(cls, path: str | Path) -> "PinyinTable":
        """Load a UTF-8 TSV of `char<TAB>reading` lines (tone digit optional
        and dropped, so tone variants of a reading are one reading).

        Repeat a character on multiple lines to record polyphone readings.
        Blank lines and '#' comments are skipped.
        """
        path = Path(path)
        pairs = []
        parsed: dict[str, PinyinSyllable] = {}  # each distinct reading parsed once
        for line_no, raw in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), 1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2 or len(parts[0]) != 1 or not parts[1]:
                raise MalformedLine(
                    str(path), line_no, f"expected `char<TAB>reading`, got {raw!r}"
                )
            reading = parts[1].strip()
            syllable = parsed.get(reading)
            if syllable is None:
                try:
                    syllable = parsed[reading] = parse_syllable(reading)
                except InvalidSyllable as e:
                    raise MalformedLine(str(path), line_no, str(e)) from e
            pairs.append((parts[0], syllable))
        return cls.from_pairs(pairs)

    def get(self, char: str) -> tuple[PinyinSyllable, ...]:
        """All readings of `char`; () for an unknown character."""
        return self._readings.get(char, ())

    def toneless_sets(self, text: str) -> list[frozenset[str]]:
        """The written forms of get(ch) for each character ch of `text`, e.g.
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
