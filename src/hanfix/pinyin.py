"""Pinyin syllables, reading tables, and fuzzy phonetic equivalence.

A syllable is stored as (initial, final, tone).  The initial is one of the
23 standard onsets (y/w included) or empty; the final is one of the written
finals below; the tone is 0-4 with 0 meaning neutral/unspecified.  Parsing
accepts any initial+final combination, not just syllables attested in a
dictionary: canonical keys produced by fuzzy-class substitution (e.g.
neng -> len) must themselves re-parse, so the valid set has to be closed
under that substitution.

Fuzzy equivalence groups initials and finals into confusion classes
(flat/retroflex tongue, front/back nasal, ...).  Two syllables are
equivalent when both their initials and finals fall in the same classes,
tones ignored.

    >>> parse_syllable("chan")
    PinyinSyllable(initial='ch', final='an', tone=0)
    >>> fuzzy_key(parse_syllable("chan"), FuzzyClassTable.default())
    'can'
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidSyllable, MalformedLine, MissingPinyin

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
    """One character's pronunciation, decomposed for segment-level matching."""

    initial: str
    final: str
    tone: int = 0

    def __post_init__(self):
        if self.initial and self.initial not in _INITIAL_SET:
            raise InvalidSyllable(self.initial + self.final, "unknown initial")
        if self.final not in _FINAL_SET:
            raise InvalidSyllable(self.initial + self.final, "unknown final")
        if not 0 <= self.tone <= 4:
            raise InvalidSyllable(
                f"{self.initial}{self.final}{self.tone}", "tone out of range"
            )

    def toneless(self) -> str:
        """Written form without the tone digit, e.g. 'zhang'."""
        return self.initial + self.final

    def __str__(self) -> str:
        if self.tone:
            return f"{self.initial}{self.final}{self.tone}"
        return self.initial + self.final


def parse_syllable(s: str) -> PinyinSyllable:
    """Split a pinyin string into (initial, final, tone).

    Accepts lowercase ASCII with an optional trailing tone digit 0-4.
    The longest matching initial wins, so "zhan" is zh+an, never z+han.
    Raises InvalidSyllable for anything outside the closed syllable set.
    """
    if not s:
        raise InvalidSyllable(s, "empty string")
    tone = 0
    body = s
    if body[-1].isdigit():
        tone = int(body[-1])
        body = body[:-1]
        if tone > 4:
            raise InvalidSyllable(s, "tone digit must be 0-4")
    if not body or not body.isascii() or not body.islower():
        raise InvalidSyllable(s, "expected lowercase ASCII letters")
    for initial in INITIALS:  # two-letter initials listed first
        if body.startswith(initial):
            final = body[len(initial):]
            if final in _FINAL_SET:
                return PinyinSyllable(initial, final, tone)
            raise InvalidSyllable(s, f"no final {final!r} after {initial!r}")
    if body in _FINAL_SET:
        return PinyinSyllable("", body, tone)
    raise InvalidSyllable(s, "no initial or final matches")


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
        for members in classes:
            members = tuple(members)
            if len(set(members)) != len(members) or not members:
                raise ValueError(f"bad fuzzy class: {members!r}")
            if all(m in _INITIAL_SET for m in members):
                if seen_i & set(members):
                    raise ValueError(f"initial repeated across classes: {members!r}")
                seen_i |= set(members)
                initial_classes.append(members)
            elif all(m in _FINAL_SET for m in members):
                if seen_f & set(members):
                    raise ValueError(f"final repeated across classes: {members!r}")
                seen_f |= set(members)
                final_classes.append(members)
            else:
                raise ValueError(
                    f"fuzzy class mixes initials and finals (or has unknown "
                    f"members): {members!r}"
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
        classes = []
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                classes.append(line.split())
        try:
            return cls(classes)
        except ValueError as e:
            raise MalformedLine(str(path), 0, str(e)) from e

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
    """Canonical toneless key: class representatives of initial and final.

    Two syllables collide on this key exactly when they are confusable
    under `table`.  The key is itself a parseable syllable string.
    """
    return table.initial_rep(s.initial) + table.final_rep(s.final)


def syllables_equivalent(
    a: PinyinSyllable, b: PinyinSyllable, table: FuzzyClassTable
) -> bool:
    """True iff a and b share fuzzy initial and final classes (tones ignored)."""
    return fuzzy_key(a, table) == fuzzy_key(b, table)


class _TonelessSets(dict):
    """char -> frozenset of the toneless forms of its readings, filled on the
    first lookup of a character; an unknown character reads as the empty
    set and is not kept."""

    __slots__ = ("_readings",)

    def __init__(self, readings: dict[str, tuple[PinyinSyllable, ...]]):
        super().__init__()
        self._readings = readings

    def __missing__(self, char: str) -> frozenset[str]:
        syllables = self._readings.get(char)
        if syllables is None:
            return frozenset()
        found = self[char] = frozenset(s.toneless() for s in syllables)
        return found


class PinyinTable:
    """Character -> readings map (polyphones keep every reading)."""

    def __init__(self, readings: dict[str, tuple[PinyinSyllable, ...]]):
        self._readings = dict(readings)
        self._toneless = _TonelessSets(self._readings)

    @classmethod
    def from_pairs(cls, pairs) -> "PinyinTable":
        """Build from (char, syllable_string) pairs; duplicates accumulate."""
        readings: dict[str, list[PinyinSyllable]] = {}
        for char, syl in pairs:
            parsed = syl if isinstance(syl, PinyinSyllable) else parse_syllable(syl)
            bucket = readings.setdefault(char, [])
            if parsed not in bucket:
                bucket.append(parsed)
        return cls({c: tuple(r) for c, r in readings.items()})

    @classmethod
    def from_file(cls, path: str | Path) -> "PinyinTable":
        """Load a UTF-8 TSV of `char<TAB>reading` lines (tone digit optional).

        Repeat a character on multiple lines to record polyphone readings.
        Blank lines and '#' comments are skipped.
        """
        path = Path(path)
        pairs = []
        for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2 or len(parts[0]) != 1 or not parts[1]:
                raise MalformedLine(
                    str(path), line_no, f"expected `char<TAB>reading`, got {raw!r}"
                )
            try:
                pairs.append((parts[0], parse_syllable(parts[1].strip())))
            except InvalidSyllable as e:
                raise MalformedLine(str(path), line_no, str(e)) from e
        return cls.from_pairs(pairs)

    def readings(self, char: str) -> tuple[PinyinSyllable, ...]:
        """All readings of `char`; raises MissingPinyin when unknown."""
        try:
            return self._readings[char]
        except KeyError:
            raise MissingPinyin(char) from None

    def get(self, char: str) -> tuple[PinyinSyllable, ...]:
        """Like readings() but returns () for unknown characters."""
        return self._readings.get(char, ())

    def toneless_readings(self, char: str) -> frozenset[str]:
        """The toneless written forms of get(char), e.g. {'can', 'shen'} for
        a 参 read can1 and shen1; empty for unknown characters.  Built on the
        first request for a character and kept."""
        return self._toneless[char]

    def toneless_sets(self, text: str) -> list[frozenset[str]]:
        """toneless_readings of each character of `text`, in one C-level
        pass over the kept sets."""
        return list(map(self._toneless.__getitem__, text))

    def __len__(self) -> int:
        return len(self._readings)

    def characters(self):
        return self._readings.keys()
