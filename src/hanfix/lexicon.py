"""Dictionary with two query paths: exact trie matching and fuzzy-pinyin
2-gram lookup.

The trie answers "which dictionary words appear literally at this span".
The 2-gram index answers "which two-character words *sound like* this pair
of characters" under the fuzzy confusion classes; it is what lets a
mistyped character still pull in the word it belongs to.  Only 2-character
entries are phonetically indexed — longer words still match via the trie.

A lexicon file stores the entries only, so lexicon_fingerprint() covers
the entries only.  The trie is rebuilt from them at load, and the 2-gram
index from their readings under the fuzzy table each query passes.

The trie is frozen once built.  The index of the last table queried sits in
one (table, index, window hits) slot that is replaced whole, so threads may
share a Lexicon: each reads the slot once and never pairs one table with
another table's index or hits.  Alternating tables rebuilds the index and
empties the hits each time.  The window-hits memo is the one part that
grows in place: rows are added with dict.setdefault, each entry is computed
whole and then stored in one dict assignment, and two threads that compute
the same entry store equal values.
The word rank (frequency order, for ranking lattice candidates), the
window-hit keys made from it and the rank-to-id array are built on first
use, not at construction, and likewise stored whole, each in one slot: two
threads may both build one, but each gets a complete and equal value.

A lattice key is one int, provenance << RANK_BITS | word rank, with
provenance 0 (EXACT), 1 (PINYIN_EXACT) or 2 (PINYIN_FUZZY).  The rank is one
per word, so int order is (provenance, rank) order and `key & RANK_MASK`
names the word.  Keys stay below 2**30, the largest ints CPython stores in
one digit and sorts on its fast path; so a lexicon holds at most 2**28 words.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    LexiconFormatError,
    MalformedLine,
    MissingPinyin,
    WordTooLong,
)
from .pinyin import (
    TONELESS_SYLLABLES,
    FuzzyClassTable,
    PinyinSyllable,
    PinyinTable,
    fuzzy_key,
    parse_syllable,
)

MAX_WORD_LEN = 4

_LEXICON_MAGIC = "hanfix-lexicon"
_LEXICON_VERSION = 3
_FILE_FIELDS = frozenset(("magic", "version", "entries"))

RANK_BITS = 28
RANK_MASK = (1 << RANK_BITS) - 1


@dataclass(frozen=True)
class WordEntry:
    """One dictionary word.

    `readings` holds every toneless reading per character, so polyphones
    like 长 keep both chang and zhang for matching; the 2-gram index reads
    one non-empty tuple per character.
    """

    word_id: int
    surface: str
    frequency: int
    readings: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not 1 <= len(self.surface) <= MAX_WORD_LEN:
            raise WordTooLong(self.surface)
        if len(self.readings) != len(self.surface):
            raise ValueError(
                f"{len(self.readings)} reading lists for the "
                f"{len(self.surface)} characters of {self.surface!r}"
            )
        if not all(self.readings):
            raise ValueError(f"a character of {self.surface!r} has no reading")


class _TrieNode:
    __slots__ = ("children", "word_ids")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.word_ids: list[int] = []


class Lexicon:
    """Immutable word dictionary; construct via build_lexicon() or load()."""

    def __init__(self, entries: list[WordEntry]):
        self.entries: tuple[WordEntry, ...] = tuple(entries)
        self._root = _TrieNode()
        self._index_memo: tuple[FuzzyClassTable | None, dict, dict] = (None, {}, {})
        # (word_rank(), word_order())
        self._rank_memo: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._hit_memo: tuple[tuple[int, int], ...] | None = None
        self._ids_memo: tuple[int, int, np.ndarray] | None = None
        self._by_surface: dict[str, int] = {}
        for e in self.entries:
            node = self._root
            for ch in e.surface:
                node = node.children.setdefault(ch, _TrieNode())
            node.word_ids.append(e.word_id)
            self._by_surface[e.surface] = e.word_id

    def __len__(self) -> int:
        return len(self.entries)

    def word_id(self, surface: str) -> int | None:
        return self._by_surface.get(surface)

    def surface(self, word_id: int) -> str:
        return self.entries[word_id].surface

    def word_rank(self) -> tuple[int, ...]:
        """rank[word_id]: the word's place when all entries are ordered by
        descending frequency, then word_id.  Built on first use."""
        return self._ranks()[0]

    def word_order(self) -> tuple[int, ...]:
        """order[rank]: the word_id of that rank, the inverse of word_rank()."""
        return self._ranks()[1]

    def _ranks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        ranks = self._rank_memo
        if ranks is None:
            entries = self.entries
            order = sorted(range(len(entries)), key=lambda w: (-entries[w].frequency, w))
            places = [0] * len(order)
            for place, wid in enumerate(order):
                places[wid] = place
            ranks = self._rank_memo = (tuple(places), tuple(order))
        return ranks

    def rank_ids(self, offset: int, pad: int) -> np.ndarray:
        """ids[rank] = word_order()[rank] + offset, and ids[len(self)] = pad:
        one gather maps ranks, and the pad rank len(self), to ids.  The
        read-only array of the last (offset, pad) is kept."""
        memo = self._ids_memo
        if memo is None or memo[:2] != (offset, pad):
            ids = np.append(np.array(self.word_order(), dtype=np.int64) + offset, pad)
            ids.flags.writeable = False
            memo = self._ids_memo = (offset, pad, ids)
        return memo[2]

    def _hit_keys(self) -> tuple[tuple[int, int], ...]:
        """keys[word_id]: the word's two possible window-hit keys, its rank
        with provenance 1 and with provenance 2.  Every window_hits entry
        shares these int objects, so it keeps one new tuple, not one int
        per hit.  Built on first use."""
        keys = self._hit_memo
        if keys is None:
            keys = self._hit_memo = tuple(
                (1 << RANK_BITS | r, 2 << RANK_BITS | r) for r in self.word_rank())
        return keys

    # ---------------------------------------------------------------- queries

    def trie_match_all(self, sentence: str) -> list[tuple[int, int, int]]:
        """Every (start, end, word_id) whose surface equals sentence[start:end+1].

        Positions are 0-based, end inclusive.  Overlaps allowed; output is
        sorted by (start, end, word_id).
        """
        out: list[tuple[int, int, int]] = []
        n = len(sentence)
        root = self._root.children
        for start, ch in enumerate(sentence):
            node = root.get(ch)
            end = start
            # the trie is at most MAX_WORD_LEN deep, so this walk is too
            while node is not None:
                for wid in node.word_ids:
                    out.append((start, end, wid))
                end += 1
                if end == n:
                    break
                node = node.children.get(sentence[end])
        return out

    def pinyin2gram_index(
        self, fuzzy: FuzzyClassTable
    ) -> dict[tuple[str, str], tuple[int, ...]]:
        """(fuzzy_key_a, fuzzy_key_b) -> word_ids of 2-char entries, ranked
        by descending frequency, then word_id.

        Built from the entries' readings; only the last table's index is kept.
        """
        return self._index_slot(fuzzy)[1]

    def _index_slot(self, fuzzy: FuzzyClassTable) -> tuple[FuzzyClassTable, dict, dict]:
        """(fuzzy, its 2-gram index, its window-hits memo: first reading set
        -> second reading set -> hits), built if the slot holds another
        table."""
        slot = self._index_memo
        if slot[0] is fuzzy:
            return slot
        pairs = sorted((e for e in self.entries if len(e.surface) == 2),
                       key=lambda e: (-e.frequency, e.word_id))
        key = {r: fuzzy_key(parse_syllable(r), fuzzy)
               for r in {r for e in pairs for rs in e.readings for r in rs}}
        ranked: dict[tuple[str, str], dict[int, None]] = {}
        for e in pairs:  # cross-product of polyphone readings
            for ra in e.readings[0]:
                for rb in e.readings[1]:
                    ranked.setdefault((key[ra], key[rb]), {})[e.word_id] = None
        index = {k: tuple(ids) for k, ids in ranked.items()}
        slot = self._index_memo = (fuzzy, index, {})
        return slot

    def pinyin_2gram_lookup(
        self, a: PinyinSyllable, b: PinyinSyllable, fuzzy: FuzzyClassTable
    ) -> list[int]:
        """2-char entries whose fuzzy-normalized pinyin pair matches (a, b).

        Ordered by descending frequency, then word_id.
        """
        key = (fuzzy_key(a, fuzzy), fuzzy_key(b, fuzzy))
        return list(self.pinyin2gram_index(fuzzy).get(key, ()))

    def window_hits(
        self, ptable: PinyinTable, fuzzy: FuzzyClassTable, a: str, b: str
    ) -> tuple[int, ...]:
        """The 2-char entries that sound like the window `a` `b`, as sorted
        lattice keys, one per word: provenance 1 (PINYIN_EXACT) when some
        reading of the word matches both characters' toneless readings
        literally, else 2 (PINYIN_FUZZY), over the word's word_rank().

        The hits are those of pinyin_2gram_lookup over every reading pair of
        the two characters, and they are remembered under the pair of the
        characters' toneless reading sets, beside the 2-gram index of
        `fuzzy`: a lookup reads only a syllable's fuzzy key, which reads
        only its initial and final, and toneless() is initial + final,
        which no other pair spells (no final starts with a consonant or
        with h).  So two characters with equal toneless reading sets get
        equal hits, in any PinyinTable, and a character without readings
        gets none.  The memo has no size limit: it holds one entry per pair
        of reading sets met, so at most the square of the number of distinct
        reading sets in the tables queried (3,600 for the 60 sets of the toy
        inventory); a different fuzzy table starts it afresh.
        """
        ra, rb = ptable.toneless_readings(a), ptable.toneless_readings(b)
        # one row per first set: no key tuple is built per window or kept per
        # entry (kept objects are what sets off the cyclic GC's full passes)
        memo = self._index_slot(fuzzy)[2]
        row = memo.get(ra)
        if row is None:
            row = memo.setdefault(ra, {})
        hits = row.get(rb)
        if hits is None:
            entries, keys = self.entries, self._hit_keys()
            # exactness reads the word and the two reading sets only, so a
            # word that several reading pairs find gets one hit
            found: dict[int, int] = {}
            for sa in ptable.get(a):
                for sb in ptable.get(b):
                    for wid in self.pinyin_2gram_lookup(sa, sb, fuzzy):
                        readings = entries[wid].readings
                        exact = not (ra.isdisjoint(readings[0]) or rb.isdisjoint(readings[1]))
                        found[wid] = keys[wid][0 if exact else 1]
            hits = row[rb] = tuple(sorted(found.values()))
        return hits

    # ------------------------------------------------------------ persistence

    def to_json(self) -> str:
        """Deterministic serialization: same lexicon -> identical bytes."""
        payload = {
            "magic": _LEXICON_MAGIC,
            "version": _LEXICON_VERSION,
            "entries": [
                {
                    "surface": e.surface,
                    "frequency": e.frequency,
                    "readings": [list(r) for r in e.readings],
                }
                for e in self.entries
            ],
        }
        return json.dumps(payload, ensure_ascii=False, sort_keys=True,
                          separators=(",", ":"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Lexicon":
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise LexiconFormatError(f"{path}: not a lexicon file ({e})") from e
        if not isinstance(payload, dict) or payload.get("magic") != _LEXICON_MAGIC:
            raise LexiconFormatError(f"{path}: missing magic header")
        if payload.get("version") != _LEXICON_VERSION:
            raise LexiconFormatError(
                f"{path}: unsupported version {payload.get('version')!r} "
                f"(expected {_LEXICON_VERSION}); rebuild it with `hanfix build-lexicon`"
            )
        unknown = payload.keys() - _FILE_FIELDS
        if unknown:
            raise LexiconFormatError(f"{path}: unknown field(s) {_names(unknown)}")
        try:
            _check_entries(payload["entries"])
            entries = [
                WordEntry(
                    word_id=i,
                    surface=d["surface"],
                    frequency=d["frequency"],
                    readings=tuple(tuple(r) for r in d["readings"]),
                )
                for i, d in enumerate(payload["entries"])
            ]
        except KeyError as e:
            raise LexiconFormatError(f"{path}: missing field {e}") from e
        except (TypeError, ValueError, WordTooLong) as e:
            raise LexiconFormatError(f"{path}: malformed field ({e})") from e
        return cls(entries)


_ENTRY_NAMES = ("surface", "frequency", "readings")
_ENTRY_FIELDS = itemgetter(*_ENTRY_NAMES)


def _names(fields) -> str:
    return ", ".join(sorted(fields))


def _only(kind: type, xs) -> bool:
    return {kind}.issuperset(map(type, xs))


def _check_entries(raw) -> None:
    """ValueError unless every serialized entry has exactly a non-empty
    string surface, a non-negative int frequency and one list of toneless
    syllables per character (KeyError when one of them is missing).

    Each test is a C loop over one field of all entries: checking entry by
    entry in Python made Lexicon.load ~12% slower.
    """
    if not raw:
        return
    surface, frequency, readings = zip(*map(_ENTRY_FIELDS, raw))
    # every entry holds the three fields, so a longer one holds another
    if set(map(len, raw)) != {len(_ENTRY_NAMES)}:
        raise ValueError(f"an entry holds unknown field(s) "
                         f"{_names(set().union(*raw).difference(_ENTRY_NAMES))}")
    if not _only(str, surface) or not all(surface):
        raise ValueError("an entry surface is not a non-empty string")
    if not _only(int, frequency) or min(frequency) < 0:
        raise ValueError("an entry frequency is not a non-negative int")
    if (not _only(list, readings) or list(map(len, readings)) != list(map(len, surface))
            or not _only(list, chain.from_iterable(readings))
            or not TONELESS_SYLLABLES.issuperset(
                chain.from_iterable(chain.from_iterable(readings)))):
        raise ValueError("entry readings are not one list of toneless syllables "
                         "per character")


def _parse_word_file(path: Path):
    """Yield (line_no, surface, frequency) from a `surface<TAB>frequency` TSV."""
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parts = line.split("\t")
        surface = parts[0].strip()
        if not surface or len(parts) > 2:
            raise MalformedLine(
                str(path), line_no, f"expected `word[<TAB>frequency]`, got {raw!r}"
            )
        freq = 1
        if len(parts) == 2:
            try:
                freq = int(parts[1])
            except ValueError:
                raise MalformedLine(
                    str(path), line_no, f"bad frequency {parts[1]!r}"
                ) from None
            if freq < 0:
                raise MalformedLine(str(path), line_no, f"negative frequency {freq}")
        yield line_no, surface, freq


def lexicon_from_words(
    words,
    pinyin_table: PinyinTable,
    fuzzy: FuzzyClassTable,
    labels=None,
) -> Lexicon:
    """Build a Lexicon from (surface, frequency) pairs, in order.

    word_ids follow input order.  A repeated surface merges into the first
    entry, summing frequencies.  Each character's toneless readings are
    kept once each, in table order.  Every character must have a reading in
    `pinyin_table` (MissingPinyin otherwise); words longer than 4 characters
    raise WordTooLong.  `labels` optionally names each item for errors.
    """
    entries: list[WordEntry] = []
    by_surface: dict[str, int] = {}
    toneless: dict[str, tuple[str, ...]] = {}  # char -> its readings, each once
    for pos, (surface, freq) in enumerate(words):
        where = labels[pos] if labels else f"word #{pos + 1}"
        if len(surface) > MAX_WORD_LEN:
            raise WordTooLong(surface)
        if surface in by_surface:
            wid = by_surface[surface]
            old = entries[wid]
            entries[wid] = WordEntry(wid, old.surface, old.frequency + freq, old.readings)
            continue
        readings = []
        for ch in surface:
            found = toneless.get(ch)
            if found is None:
                syls = pinyin_table.get(ch)
                if not syls:
                    raise MissingPinyin(ch, f"{where} word {surface!r}")
                # tone variants (中 zhong1, zhong4) share one toneless reading
                found = toneless[ch] = tuple(dict.fromkeys(s.toneless() for s in syls))
            readings.append(found)
        wid = len(entries)
        entries.append(WordEntry(wid, surface, freq, tuple(readings)))
        by_surface[surface] = wid

    lex = Lexicon(entries)
    lex.pinyin2gram_index(fuzzy)  # ready to query under the build table
    return lex


def build_lexicon(
    word_file: str | Path,
    pinyin_table: PinyinTable,
    fuzzy: FuzzyClassTable,
) -> Lexicon:
    """Build the dictionary from a `surface<TAB>frequency` word file."""
    path = Path(word_file)
    words, labels = [], []
    for line_no, surface, freq in _parse_word_file(path):
        words.append((surface, freq))
        labels.append(f"{path}:{line_no}")
    return lexicon_from_words(words, pinyin_table, fuzzy, labels=labels)


def lexicon_fingerprint(lex: Lexicon) -> str:
    """CRC32 of the canonical serialization (the entries only); handy for
    determinism checks."""
    return f"{zlib.crc32(lex.to_json().encode('utf-8')):08x}"
