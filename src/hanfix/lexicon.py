"""Dictionary with two kinds of query: exact matching and fuzzy-pinyin
2-gram lookup.

Exact matching answers "which dictionary words appear literally at this
span", by looking each substring of a word length up in a surface index.
The 2-gram index answers "which two-character words *sound like* this pair
of characters" under the fuzzy confusion classes; it is what lets a
mistyped character still pull in the word it belongs to.  Only 2-character
entries are phonetically indexed — longer words still match exactly.

A Lexicon keeps its words as three columns indexed by word id: `surfaces`,
`frequencies` and `readings`, which are also its one constructor's
arguments.  lexicon_from_words() and Lexicon.load() check their own input
and then call it; building, loading and saving read and write the columns,
never one object per word.  Word ids are positions, and surfaces are
distinct.  A lexicon file (format version 4) stores the three columns as
they are, as JSON lists indexed by word id, so lexicon_fingerprint() covers
the columns only; everything else is derived from the columns, with one of
three lifetimes:

* Built with the lexicon, and frozen: the surface index and the word
  ranking.  The surface index is a dict from surface to word id, beside the
  sorted tuple of the surfaces' lengths.  `rank[word_id]` is the word's
  place when the words are ordered by descending frequency, then word id,
  and `order[place]` is the word id at that place.
* Built on first use, and kept, as cached properties: `entries` (the words
  as WordEntry tuples), `order_ids` (`order` as a read-only int64 array)
  and the window-hit keys.  A lexicon built only to be saved never pays for
  them.  Each is computed whole and then stored in one assignment: two
  threads may both build one (a cached property takes no lock from Python
  3.12 on), but each gets a complete and equal value.
* Built per fuzzy table, on that table's first query, for built and loaded
  lexicons alike, so a lexicon built only to be saved pays for none: the
  table's 2-gram index and its window memo, one entry per table, stored
  with one setdefault in a mapping that holds its tables weakly.  No entry
  refers to its table, so a lexicon keeps no table alive, and an entry goes
  with its table.  So threads may share a Lexicon, each under its own
  table, and using one table never rebuilds or empties another's entry.
  The window memo is the one part that grows in place: rows are added with
  dict.setdefault, each entry (a window's ranked hits and a fixed-size bit
  filter of their words, see probe_windows and _window_entry) is computed
  whole and then stored in one dict assignment, and two threads that
  compute the same entry store equal values.

A lattice key is one int, provenance << RANK_BITS | word rank, with
provenance 0 (EXACT), 1 (PINYIN_EXACT) or 2 (PINYIN_FUZZY).  The rank is one
per word, so int order is (provenance, rank) order and `key & RANK_MASK`
names the word.  Keys stay below 2**30, the largest ints CPython stores in
one digit and sorts on its fast path; so a lexicon holds at most 2**28 words.
"""

from __future__ import annotations

import json
import weakref
import zlib
from functools import cached_property
from itertools import chain, islice, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    LexiconFormatError,
    MalformedLine,
    MissingPinyin,
    WordTooLong,
)
from .pinyin import TONELESS_SYLLABLES, FuzzyClassTable, PinyinTable, fuzzy_key

MAX_WORD_LEN = 4

_LEXICON_MAGIC = "hanfix-lexicon"
_LEXICON_VERSION = 4
_COLUMNS = ("surfaces", "frequencies", "readings")
_FILE_FIELDS = frozenset(("magic", "version", *_COLUMNS))

RANK_BITS = 28
RANK_MASK = (1 << RANK_BITS) - 1
# a window-hits entry hashes its words' ranks into this many bits: on the
# 2,000-word correct_batch lexicon ~4% of two-window rows see a false
# overlap, for ~160 bytes an entry
FILTER_BITS = 1024


class WordEntry(NamedTuple):
    """One dictionary word, as `Lexicon.entries` yields it.

    `readings` holds every toneless reading per character, so polyphones
    like 长 keep both chang and zhang for matching.
    """

    word_id: int
    surface: str
    frequency: int
    readings: tuple[tuple[str, ...], ...]


class Lexicon:
    """Immutable word dictionary over three columns indexed by word id:
    Lexicon(surfaces, frequencies, readings), usually made by
    lexicon_from_words(), build_lexicon() or load().

    The columns have one length, word ids are positions, and surfaces are
    distinct (ValueError otherwise).  Each reading tuple holds one non-empty
    tuple of toneless readings per character of its surface; load() and
    lexicon_from_words() check that for their input, and the 2-gram index
    relies on it.  Beside the columns, `rank` and `order` hold the word
    ranking, built with the lexicon.
    """

    def __init__(self, surfaces: tuple[str, ...], frequencies: tuple[int, ...],
                 readings: tuple[tuple[tuple[str, ...], ...], ...]):
        """Keep the three columns and build the surface index and the
        ranking; ValueError when the columns differ in length or a surface
        repeats."""
        if not len(surfaces) == len(frequencies) == len(readings):
            raise ValueError(f"columns of unequal length: {len(surfaces)} surfaces, "
                             f"{len(frequencies)} frequencies, {len(readings)} readings")
        self.surfaces = surfaces
        self.frequencies = frequencies
        self.readings = readings
        # the first id of each surface: a later repeat does not overwrite it
        ids = dict(zip(reversed(surfaces), range(len(surfaces) - 1, -1, -1)))
        if len(ids) < len(surfaces):
            wid, surface = next((w, s) for w, s in enumerate(surfaces) if ids[s] != w)
            raise ValueError(
                f"entry {wid} repeats the surface {surface!r} of entry {ids[surface]}")
        self._ids = ids
        # length 0 is left out, so an empty surface matches nothing
        self._lengths = tuple(sorted(set(map(len, surfaces)) - {0}))
        # the sort is stable, so equal frequencies keep ascending ids
        order = sorted(range(len(frequencies)), key=frequencies.__getitem__, reverse=True)
        rank = [0] * len(order)
        for place, wid in enumerate(order):
            rank[wid] = place
        self.rank: tuple[int, ...] = tuple(rank)
        self.order: tuple[int, ...] = tuple(order)
        # fuzzy table -> (its 2-gram index, its window memo)
        self._tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @cached_property
    def entries(self) -> tuple[WordEntry, ...]:
        """The words as WordEntry objects, built from the columns on first
        read and kept."""
        return tuple(map(WordEntry, range(len(self.surfaces)), self.surfaces,
                         self.frequencies, self.readings))

    def __len__(self) -> int:
        return len(self.surfaces)

    @cached_property
    def order_ids(self) -> np.ndarray:
        """`order` as a read-only int64 array: one gather maps lattice key
        ranks to word ids.  Built on first use."""
        ids = np.array(self.order, dtype=np.int64)
        ids.flags.writeable = False
        return ids

    @cached_property
    def _hit_keys(self) -> tuple[tuple[int, int], ...]:
        """keys[word_id]: the word's two possible window-hit keys, its rank
        with provenance 1 and with provenance 2.  Every window memo entry
        shares these int objects, so it keeps one new tuple, not one int
        per hit.  Built on first use."""
        return tuple((1 << RANK_BITS | r, 2 << RANK_BITS | r) for r in self.rank)

    # ---------------------------------------------------------------- queries

    # named for the trie it once walked: perfbench's tracer wraps it by this
    # name, and tests/test_perfbench.py requires featurization to call it
    def trie_match_all(self, sentence: str,
                       ends: list[int] | None = None) -> list[tuple[int, int, int]]:
        """Every (start, end, word_id) whose surface equals sentence[start:end+1].

        Positions are 0-based, end inclusive.  Overlaps allowed; output is
        sorted by (start, end).  With `ends` (the offsets at which the
        sentences joined in `sentence` end, as build_lattice checks them),
        no match crosses an end.
        """
        out: list[tuple[int, int, int]] = []
        get, lengths = self._ids.get, self._lengths
        start = 0
        for end in (len(sentence),) if ends is None else ends:
            # one loop per length: ~20% faster than one per position
            for k in lengths:
                for i in range(start, end - k + 1):
                    wid = get(sentence[i:i + k])
                    if wid is not None:
                        out.append((i, i + k - 1, wid))
            start = end
        if len(lengths) > 1:
            out.sort()  # one id per surface, so no two matches tie on (start, end)
        return out

    def pinyin2gram_index(
        self, fuzzy: FuzzyClassTable
    ) -> dict[tuple[str, str], tuple[int, ...]]:
        """(fuzzy_key_a, fuzzy_key_b) -> word_ids of 2-char entries, ranked
        by descending frequency, then word_id.

        Built from the words' readings on the table's first query, and kept
        while the table lives.
        """
        return self._table_entry(fuzzy)[0]

    def _table_entry(self, fuzzy: FuzzyClassTable) -> tuple[dict, dict]:
        """(the 2-gram index of `fuzzy`, its window-hits memo: first reading
        set -> second reading set -> hits), built on the table's first
        query."""
        entry = self._tables.get(fuzzy)
        if entry is None:
            entry = self._tables.setdefault(fuzzy, (self._build_index(fuzzy), {}))
        return entry

    def _build_index(self, fuzzy: FuzzyClassTable) -> dict[tuple[str, str], tuple[int, ...]]:
        surfaces, readings = self.surfaces, self.readings
        pairs = [w for w in self.order if len(surfaces[w]) == 2]
        key = {r: fuzzy_key(r, fuzzy)
               for r in {r for w in pairs for rs in readings[w] for r in rs}}
        ranked: dict[tuple[str, str], dict[int, None]] = {}
        for w in pairs:  # cross-product of polyphone readings
            first, second = readings[w]
            for ra in first:
                for rb in second:
                    ranked.setdefault((key[ra], key[rb]), {})[w] = None
        return {k: tuple(ids) for k, ids in ranked.items()}

    def pinyin_2gram_lookup(self, a: str, b: str, fuzzy: FuzzyClassTable) -> list[int]:
        """2-char entries whose fuzzy-normalized pinyin pair matches the
        readings (a, b).

        Ordered by descending frequency, then word_id.
        """
        key = (fuzzy_key(a, fuzzy), fuzzy_key(b, fuzzy))
        return list(self.pinyin2gram_index(fuzzy).get(key, ()))

    def probe_windows(
        self, ptable: PinyinTable, fuzzy: FuzzyClassTable, sentence: str,
        probed: list[bool], m_max: int, ends: list[int] | None = None,
    ) -> tuple[list[tuple[int, ...]], list[int]]:
        """(fed, filters) over the windows (lo, lo + 1) of `sentence`: for
        each window with `probed[lo]` or `probed[lo + 1]`, the first m_max
        of its hits and its memo entry's filter; () and 0 for the others.
        The table's entry is read once, and each character's reading set
        looked up once.  With `ends` (build_lattice's, already checked), the
        windows are walked sentence by sentence, so a window across an end
        is never probed and costs no test.

        A window's hits are the 2-char entries that sound like it, as sorted
        lattice keys, one per word: provenance 1 (PINYIN_EXACT) when some
        reading of the word matches both characters' readings literally,
        else 2 (PINYIN_FUZZY), over the word's `rank`.  They are those of
        pinyin_2gram_lookup over every reading pair of the two characters,
        computed from the pair of the characters' reading sets alone and
        remembered under it, beside the 2-gram index of `fuzzy`.  So two
        characters with equal reading sets get equal hits, in any
        PinyinTable, and a character without readings gets none.

        The memo has no size limit: it holds one entry per pair of reading
        sets met, so at most the square of the number of distinct reading
        sets in the tables queried (3,600 for the 60 sets of the toy
        inventory), each of at most FILTER_BITS bits beside its hits; each
        fuzzy table has its own.
        """
        memo = self._table_entry(fuzzy)[1]
        n = len(sentence)
        fed: list[tuple[int, ...]] = [()] * n
        filters = [0] * n
        sets = ptable.toneless_sets(sentence)
        start = 0
        for end in (n,) if ends is None else ends:
            for lo in range(start, end - 1):
                if probed[lo] or probed[lo + 1]:
                    ra, rb = sets[lo], sets[lo + 1]
                    row = memo.get(ra)
                    entry = None if row is None else row.get(rb)
                    if entry is None:
                        entry = self._window_entry(fuzzy, memo, ra, rb)
                    fed[lo] = entry[0][:m_max]
                    filters[lo] = entry[1]
            start = end
        return fed, filters

    def _window_entry(self, fuzzy, memo, ra, rb) -> tuple[tuple[int, ...], int]:
        """memo's (hits, filter) for a window whose characters' reading sets
        are ra and rb, computed from those two sets alone and stored under
        them in one assignment when missing.  The filter is an int with bit
        `rank % FILTER_BITS` set for each hit's word, so two entries whose
        filters share no bit share no word."""
        # one row per first set: no key tuple is built per window or kept per
        # entry (kept objects are what sets off the cyclic GC's full passes)
        row = memo.get(ra)
        if row is None:
            row = memo.setdefault(ra, {})
        entry = row.get(rb)
        if entry is None:
            readings, keys = self.readings, self._hit_keys
            # exactness reads the word and the two reading sets only, so a
            # word that several reading pairs find gets one hit
            found: dict[int, int] = {}
            for sa in ra:
                for sb in rb:
                    for wid in self.pinyin_2gram_lookup(sa, sb, fuzzy):
                        first, second = readings[wid]
                        exact = not (ra.isdisjoint(first) or rb.isdisjoint(second))
                        found[wid] = keys[wid][0 if exact else 1]
            hits = tuple(sorted(found.values()))
            bits = 0
            for key in hits:
                bits |= 1 << (key & RANK_MASK) % FILTER_BITS
            entry = row[rb] = (hits, bits)
        return entry

    # ------------------------------------------------------------ persistence

    def to_json(self) -> str:
        """Deterministic serialization: same lexicon -> identical bytes.

        One object holding the three columns as JSON lists, readings as
        nested lists, its keys in sorted order.  The columns are tuples of
        strs, ints and tuples of tuples of strs, which cannot hold a cycle,
        so json.dumps skips its cycle check (~40% of the time spent here);
        the bytes are the same either way."""
        payload = {"magic": _LEXICON_MAGIC, "version": _LEXICON_VERSION,
                   "surfaces": self.surfaces, "frequencies": self.frequencies,
                   "readings": self.readings}
        return json.dumps(payload, ensure_ascii=False, separators=(",", ":"), sort_keys=True,
                          check_circular=False)

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
            raise LexiconFormatError(f"{path}: unknown field(s) {', '.join(sorted(unknown))}")
        try:
            return cls(*_checked_columns(*(payload[c] for c in _COLUMNS)))
        except KeyError as e:
            raise LexiconFormatError(f"{path}: missing field {e}") from e
        except (TypeError, ValueError, WordTooLong) as e:
            raise LexiconFormatError(f"{path}: malformed field ({e})") from e


_BAD_READINGS = "entry readings are not one list of toneless syllables per character"


def _only(kind: type, xs) -> bool:
    return {kind}.issuperset(map(type, xs))


def _checked_columns(surface, frequency, readings) -> tuple[tuple, tuple, tuple]:
    """The serialized columns as tuples, readings as tuples: one tuple
    object per distinct reading list, shared as lexicon_from_words shares
    them.  ValueError unless the columns are lists of one length, holding
    for each word a surface of 1 to MAX_WORD_LEN characters (WordTooLong
    when longer), a non-negative int frequency and one non-empty list of
    toneless syllables per character.

    Each test is a C loop over one column: checking word by word in Python
    made Lexicon.load ~12% slower.
    """
    for name, column in zip(_COLUMNS, (surface, frequency, readings)):
        if not isinstance(column, list):
            raise ValueError(f"{name} is not a list")
    if not len(surface) == len(frequency) == len(readings):
        raise ValueError(f"columns of unequal length: {len(surface)} surfaces, "
                         f"{len(frequency)} frequencies, {len(readings)} readings")
    if not surface:
        return (), (), ()
    if not _only(str, surface) or not all(surface):
        raise ValueError("an entry surface is not a non-empty string")
    if max(map(len, surface)) > MAX_WORD_LEN:
        raise WordTooLong(next(s for s in surface if len(s) > MAX_WORD_LEN))
    if not _only(int, frequency) or min(frequency) < 0:
        raise ValueError("an entry frequency is not a non-negative int")
    if not _only(list, readings) or list(map(len, readings)) != list(map(len, surface)):
        raise ValueError(_BAD_READINGS)
    lists = list(chain.from_iterable(readings))
    if not _only(list, lists):
        raise ValueError(_BAD_READINGS)
    tuples = list(map(tuple, lists))
    shared: dict = {}  # one tuple per distinct reading list
    per_char = iter(list(map(shared.setdefault, tuples, tuples)))
    if not TONELESS_SYLLABLES.issuperset(chain.from_iterable(shared)):
        raise ValueError(_BAD_READINGS)
    if not all(shared):
        bad = next(s for s, rs in zip(surface, readings) if not all(rs))
        raise ValueError(f"a character of {bad!r} has no reading")
    # each word takes its characters' tuples, in order, from the one iterator
    return (tuple(surface), tuple(frequency),
            tuple(map(tuple, map(islice, repeat(per_char), map(len, surface)))))


def _parse_word_file(path: Path):
    """Yield (line_no, surface, frequency) from a `surface<TAB>frequency` TSV."""
    for line_no, raw in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), 1):
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


def _word_label(labels, pos: int) -> str:
    return labels[pos] if labels else f"word #{pos + 1}"


def lexicon_from_words(
    words,
    pinyin_table: PinyinTable,
    fuzzy: FuzzyClassTable,
    labels=None,
) -> Lexicon:
    """Build a Lexicon from (surface, frequency) pairs, in order.

    word_ids follow input order.  A repeated surface merges into the first
    entry, summing frequencies.  Each character keeps its table readings,
    in table order.  Every character must have a reading in `pinyin_table`
    (MissingPinyin otherwise); words longer than 4 characters raise
    WordTooLong, and a frequency that is not a non-bool int >= 0 raises
    ValueError.  `labels` optionally names each item for errors.

    `fuzzy` is accepted and unused: a table's 2-gram index is built on that
    table's first query, as it is for a loaded lexicon, so a lexicon built
    only to be saved never pays for one.
    """
    surfaces: list[str] = []
    frequencies: list[int] = []
    readings: list[tuple[tuple[str, ...], ...]] = []
    by_surface: dict[str, int] = {}
    # the table's tuple of each character, shared by every word: a dict
    # read is cheaper than a call to pinyin_table.get
    char_readings: dict[str, tuple[str, ...]] = {}
    for pos, (surface, freq) in enumerate(words):
        if not 1 <= len(surface) <= MAX_WORD_LEN:
            raise WordTooLong(surface)
        if not isinstance(freq, int) or isinstance(freq, bool) or freq < 0:
            raise ValueError(f"{_word_label(labels, pos)} word {surface!r}: frequency "
                             f"must be a non-negative int, got {freq!r}")
        wid = by_surface.get(surface)
        if wid is not None:
            frequencies[wid] += freq
            continue
        word = []
        for ch in surface:
            found = char_readings.get(ch)
            if found is None:
                found = char_readings[ch] = pinyin_table.get(ch)
                if not found:
                    raise MissingPinyin(ch, f"{_word_label(labels, pos)} word {surface!r}")
            word.append(found)
        by_surface[surface] = len(surfaces)
        surfaces.append(surface)
        frequencies.append(freq)
        readings.append(tuple(word))

    return Lexicon(tuple(surfaces), tuple(frequencies), tuple(readings))


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
    """CRC32 of the canonical serialization (the columns only); handy for
    determinism checks."""
    return f"{zlib.crc32(lex.to_json().encode('utf-8')):08x}"
