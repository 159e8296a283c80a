"""Dynamic error scaling: build the per-character word-candidate lattice.

Two complementary strategies feed the lattice:

* error reduction — exact matches attach real dictionary words to the
  characters they cover, so correct words (and correct characters inside
  broken words) keep pulling toward themselves;
* error amplification — characters not covered by any exact multi-char
  match are treated as suspects, and the fuzzy-pinyin 2-gram index is
  probed on both windows around each suspect (suspect+right neighbor,
  left neighbor+suspect), attaching phonetically plausible words to both
  characters of the window.

A window of two non-suspect characters never triggers a pinyin probe, which
keeps candidate lists small on clean text; a window with two suspect ends is
probed once.  `Lexicon.probe_windows` answers a sentence's probes from one
read of the lexicon's window memo and one reading-set lookup per character:
a window's ranked hits are remembered under its two characters' reading
sets, so each pair of readings is looked up in the 2-gram index once
per lexicon and fuzzy table, and each window feeds only its `m_max` best
hits into the lattice.

A built lattice keeps its rows of ranked keys, one int per candidate
(`provenance << RANK_BITS | word rank`, see lexicon.py), back to back in one
flat list with each row's length beside it, and the exact matches and each
window's fed hits.  Most rows are written without a sort or a set: a row
fed by one source is that source, an EXACT key goes before a window's hits
that lack its word, and two windows whose memo entries' bit filters share
no bit share no word.  Featurization builds one lattice per chunk of
sentences, on their joined text, and spreads its flat keys over an
[n, m_max] array of word ids in one masked numpy gather; the
`MatchCandidate` objects, with the direction and span that only they
carry, are derived on the first read of `per_char` and kept beside the
keys.  So featurization takes one path, builds no candidate, and gives the
same ids whether or not `per_char` was read.

A lattice over several sentences keeps them apart: exact matching and the
window probes run within each sentence, so nothing crosses the end of one,
and each sentence's rows are those of its own lattice.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import accumulate
from operator import le
from typing import NamedTuple

import numpy as np

from .lexicon import FILTER_BITS, RANK_BITS, RANK_MASK, Lexicon
from .pinyin import FuzzyClassTable, PinyinTable

# word-feature ids 0 and 1 are reserved in the model's word vocabulary
WORD_PAD_ID = 1
WORD_ID_OFFSET = 2

# the widest m_max a lattice takes: the feature arrays are m_max wide, so a
# huge one would fail on memory, not as a bad argument
M_MAX_LIMIT = 4096


class Provenance(str, Enum):
    EXACT = "EXACT"
    PINYIN_EXACT = "PINYIN_EXACT"
    PINYIN_FUZZY = "PINYIN_FUZZY"


class Direction(str, Enum):
    NONE = "NONE"
    FORWARD = "FORWARD"
    BACKWARD = "BACKWARD"


# rank -> member; a key holds its provenance by rank, and a window's
# direction is 1 (FORWARD) when its first character is suspect, else 2
_PROVENANCES = (Provenance.EXACT, Provenance.PINYIN_EXACT, Provenance.PINYIN_FUZZY)
_DIRECTIONS = (Direction.NONE, Direction.FORWARD, Direction.BACKWARD)


class MatchCandidate(NamedTuple):
    """One word hypothesis covering a span of the sentence.  A NamedTuple, not
    a frozen dataclass: immutable and hashable alike, ~3x cheaper to build."""

    word_id: int
    span: tuple[int, int]  # (start, end) inclusive character positions
    provenance: Provenance
    direction: Direction = Direction.NONE


class CharWordLattice:
    """Ranked word candidates for every character of a sentence (or of a
    chunk of sentences joined, see build_lattice's `ends`).

    `build_lattice` stores each position's ranked int keys in one flat list,
    beside the row lengths, which `lattice_to_feature_ids` reads;
    `per_char`, the `MatchCandidate` lists, is a cached property derived
    from the keys on first read (one object per candidate, shared by every
    position of its span).  A lattice made by hand, CharWordLattice(sentence, per_char,
    suspect), assigns `per_char` and holds candidate lists only: `per_char`
    and `lattice_records` read it, and featurizing it is a ValueError.
    """

    def __init__(self, sentence: str, per_char: list[list[MatchCandidate]],
                 suspect: list[bool] | None = None):
        self.sentence = sentence
        self.suspect = [] if suspect is None else suspect
        self.per_char = per_char
        # build_lattice's (keys, row lengths, m_max, lexicon, exact matches,
        # fed window hits)
        self._built: tuple | None = None

    @cached_property
    def per_char(self) -> list[list[MatchCandidate]]:
        return _candidates(self.suspect, *self._built)

    def __len__(self) -> int:
        return len(self.sentence)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharWordLattice):
            return NotImplemented
        return (self.sentence, self.per_char, self.suspect) == (
            other.sentence, other.per_char, other.suspect)

    def __repr__(self) -> str:
        return (f"CharWordLattice(sentence={self.sentence!r}, "
                f"per_char={self.per_char!r}, suspect={self.suspect!r})")


def _candidates(suspects, flat, lens, _m_max, lex, matches, fed) -> list[list[MatchCandidate]]:
    """The MatchCandidate rows of a built lattice, one rule per key.  An
    EXACT key's span starts at the first exact match of its word that
    covers the position (matches come sorted by start).  A window key takes
    the left window if that window fed it and either the left neighbour is
    suspect or the right window did not feed it, else the right window.
    A window candidate is FORWARD iff its span starts at a suspect.  One
    candidate object stands for one (key, start), at every position that
    takes it."""
    order, rank, surfaces = lex.order, lex.rank, lex.surfaces
    first: dict[tuple[int, int], int] = {}  # (position, word rank) -> start
    for start, end, wid in matches:
        for i in range(start, end + 1):
            first.setdefault((i, rank[wid]), start)
    made: dict[tuple[int, int], MatchCandidate] = {}  # (key, start) -> candidate
    per_char = []
    stop = 0
    for i, k in enumerate(lens):
        left, right = fed[i - 1] if i else (), fed[i]
        cands = []
        for key in flat[stop:stop + k]:
            if key <= RANK_MASK:  # provenance 0: EXACT
                start = first[i, key]
            elif key in left and (suspects[i - 1] or key not in right):
                start = i - 1
            else:
                start = i
            cand = made.get((key, start))
            if cand is None:
                wid, provenance = order[key & RANK_MASK], key >> RANK_BITS
                direction = 0 if not provenance else 1 if suspects[start] else 2
                cand = made[key, start] = MatchCandidate(
                    wid, (start, start + len(surfaces[wid]) - 1), _PROVENANCES[provenance],
                    _DIRECTIONS[direction])
            cands.append(cand)
        per_char.append(cands)
        stop += k
    return per_char


def _first_per_word(keys: list[int], m_max: int) -> list[int]:
    """The first key of each word in sorted `keys`, at most m_max of them."""
    seen: set[int] = set()
    row = []
    for key in keys:
        rank = key & RANK_MASK
        if rank not in seen:
            seen.add(rank)
            row.append(key)
            if len(row) == m_max:
                break
    return row


def build_lattice(
    lex: Lexicon,
    ptable: PinyinTable,
    fuzzy: FuzzyClassTable,
    sentence: str,
    m_max: int = 5,
    include_pinyin: bool = True,
    *,
    ends: list[int] | None = None,
) -> CharWordLattice:
    """Assemble the candidate lattice for one sentence, or for several
    joined into `sentence` when `ends` lists where each of them ends.

    Exact matches are attached to every position they cover.  Each window
    of two adjacent characters with a suspect end is probed in the 2-gram
    pinyin index once: FORWARD when its first character is suspect, else
    BACKWARD (a window probed from both ends would give the same words
    twice, and the FORWARD copy outranks the BACKWARD one).  Hits land on
    both characters of the window, marked PINYIN_EXACT when some reading of
    the word matches both characters' readings literally and PINYIN_FUZZY
    otherwise.  The hits come ranked from Lexicon.probe_windows,
    which remembers them per pair of reading sets, and only a window's
    `m_max` best are fed in: any later one has `m_max` better words ahead
    of it at both ends, so truncation would drop it anyway.

    Per position, each word keeps its best candidate by (provenance,
    direction, span), with EXACT > PINYIN_EXACT > PINYIN_FUZZY and NONE >
    FORWARD > BACKWARD.  The distinct words are ranked by (provenance,
    descending frequency, word_id) and truncated to `m_max`.  A position's
    row merges its sources, its EXACT keys and the fed hits of its left and
    right windows, in int key order, which is that ranking, and keeps each
    word's first key; the direction and span decide only between keys of
    one word, so `per_char` derives them when it is read.

    Characters without pinyin readings simply contribute no phonetic
    candidates; they are never an error here.

    `ends` (default: one sentence) gives the offsets at which each joined
    sentence ends, rising from 0 to len(sentence), with equal offsets for
    empty sentences; ValueError otherwise.  Exact matches are looked up and
    windows probed sentence by sentence, so no match or window crosses an
    end, and every sentence's rows, suspects and candidates are those of
    its own lattice, with spans shifted by its offset.  That costs one loop
    per sentence, and no test per match or window.
    """
    if type(m_max) is not int or not 1 <= m_max <= M_MAX_LIMIT:  # one test on the common path
        _check_m_max(m_max)
    n = len(sentence)
    if ends is None:
        ends = [n]
    elif (ends[-1] if ends else 0) != n or not all(map(le, [0, *ends], ends)):
        raise ValueError(f"sentence ends must rise from 0 to {n}, got {list(ends)}")
    rank = lex.rank
    # per position, the ranks of the words matching exactly over it, as a
    # tuple: most positions have none or one, so no list is built for each
    exact: list[tuple[int, ...]] = [()] * n
    # position i is suspect iff no exact match of length >= 2 covers it;
    # single-char matches cannot witness an intact word
    suspects = [True] * n
    matches = lex.trie_match_all(sentence, ends)
    for start, end, wid in matches:
        r = (rank[wid],)
        if end == start:
            exact[start] += r
        elif end == start + 1:  # most words: no range() for two positions
            exact[start] += r
            exact[end] += r
            suspects[start] = suspects[end] = False
        else:
            for i in range(start, end + 1):
                exact[i] += r
                suspects[i] = False

    # fed[lo]: the hits window (lo, lo + 1) feeds into both its positions;
    # filters[lo]: the bit filter of its memo entry's words.  With no
    # suspect, no window is probed
    if include_pinyin and True in suspects:
        # the window (end - 1, end) joins two sentences, so it is not probed
        fed, filters = lex.probe_windows(ptable, fuzzy, sentence, suspects, m_max, ends)
    else:
        fed, filters = [()] * n, [0] * n

    # each row goes into one flat list, and its length into lens.  A
    # window's fed hits are sorted, one per word and at most m_max, and
    # EXACT keys sort first, so most rows need no sort or set.  Shares of
    # rows per path at m_max 8 on the seed-3 inputs of perfbench's three
    # workloads: one window (or none) 3-14%, two disjoint windows 21-45%,
    # EXACT and one window 19-27%, EXACT alone 21-45%, the general merge
    # 0.7-5% and its duplicate-word fallback at most 0.4%
    flat: list[int] = []
    lens: list[int] = []
    for keys, left, right, lf, rf in zip(exact, [()] + fed, fed, [0] + filters, filters):
        if not keys:
            if not (left and right):  # fed by one window: its hits
                row = left or right
                flat += row
                lens.append(len(row))
                continue
            if not lf & rf:  # two windows that share no word: a sorted merge
                keys = [*left, *right]
                keys.sort()
                del keys[m_max:]
                flat += keys
                lens.append(len(keys))
                continue
        elif len(keys) == 1 and not (left and right):
            # one EXACT key, then the hits of at most one window, if they
            # lack its word; a slice of all of a tuple is that tuple
            r, hits = keys[0], left or right
            if not (lf | rf) >> (r % FILTER_BITS) & 1:
                hits = hits[:m_max - 1]
                flat.append(r)
                flat += hits
                lens.append(len(hits) + 1)
                continue
        # any other row: merge its sources, keep each word's first key
        keys = [*keys, *left, *right]
        keys.sort()
        head = keys[:m_max]
        if len({key & RANK_MASK for key in head}) < len(head):
            head = _first_per_word(keys, m_max)
        flat += head
        lens.append(len(head))

    # not through __init__, which assigns per_char: here it is derived
    lat = CharWordLattice.__new__(CharWordLattice)
    lat.sentence, lat.suspect = sentence, suspects
    lat._built = (flat, lens, m_max, lex, matches, fed)
    return lat


def lattice_to_feature_ids(lat: CharWordLattice) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular word-feature ids plus a 0/1 mask, [n, m_max] for a
    lattice of n characters, at the m_max build_lattice was given (build at
    another m_max for another width).

    Ids live in the model's word vocabulary (lexicon word_id + 2, because
    ids 0/1 are reserved for UNK/PAD).  Slots beyond the candidate list are
    WORD_PAD_ID with mask 0.  A lattice not made by build_lattice holds no
    keys: ValueError.
    """
    if lat._built is None:
        raise ValueError("only a lattice made by build_lattice can be featurized")
    flat, lens, m_max, lex = lat._built[:4]
    # a row's keys fill its first slots, so the mask is a row's slots below
    # its length, and its keys go into them in one masked assignment, which
    # takes them in row-major order, the order of flat
    mask = np.arange(m_max) < np.array(lens, dtype=np.int64)[:, None]
    ids = np.full(mask.shape, WORD_PAD_ID, dtype=np.int64)
    ranks = np.array(flat, dtype=np.int64)
    ranks &= RANK_MASK
    ids[mask] = lex.order_ids.take(ranks) + WORD_ID_OFFSET
    return ids, mask.astype(np.float64)


LATTICE_MODES = ("desm", "ttm", "none")


def _check_m_max(m_max: int) -> None:
    """ValueError unless m_max is a non-bool int from 1 to M_MAX_LIMIT."""
    if not isinstance(m_max, int) or isinstance(m_max, bool):
        raise ValueError(f"m_max must be an int, got {m_max!r}")
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    if m_max > M_MAX_LIMIT:
        raise ValueError(f"m_max must be at most {M_MAX_LIMIT}, got {m_max}")


def _check_features_args(m_max: int, mode: str) -> None:
    if mode not in LATTICE_MODES:
        raise ValueError(f"lattice mode must be one of {LATTICE_MODES}, got {mode!r}")
    _check_m_max(m_max)


# featurize_sentences builds one lattice per chunk of at most this many
# characters (or one longer sentence) and converts it with one
# lattice_to_feature_ids call, so a call holds one chunk's lattice at a
# time.  1024, not 2048: at m_max 8 a 2048-character chunk's arrays are
# 128 KiB, glibc's default mmap threshold, and training on perfbench's
# correct_batch fixture read ~9% slower, with ~10% more minor page faults
_FEATURIZE_CHARS = 1024


def featurize_sentences(sentences, lex, ptable, fuzzy, m_max, mode="desm"):
    """Model-ready candidate features, one (word_ids, word_mask) pair of
    shape (len(sentence), m_max) per sentence, in order.

    mode "desm" is the full lattice, "ttm" suppresses the pinyin probes
    (exact matches only), "none" gives empty candidate lists, which
    reduces the fusion layer to the identity.

    The arguments are checked once, even when there is no sentence.  The
    sentences go in chunks of at most _FEATURIZE_CHARS characters (a longer
    sentence alone).  A chunk is one lattice, built on its sentences'
    joined text with their ends, so the lattice's fixed costs are paid once
    per chunk, not per sentence; it is converted by one
    lattice_to_feature_ids call and dropped before the next chunk is built,
    and each sentence's pair is a view of its rows, a chunk of one sentence
    (such as a live utterance) included.  A repeated sentence is featurized
    again, as corpora rarely repeat one within a call.
    """
    _check_features_args(m_max, mode)
    feats: list[tuple[np.ndarray, np.ndarray]] = []
    chunk: list[str] = []
    size = 0
    for s in sentences:
        if chunk and size + len(s) > _FEATURIZE_CHARS:
            _featurize_chunk(chunk, size, lex, ptable, fuzzy, m_max, mode, feats)
            chunk, size = [], 0
        chunk.append(s)
        size += len(s)
    if chunk:
        _featurize_chunk(chunk, size, lex, ptable, fuzzy, m_max, mode, feats)
    return feats


def _featurize_chunk(chunk, size, lex, ptable, fuzzy, m_max, mode, feats) -> None:
    """Append each sentence's (ids, mask) view of the chunk's rows."""
    ends = list(accumulate(map(len, chunk)))
    if mode == "none":
        ids = np.full((size, m_max), WORD_PAD_ID, dtype=np.int64)
        mask = np.zeros((size, m_max), dtype=np.float64)
    else:
        ids, mask = lattice_to_feature_ids(build_lattice(
            lex, ptable, fuzzy, "".join(chunk), m_max=m_max, include_pinyin=mode == "desm",
            ends=ends))
    start = 0
    for end in ends:
        feats.append((ids[start:end], mask[start:end]))
        start = end


def sentence_features(
    sentence: str,
    lex: Lexicon,
    ptable: PinyinTable,
    fuzzy: FuzzyClassTable,
    m_max: int,
    mode: str = "desm",
) -> tuple[np.ndarray, np.ndarray]:
    """featurize_sentences for one sentence: its (word_ids, word_mask)."""
    return featurize_sentences([sentence], lex, ptable, fuzzy, m_max, mode)[0]


def lattice_records(lat: CharWordLattice, lex: Lexicon) -> list[dict]:
    """One JSON-ready record per position (the CLI `match` output shape)."""
    records = []
    for i, ch in enumerate(lat.sentence):
        records.append(
            {
                "pos": i,
                "char": ch,
                "suspect": lat.suspect[i],
                "candidates": [
                    {
                        "word": lex.surfaces[c.word_id],
                        "span": list(c.span),
                        "provenance": c.provenance.value,
                        "direction": c.direction.value,
                    }
                    for c in lat.per_char[i]
                ],
            }
        )
    return records
