"""Dynamic error scaling: build the per-character word-candidate lattice.

Two complementary strategies feed the lattice:

* error reduction — exact trie matches attach real dictionary words to the
  characters they cover, so correct words (and correct characters inside
  broken words) keep pulling toward themselves;
* error amplification — characters not covered by any exact multi-char
  match are treated as suspects, and the fuzzy-pinyin 2-gram index is
  probed on both windows around each suspect (suspect+right neighbor,
  left neighbor+suspect), attaching phonetically plausible words to both
  characters of the window.

A window of two non-suspect characters never triggers a pinyin probe, which
keeps candidate lists small on clean text; a window with two suspect ends is
probed once.  A probe asks `Lexicon.window_hits`, which remembers a window's
ranked hits under its two characters' toneless reading sets, so each pair of
readings is looked up in the 2-gram index once per lexicon and fuzzy table;
each window feeds only its `m_max` best hits into the lattice.

A built lattice keeps each position's ranked keys, (provenance, word rank,
direction, span, word_id) tuples, and builds its `MatchCandidate` objects
only when `per_char` is first read; featurization reads the word ids straight
from the keys, so the lattice of a sentence that is only featurized never
builds a candidate object.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .lexicon import Lexicon
from .pinyin import FuzzyClassTable, PinyinTable

# word-feature ids 0 and 1 are reserved in the model's word vocabulary
WORD_PAD_ID = 1
WORD_ID_OFFSET = 2


class Provenance(str, Enum):
    EXACT = "EXACT"
    PINYIN_EXACT = "PINYIN_EXACT"
    PINYIN_FUZZY = "PINYIN_FUZZY"


class Direction(str, Enum):
    NONE = "NONE"
    FORWARD = "FORWARD"
    BACKWARD = "BACKWARD"


# rank -> member; a provenance or direction is stored by its rank while the
# lattice is built, and ranks are what the ranking compares
_PROVENANCES = (Provenance.EXACT, Provenance.PINYIN_EXACT, Provenance.PINYIN_FUZZY)
_DIRECTIONS = (Direction.NONE, Direction.FORWARD, Direction.BACKWARD)
# index of the word id in a lattice key (prov, rank, dir, span, wid)
_KEY_WID = 4


class MatchCandidate(NamedTuple):
    """One word hypothesis covering a span of the sentence.  A NamedTuple, not
    a frozen dataclass: immutable and hashable alike, ~3x cheaper to build."""

    word_id: int
    span: tuple[int, int]  # (start, end) inclusive character positions
    provenance: Provenance
    direction: Direction = Direction.NONE


class CharWordLattice:
    """Ranked word candidates for every character of one sentence.

    `build_lattice` stores each position's ranked keys and turns them into
    `MatchCandidate` lists on the first read of `per_char` (one object per
    key, shared by every position of its span); `lattice_to_feature_ids`
    reads word ids from whichever rows the lattice holds, so featurization
    builds no candidate objects.
    """

    __slots__ = ("sentence", "suspect", "_rows", "_wid")

    def __init__(self, sentence: str, per_char: list[list[MatchCandidate]],
                 suspect: list[bool] | None = None):
        self.sentence = sentence
        self.suspect = [] if suspect is None else suspect
        # per position, MatchCandidates or build_lattice's keys; _wid is
        # where a row item holds its word id
        self._rows: list[list] = per_char
        self._wid = 0

    @property
    def per_char(self) -> list[list[MatchCandidate]]:
        if self._wid == _KEY_WID:
            made: dict[tuple, MatchCandidate] = {}
            per_char = []
            for keys in self._rows:
                cands = []
                for key in keys:
                    cand = made.get(key)
                    if cand is None:
                        prov, _, direction, span, wid = key
                        cand = made[key] = MatchCandidate(
                            wid, span, _PROVENANCES[prov], _DIRECTIONS[direction])
                    cands.append(cand)
                per_char.append(cands)
            self._rows, self._wid = per_char, 0
        return self._rows

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


def build_lattice(
    lex: Lexicon,
    ptable: PinyinTable,
    fuzzy: FuzzyClassTable,
    sentence: str,
    m_max: int = 5,
    include_pinyin: bool = True,
) -> CharWordLattice:
    """Assemble the candidate lattice for one sentence.

    Exact matches are attached to every position they cover.  Each window
    of two adjacent characters with a suspect end is probed in the 2-gram
    pinyin index once: FORWARD when its first character is suspect, else
    BACKWARD (a window probed from both ends would give the same words
    twice, and the FORWARD copy outranks the BACKWARD one).  Hits land on
    both characters of the window, marked PINYIN_EXACT when some reading of
    the word matches both characters' readings literally (toneless) and
    PINYIN_FUZZY otherwise.  The hits come ranked from Lexicon.window_hits,
    which remembers them per pair of reading sets, and only a window's
    `m_max` best are fed in: any later one has `m_max` better words ahead
    of it at both ends, so truncation would drop it anyway.

    Per position, each word keeps its best candidate by (provenance,
    direction, span), with EXACT > PINYIN_EXACT > PINYIN_FUZZY and NONE >
    FORWARD > BACKWARD.  The distinct words are ranked by (provenance,
    descending frequency, word_id) and truncated to `m_max`.  Keys are
    (provenance, Lexicon.word_rank, direction, span, word_id) tuples, so
    plain tuple order does both: the rank is one per word, so it never
    decides between two keys of the same word, and it decides between any
    two words of equal provenance before the direction is compared.

    Characters without pinyin readings simply contribute no phonetic
    candidates; they are never an error here.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    n = len(sentence)
    rank = lex.word_rank()
    # per position: word_id -> its best (provenance rank, word rank, direction
    # rank, span, word_id); one key object is shared by every position of its span
    best: list[dict[int, tuple]] = [{} for _ in range(n)]
    # position i is suspect iff no exact match of length >= 2 covers it;
    # single-char matches cannot witness an intact word
    suspects = [True] * n

    # sorted by (start, end): a word's first match at a position is its best
    for start, end, wid in lex.trie_match_all(sentence):
        key = (0, rank[wid], 0, (start, end), wid)
        for i in range(start, end + 1):
            best[i].setdefault(wid, key)
            if end > start:
                suspects[i] = False

    if include_pinyin:
        hits_of = lex.window_hits
        for lo in range(n - 1):
            hi = lo + 1
            if suspects[lo]:
                direction = 1
            elif suspects[hi]:
                direction = 2
            else:
                continue
            span = (lo, hi)
            at_lo, at_hi = best[lo], best[hi]
            # one window's keys share direction and span: they order as its hits do
            for prov, word_rank, wid in hits_of(ptable, fuzzy, sentence[lo], sentence[hi])[:m_max]:
                key = (prov, word_rank, direction, span, wid)
                old = at_lo.get(wid)
                if old is None or key < old:
                    at_lo[wid] = key
                # hi meets no earlier window, so only an EXACT key precedes
                at_hi.setdefault(wid, key)

    lat = CharWordLattice(sentence, [sorted(words.values())[:m_max] for words in best],
                          suspects)
    lat._wid = _KEY_WID
    return lat


def lattice_to_feature_ids(
    lat: CharWordLattice, m_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular [n, m_max] word-feature ids plus a 0/1 mask.

    Ids live in the model's word vocabulary (lexicon word_id + 2, because
    ids 0/1 are reserved for UNK/PAD).  Slots beyond the candidate list are
    WORD_PAD_ID with mask 0.
    """
    # slots go to one flat list, then into the array in one assignment, which
    # beats two numpy item writes per candidate.  Filled, not
    # np.array(list).reshape(...): that view keeps a second array object
    # alive per cached feature (~1 MB over 5000 training sentences).
    # a built lattice's rows are its keys until per_char is read, so this
    # reads word ids without building a MatchCandidate
    flat: list[int] = []
    pad = [WORD_PAD_ID] * m_max
    w = lat._wid
    for row in lat._rows:
        flat += [c[w] + WORD_ID_OFFSET for c in row[:m_max]]
        flat += pad[len(row):]
    ids = np.empty((len(lat.sentence), m_max), dtype=np.int64)
    ids.reshape(-1)[:] = flat
    # every candidate id is at least WORD_ID_OFFSET, every pad id below it
    return ids, (ids >= WORD_ID_OFFSET).astype(np.float64)


LATTICE_MODES = ("desm", "ttm", "none")


def sentence_features(
    sentence: str,
    lex: Lexicon,
    ptable: PinyinTable,
    fuzzy: FuzzyClassTable,
    m_max: int,
    mode: str = "desm",
) -> tuple[np.ndarray, np.ndarray]:
    """Model-ready candidate features for one sentence.

    mode "desm" is the full lattice, "ttm" suppresses the pinyin probes
    (exact trie matches only), "none" gives empty candidate lists, which
    reduces the fusion layer to the identity.
    """
    if mode not in LATTICE_MODES:
        raise ValueError(f"lattice mode must be one of {LATTICE_MODES}, got {mode!r}")
    n = len(sentence)
    if mode == "none":
        return (
            np.full((n, m_max), WORD_PAD_ID, dtype=np.int64),
            np.zeros((n, m_max), dtype=np.float64),
        )
    lat = build_lattice(
        lex, ptable, fuzzy, sentence, m_max=m_max, include_pinyin=(mode == "desm")
    )
    return lattice_to_feature_ids(lat, m_max)


def featurize_sentences(sentences, lex, ptable, fuzzy, m_max, mode="desm"):
    """sentence_features for each sentence, memoized by text (corpora repeat
    sources between train and eval)."""
    cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    out = []
    for s in sentences:
        if s not in cache:
            cache[s] = sentence_features(s, lex, ptable, fuzzy, m_max, mode)
        out.append(cache[s])
    return out


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
                        "word": lex.surface(c.word_id),
                        "span": list(c.span),
                        "provenance": c.provenance.value,
                        "direction": c.direction.value,
                    }
                    for c in lat.per_char[i]
                ],
            }
        )
    return records
