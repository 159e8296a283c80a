"""Dynamic error scaling: build the per-character word-candidate lattice.

Two complementary strategies feed the lattice:

* error reduction — exact trie matches attach real dictionary words to the
  characters they cover, so correct words (and correct characters inside
  broken words) keep pulling toward themselves;
* error amplification — characters not covered by any exact multi-char
  match are treated as suspects, and for each suspect the fuzzy-pinyin
  2-gram index is probed in both directions (suspect+right neighbor,
  left neighbor+suspect), attaching phonetically plausible words to both
  characters of the window.

A window of two non-suspect characters never triggers a pinyin probe, which
keeps candidate lists small on clean text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .lexicon import Lexicon
from .pinyin import FuzzyClassTable, PinyinTable

# word-feature ids 0 and 1 are reserved in the model's word vocabulary
WORD_UNK_ID = 0
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


_PROV_RANK = {Provenance.EXACT: 0, Provenance.PINYIN_EXACT: 1, Provenance.PINYIN_FUZZY: 2}
_DIR_RANK = {Direction.NONE: 0, Direction.FORWARD: 1, Direction.BACKWARD: 2}


@dataclass(frozen=True)
class MatchCandidate:
    """One word hypothesis covering a span of the sentence."""

    word_id: int
    span: tuple[int, int]  # (start, end) inclusive character positions
    provenance: Provenance
    direction: Direction = Direction.NONE


@dataclass
class CharWordLattice:
    """Ranked word candidates for every character of one sentence."""

    sentence: str
    per_char: list[list[MatchCandidate]]
    suspect: list[bool] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sentence)


def _candidate_sort_key(lex: Lexicon, cand: MatchCandidate):
    return (
        _PROV_RANK[cand.provenance],
        -lex.entries[cand.word_id].frequency,
        cand.word_id,
        _DIR_RANK[cand.direction],
        cand.span,
    )


def build_lattice(
    lex: Lexicon,
    ptable: PinyinTable,
    fuzzy: FuzzyClassTable,
    sentence: str,
    m_max: int = 5,
    include_pinyin: bool = True,
) -> CharWordLattice:
    """Assemble the candidate lattice for one sentence.

    Exact matches are attached to every position they cover.  For each
    suspect position the 2-gram pinyin index is probed forward and
    backward; results land on both characters of the probed window, marked
    PINYIN_EXACT when some reading of the word matches both characters'
    readings literally (toneless) and PINYIN_FUZZY otherwise.

    Per position, candidates are deduplicated by word_id (best provenance
    wins), ranked EXACT > PINYIN_EXACT > PINYIN_FUZZY with frequency and
    word_id as tiebreakers, and truncated to `m_max`.

    Characters without pinyin readings simply contribute no phonetic
    candidates; they are never an error here.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    n = len(sentence)
    per_char: list[list[MatchCandidate]] = [[] for _ in range(n)]
    # position i is suspect iff no exact match of length >= 2 covers it;
    # single-char matches cannot witness an intact word
    suspects = [True] * n

    for start, end, wid in lex.trie_match_all(sentence):
        cand = MatchCandidate(wid, (start, end), Provenance.EXACT, Direction.NONE)
        for i in range(start, end + 1):
            per_char[i].append(cand)
            if end > start:
                suspects[i] = False

    if include_pinyin:
        # reading syllables per character, () when unknown
        char_syllables = [ptable.get(ch) for ch in sentence]

        def probe(lo: int, hi: int, direction: Direction):
            syls_a, syls_b = char_syllables[lo], char_syllables[hi]
            if not syls_a or not syls_b:
                return
            hits: set[int] = set()
            for sa in syls_a:
                for sb in syls_b:
                    hits.update(lex.pinyin_2gram_lookup(sa, sb, fuzzy))
            # PINYIN_EXACT compares toneless readings, as WordEntry stores them
            ra = {s.toneless() for s in syls_a}
            rb = {s.toneless() for s in syls_b}
            for wid in sorted(hits):
                entry = lex.entries[wid]
                exact = bool(ra & set(entry.readings[0])) and bool(
                    rb & set(entry.readings[1])
                )
                prov = Provenance.PINYIN_EXACT if exact else Provenance.PINYIN_FUZZY
                cand = MatchCandidate(wid, (lo, hi), prov, direction)
                per_char[lo].append(cand)
                per_char[hi].append(cand)

        for i in range(n):
            if not suspects[i]:
                continue
            if i + 1 < n:
                probe(i, i + 1, Direction.FORWARD)
            if i - 1 >= 0:
                probe(i - 1, i, Direction.BACKWARD)

    ranked: list[list[MatchCandidate]] = []
    for cands in per_char:
        cands.sort(key=lambda c: _candidate_sort_key(lex, c))
        seen: set[int] = set()
        best: list[MatchCandidate] = []
        for c in cands:
            if c.word_id in seen:
                continue
            seen.add(c.word_id)
            best.append(c)
            if len(best) == m_max:
                break
        ranked.append(best)

    return CharWordLattice(sentence=sentence, per_char=ranked, suspect=suspects)


def lattice_to_feature_ids(
    lat: CharWordLattice, m_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular [n, m_max] word-feature ids plus a 0/1 mask.

    Ids live in the model's word vocabulary (lexicon word_id + 2, because
    ids 0/1 are reserved for UNK/PAD).  Slots beyond the candidate list are
    WORD_PAD_ID with mask 0.
    """
    n = len(lat.sentence)
    ids = np.full((n, m_max), WORD_PAD_ID, dtype=np.int64)
    mask = np.zeros((n, m_max), dtype=np.float64)
    for i, cands in enumerate(lat.per_char):
        for j, c in enumerate(cands[:m_max]):
            ids[i, j] = c.word_id + WORD_ID_OFFSET
            mask[i, j] = 1.0
    return ids, mask


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
