"""Dictionary with two query paths: exact trie matching and fuzzy-pinyin
2-gram lookup.

The trie answers "which dictionary words appear literally at this span".
The 2-gram index answers "which two-character words *sound like* this pair
of characters" under the fuzzy confusion classes; it is what lets a
mistyped character still pull in the word it belongs to.  Only 2-character
entries are phonetically indexed — longer words still match via the trie.

Both structures are frozen after build_lexicon() and safe to share across
threads.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    LexiconFormatError,
    MalformedLine,
    MissingPinyin,
    WordTooLong,
)
from .pinyin import FuzzyClassTable, PinyinSyllable, PinyinTable, fuzzy_key, parse_syllable

MAX_WORD_LEN = 4

_LEXICON_MAGIC = "hanfix-lexicon"
_LEXICON_VERSION = 1


@dataclass(frozen=True)
class WordEntry:
    """One dictionary word.

    `pinyin` is the primary reading (first table reading per character);
    `readings` holds every toneless reading per position, so polyphones
    like 长 keep both chang and zhang for matching.
    """

    word_id: int
    surface: str
    pinyin: tuple[PinyinSyllable, ...]
    frequency: int = 1
    readings: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        if not 1 <= len(self.surface) <= MAX_WORD_LEN:
            raise WordTooLong(self.surface)
        if len(self.pinyin) != len(self.surface):
            raise ValueError(
                f"pinyin length {len(self.pinyin)} != surface length "
                f"{len(self.surface)} for {self.surface!r}"
            )


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
        # (fuzzy_key_a, fuzzy_key_b) -> word_ids of 2-char entries, ranked
        self.pinyin2gram_index: dict[tuple[str, str], tuple[int, ...]] = {}
        self._by_surface: dict[str, int] = {}
        for e in self.entries:
            node = self._root
            for ch in e.surface:
                node = node.children.setdefault(ch, _TrieNode())
            node.word_ids.append(e.word_id)
            self._by_surface[e.surface] = e.word_id

    def _freeze_index(self, raw: dict[tuple[str, str], set[int]]):
        def rank(word_id: int):
            return (-self.entries[word_id].frequency, word_id)

        self.pinyin2gram_index = {
            k: tuple(sorted(ids, key=rank)) for k, ids in raw.items()
        }

    def __len__(self) -> int:
        return len(self.entries)

    def word_id(self, surface: str) -> int | None:
        return self._by_surface.get(surface)

    def surface(self, word_id: int) -> str:
        return self.entries[word_id].surface

    # ---------------------------------------------------------------- queries

    def trie_match_all(self, sentence: str) -> list[tuple[int, int, int]]:
        """Every (start, end, word_id) whose surface equals sentence[start:end+1].

        Positions are 0-based, end inclusive.  Overlaps allowed; output is
        sorted by (start, end, word_id).
        """
        out: list[tuple[int, int, int]] = []
        n = len(sentence)
        for start in range(n):
            node = self._root
            for end in range(start, min(start + MAX_WORD_LEN, n)):
                node = node.children.get(sentence[end])
                if node is None:
                    break
                for wid in node.word_ids:
                    out.append((start, end, wid))
        return out

    def pinyin_2gram_lookup(
        self, a: PinyinSyllable, b: PinyinSyllable, fuzzy: FuzzyClassTable
    ) -> list[int]:
        """2-char entries whose fuzzy-normalized pinyin pair matches (a, b).

        Ordered by descending frequency, then word_id.
        """
        key = (fuzzy_key(a, fuzzy), fuzzy_key(b, fuzzy))
        return list(self.pinyin2gram_index.get(key, ()))

    # ------------------------------------------------------------ persistence

    def to_json(self) -> str:
        """Deterministic serialization: same lexicon -> identical bytes."""
        trie = _trie_to_dict(self._root)
        payload = {
            "magic": _LEXICON_MAGIC,
            "version": _LEXICON_VERSION,
            "entries": [
                {
                    "surface": e.surface,
                    "pinyin": [str(p) for p in e.pinyin],
                    "frequency": e.frequency,
                    "readings": [list(r) for r in e.readings],
                }
                for e in self.entries
            ],
            "trie": trie,
            "pinyin2gram_index": {
                " ".join(k): list(v)
                for k, v in sorted(self.pinyin2gram_index.items())
            },
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
                f"(expected {_LEXICON_VERSION})"
            )
        try:
            entries = [
                WordEntry(
                    word_id=i,
                    surface=d["surface"],
                    pinyin=tuple(parse_syllable(p) for p in d["pinyin"]),
                    frequency=d["frequency"],
                    readings=tuple(tuple(r) for r in d["readings"]),
                )
                for i, d in enumerate(payload["entries"])
            ]
            index = {
                tuple(k.split(" ")): tuple(v)
                for k, v in payload["pinyin2gram_index"].items()
            }
        except KeyError as e:
            raise LexiconFormatError(f"{path}: missing field {e}") from e
        except (TypeError, ValueError, AttributeError) as e:
            raise LexiconFormatError(f"{path}: malformed field ({e})") from e
        lex = cls(entries)
        lex.pinyin2gram_index = index
        return lex


def _trie_to_dict(node: _TrieNode):
    d: dict = {ch: _trie_to_dict(child) for ch, child in node.children.items()}
    if node.word_ids:
        d[""] = list(node.word_ids)  # "" never collides with a real character
    return d


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
    entry, summing frequencies.  Every character must have a reading in
    `pinyin_table` (MissingPinyin otherwise); words longer than 4 characters
    raise WordTooLong.  `labels` optionally names each item for errors.
    """
    entries: list[WordEntry] = []
    by_surface: dict[str, int] = {}
    for pos, (surface, freq) in enumerate(words):
        where = labels[pos] if labels else f"word #{pos + 1}"
        if len(surface) > MAX_WORD_LEN:
            raise WordTooLong(surface)
        if surface in by_surface:
            wid = by_surface[surface]
            old = entries[wid]
            entries[wid] = WordEntry(
                wid, old.surface, old.pinyin, old.frequency + freq, old.readings
            )
            continue
        readings_per_pos = []
        for ch in surface:
            syls = pinyin_table.get(ch)
            if not syls:
                raise MissingPinyin(ch, f"{where} word {surface!r}")
            readings_per_pos.append(syls)
        wid = len(entries)
        entries.append(
            WordEntry(
                word_id=wid,
                surface=surface,
                pinyin=tuple(r[0] for r in readings_per_pos),
                frequency=freq,
                readings=tuple(
                    tuple(s.toneless() for s in r) for r in readings_per_pos
                ),
            )
        )
        by_surface[surface] = wid

    lex = Lexicon(entries)
    raw_index: dict[tuple[str, str], set[int]] = {}
    for e in entries:
        if len(e.surface) != 2:
            continue
        # cross-product of polyphone readings, each normalized to fuzzy keys
        for ra in e.readings[0]:
            for rb in e.readings[1]:
                key = (
                    fuzzy_key(parse_syllable(ra), fuzzy),
                    fuzzy_key(parse_syllable(rb), fuzzy),
                )
                raw_index.setdefault(key, set()).add(e.word_id)
    lex._freeze_index(raw_index)
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
    """CRC32 of the canonical serialization; handy for determinism checks."""
    return f"{zlib.crc32(lex.to_json().encode('utf-8')):08x}"
