"""Parallel corpus ingestion plus a synthetic homophone-noise generator.

The TSV format is two columns, `source<TAB>target`, one sentence pair per
line, equal lengths (this is a substitution-only correction task).  The
generator builds targets by concatenating dictionary words and corrupts
characters with exact or fuzzy homophones, so every injected error is
phonetically explainable by construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LengthMismatch, MalformedLine
from .lexicon import Lexicon
from .pinyin import FuzzyClassTable, PinyinTable, fuzzy_key

logger = logging.getLogger("hanfix.corpus")


@dataclass(frozen=True)
class ParallelPair:
    source: str
    target: str

    def __post_init__(self):
        if len(self.source) != len(self.target):
            raise LengthMismatch(
                f"source has {len(self.source)} chars, target has "
                f"{len(self.target)}: {self.source!r} / {self.target!r}"
            )

    def error_positions(self) -> tuple[int, ...]:
        return tuple(
            i for i, (a, b) in enumerate(zip(self.source, self.target)) if a != b
        )


def corpus_stats(pairs) -> tuple[int, int]:
    """(sentence count, differing-character count)."""
    return len(pairs), sum(len(p.error_positions()) for p in pairs)


def load_parallel_tsv(path) -> list[ParallelPair]:
    """Read `source<TAB>target` pairs; blank lines ignored.

    Raises MalformedLine for anything but two tab-separated fields and
    LengthMismatch (naming the line) when the two sides differ in length.
    Logs the sentence and error-character totals.
    """
    path = Path(path)
    pairs: list[ParallelPair] = []
    for line_no, raw in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), 1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise MalformedLine(
                str(path), line_no,
                f"expected `source<TAB>target`, got {len(parts)} field(s)",
            )
        src, tgt = parts
        if len(src) != len(tgt):
            raise LengthMismatch(
                f"{path}:{line_no}: source has {len(src)} chars, target has {len(tgt)}"
            )
        pairs.append(ParallelPair(src, tgt))
    n_sent, n_err = corpus_stats(pairs)
    logger.info("loaded %s: %d sentences, %d error chars", path, n_sent, n_err)
    return pairs


def save_parallel_tsv(pairs, path) -> None:
    Path(path).write_text(
        "".join(f"{p.source}\t{p.target}\n" for p in pairs), encoding="utf-8"
    )


# ----------------------------------------------------------------- synthesis


@dataclass(frozen=True)
class NoiseSpec:
    """How to corrupt clean text.

    error_rate: per-character corruption probability.
    fuzzy_confusion_prob: among corruptions, fraction drawn from strictly
    fuzzy homophones (different reading, same fuzzy class) instead of exact
    homophones; either pool falls back to the other when empty.
    """

    error_rate: float
    fuzzy_confusion_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("error_rate", "fuzzy_confusion_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"NoiseSpec.{name} must be in [0, 1], got {v}")


def homophone_pools(ptable: PinyinTable, fuzzy: FuzzyClassTable):
    """char -> (exact, strictly_fuzzy) replacement tuples, each sorted.

    exact = shares a reading; strictly_fuzzy = shares a fuzzy key but no
    reading.  The split lets NoiseSpec steer how phonetically distant the
    injected errors are.
    """
    by_reading: dict[str, set[str]] = {}
    by_fkey: dict[str, set[str]] = {}
    readings: dict[str, set[str]] = {}
    fkeys: dict[str, set[str]] = {}
    for ch in ptable.characters():
        tl = set(ptable.get(ch))
        fk = {fuzzy_key(r, fuzzy) for r in tl}
        readings[ch], fkeys[ch] = tl, fk
        for r in tl:
            by_reading.setdefault(r, set()).add(ch)
        for k in fk:
            by_fkey.setdefault(k, set()).add(ch)
    pools = {}
    for ch in readings:
        exact = set().union(*(by_reading[r] for r in readings[ch])) - {ch}
        near = set().union(*(by_fkey[k] for k in fkeys[ch])) - {ch} - exact
        pools[ch] = (tuple(sorted(exact)), tuple(sorted(near)))
    return pools


def generate_synthetic(
    lex: Lexicon,
    ptable: PinyinTable,
    fuzzy: FuzzyClassTable,
    n_sentences: int,
    len_range: tuple[int, int],
    noise: NoiseSpec,
    allowed_replacements=None,
    filler_rate: float = 0.0,
) -> list[ParallelPair]:
    """Seed-deterministic synthetic corpus.

    Targets are uniform-random concatenations of lexicon words, grown until
    the next word would pass a length sampled from len_range (the first word
    is always kept, so a sentence can overshoot when every word is longer
    than the sampled length).  Each source character then flips to a
    homophone with probability error_rate; a character with no homophone at
    all stays unchanged and is logged.  Sentences draw from independently
    spawned RNG streams, so generation parallelizes without changing output.

    `allowed_replacements` optionally restricts which characters may appear
    as corruptions (train/test splits with disjoint confusor inventories).

    `filler_rate` is the probability that the next chunk of a sentence is a
    single stray character (drawn from the pool of word characters) instead
    of a lexicon word.  Stray characters belong to no dictionary word at
    their position yet are perfectly fine text, the way function words and
    names fall outside a correction lexicon; they get corrupted like any
    other character.
    """
    if len(lex) == 0:
        raise ValueError("lexicon is empty")
    if n_sentences < 0:
        raise ValueError(f"n_sentences must be non-negative, got {n_sentences}")
    lo, hi = len_range
    if not 1 <= lo <= hi:
        raise ValueError(f"bad len_range {len_range}")
    if not 0.0 <= filler_rate <= 1.0:
        raise ValueError(f"filler_rate must be in [0, 1], got {filler_rate}")
    pools = homophone_pools(ptable, fuzzy)
    if allowed_replacements is not None:
        allowed = frozenset(allowed_replacements)
        pools = {
            ch: (
                tuple(c for c in exact if c in allowed),
                tuple(c for c in near if c in allowed),
            )
            for ch, (exact, near) in pools.items()
        }
    surfaces = list(lex.surfaces)
    filler_pool = sorted({c for s in surfaces for c in s})
    streams = np.random.SeedSequence(noise.seed).spawn(n_sentences)
    pairs: list[ParallelPair] = []
    skipped = 0
    for i in range(n_sentences):
        rng = np.random.default_rng(streams[i])
        tlen = int(rng.integers(lo, hi + 1))
        chunks: list[str] = []
        cur = 0
        while cur < tlen:
            # zero filler draws when the feature is off keeps old streams intact
            if filler_rate > 0.0 and rng.random() < filler_rate:
                w = filler_pool[int(rng.integers(len(filler_pool)))]
            else:
                w = surfaces[int(rng.integers(len(surfaces)))]
            if cur > 0 and cur + len(w) > tlen:
                break
            chunks.append(w)
            cur += len(w)
        target = "".join(chunks)
        chars = list(target)
        flips = rng.random(len(chars)) < noise.error_rate
        hit: list[int] = []
        for j in np.flatnonzero(flips):
            exact, near = pools.get(chars[j], ((), ()))
            want_fuzzy = rng.random() < noise.fuzzy_confusion_prob
            pool = (near or exact) if want_fuzzy else (exact or near)
            if not pool:
                skipped += 1
                logger.debug("no homophone for %r, left unchanged", chars[j])
                continue
            chars[j] = pool[int(rng.integers(len(pool)))]
            hit.append(int(j))
        pairs.append(ParallelPair("".join(chars), target))
        if hit:
            logger.debug("sentence %d: injected errors at %s", i, hit)
    logger.info(
        "generated %d pairs (%d corruption attempts had no homophone)",
        n_sentences, skipped,
    )
    return pairs


# ------------------------------------------------------------- toy inventory
# A fully synthetic phonetic world for benchmarks and tests: confusable
# syllable families with several homophone characters per syllable, rich
# enough that both exact and fuzzy corruption always have somewhere to go.

_TOY_INITIAL_BASES = ("z", "c", "s", "l", "f")
_TOY_FINAL_BASES = ("an", "en", "in")


def make_toy_inventory(
    homophones: int = 3,
    fuzzy: FuzzyClassTable | None = None,
) -> list[tuple[str, str]]:
    """(char, toneless reading) pairs over confusable syllable families.

    Each (initial, final) base expands through its fuzzy classes, so the
    base (z, an) yields zan/zhan/zang/zhang, four syllables that collide
    under the default table.  Every syllable gets `homophones` distinct
    characters, assigned sequentially from U+4E00 (no RNG involved).
    """
    fuzzy = fuzzy or FuzzyClassTable.default()
    pairs: list[tuple[str, str]] = []
    code = 0x4E00
    for ib in _TOY_INITIAL_BASES:
        for fb in _TOY_FINAL_BASES:
            for ini in fuzzy.initial_class(ib):
                for fin in fuzzy.final_class(fb):
                    for _ in range(homophones):
                        pairs.append((chr(code), ini + fin))
                        code += 1
    return pairs


@dataclass(frozen=True)
class ToyBenchmark:
    """A self-contained correction benchmark over the toy phonetic world."""

    train_pairs: tuple[ParallelPair, ...]
    test_pairs: tuple[ParallelPair, ...]
    lexicon: Lexicon
    ptable: PinyinTable
    fuzzy: FuzzyClassTable


def make_toy_benchmark(
    n_words: int = 500,
    n_train: int = 5000,
    n_test: int = 500,
    error_rate: float = 0.15,
    fuzzy_confusion_prob: float = 0.5,
    seed: int = 0,
    homophones: int = 3,
    len_range: tuple[int, int] = (4, 12),
    holdout_confusors: bool = False,
    filler_rate: float = 0.2,
) -> ToyBenchmark:
    """Assemble a train/test correction benchmark over the toy world.

    Sentences mix lexicon words with stray single characters (filler_rate)
    so that dictionary coverage alone cannot separate clean text from
    errors, the way real sentences mix lexicon words with names and
    function words.

    By default train and test corruptions are drawn iid (separate noise
    seeds).  With holdout_confusors, train corruptions draw replacements
    from the first homophones-1 characters of each syllable and test
    corruptions only from the last one, so the test confusions are disjoint
    from anything seen in training while staying phonetically identical in
    structure; note that nothing ties a character to its unseen variants,
    so every variant degrades out of distribution, candidates or not.
    """
    from .lexicon import lexicon_from_words

    if holdout_confusors and homophones < 2:
        raise ValueError("holdout_confusors needs at least 2 homophones")
    fuzzy = FuzzyClassTable.default()
    inv = make_toy_inventory(homophones=homophones, fuzzy=fuzzy)
    ptable = PinyinTable.from_pairs(inv)
    words = make_toy_words(inv, n_words=n_words, word_len=2, seed=seed,
                           fuzzy=fuzzy, bucket_cap=4)
    lex = lexicon_from_words(words, ptable, fuzzy)
    train_allowed = test_allowed = None
    if holdout_confusors:
        # inventory groups each syllable's homophones consecutively
        train_allowed = {c for k, (c, _) in enumerate(inv)
                         if k % homophones < homophones - 1}
        test_allowed = {c for k, (c, _) in enumerate(inv)
                        if k % homophones == homophones - 1}
    train_pairs = generate_synthetic(
        lex, ptable, fuzzy, n_train, len_range,
        NoiseSpec(error_rate, fuzzy_confusion_prob, seed=seed),
        allowed_replacements=train_allowed, filler_rate=filler_rate,
    )
    test_pairs = generate_synthetic(
        lex, ptable, fuzzy, n_test, len_range,
        NoiseSpec(error_rate, fuzzy_confusion_prob, seed=seed + 1),
        allowed_replacements=test_allowed, filler_rate=filler_rate,
    )
    return ToyBenchmark(
        train_pairs=tuple(train_pairs),
        test_pairs=tuple(test_pairs),
        lexicon=lex,
        ptable=ptable,
        fuzzy=fuzzy,
    )


def make_toy_words(
    inventory: list[tuple[str, str]],
    n_words: int = 500,
    word_len: int = 2,
    seed: int = 0,
    fuzzy: FuzzyClassTable | None = None,
    bucket_cap: int = 4,
) -> list[tuple[str, int]]:
    """Sample distinct words (surface, frequency=1) over a toy inventory.

    Rejection-samples so no fuzzy 2-gram bucket holds more than bucket_cap
    words; with m_max >= 2 * bucket_cap the true word then always survives
    candidate-list truncation.  Characters within a word are distinct.
    """
    fuzzy = fuzzy or FuzzyClassTable.default()
    reading = dict(inventory)
    chars = sorted(reading)
    fkey = {c: fuzzy_key(r, fuzzy) for c, r in reading.items()}
    rng = np.random.default_rng(seed)
    words: list[tuple[str, int]] = []
    seen: set[str] = set()
    buckets: dict[tuple[str, str], int] = {}
    attempts = 0
    while len(words) < n_words:
        attempts += 1
        if attempts > 200 * n_words:
            raise ValueError(
                "cannot sample enough distinct words; lower n_words or raise bucket_cap"
            )
        picks = rng.integers(0, len(chars), size=word_len)
        surface = "".join(chars[int(k)] for k in picks)
        if surface in seen or len(set(surface)) != word_len:
            continue
        keys = [
            (fkey[surface[i]], fkey[surface[i + 1]]) for i in range(word_len - 1)
        ]
        if any(buckets.get(k, 0) >= bucket_cap for k in keys):
            continue
        for k in keys:
            buckets[k] = buckets.get(k, 0) + 1
        seen.add(surface)
        words.append((surface, 1))
    return words
