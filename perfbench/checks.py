"""Output checks: corrected-text shape and a brute-force lattice oracle.

The oracle does not use the trie.  It scans every lexicon surface over the
sentence with ``str.find`` and compares what it finds with the lattice that
``build_lattice`` produced.  Each function returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

from hanfix.desm import WORD_ID_OFFSET


def output_problems(source: str, output) -> list[str]:
    """A corrected sentence must be a string as long as its input."""
    if not isinstance(output, str):
        return [f"output is {type(output).__name__}, not str"]
    if len(output) != len(source):
        return [f"output length {len(output)} != input length {len(source)}"]
    return []


def surface_occurrences(surfaces: list[str], sentence: str) -> set[tuple[int, int, int]]:
    """Every (start, end, word_id), end inclusive, where a surface occurs."""
    found = set()
    for wid, surface in enumerate(surfaces):
        start = sentence.find(surface)
        while start >= 0:
            found.add((start, start + len(surface) - 1, wid))
            start = sentence.find(surface, start + 1)
    return found


def lattice_problems(lat, surfaces: list[str], m_max: int, word_vocab_size: int) -> list[str]:
    """Check one CharWordLattice against a scan of the lexicon surfaces.

    - every EXACT candidate's span spells its word;
    - a position is suspect iff no surface of 2+ chars covers it;
    - no position has more than m_max candidates;
    - every candidate's feature id is below word_vocab_size.
    """
    sentence = lat.sentence
    n = len(sentence)
    problems = []
    if len(lat.per_char) != n or len(lat.suspect) != n:
        return [f"lattice has {len(lat.per_char)} positions / {len(lat.suspect)} "
                f"suspect flags for {n} chars"]
    covered = [False] * n
    for start, end, _ in surface_occurrences(surfaces, sentence):
        if end > start:
            for i in range(start, end + 1):
                covered[i] = True
    for i, cands in enumerate(lat.per_char):
        if lat.suspect[i] != (not covered[i]):
            problems.append(f"pos {i}: suspect={lat.suspect[i]}, oracle says {not covered[i]}")
        if len(cands) > m_max:
            problems.append(f"pos {i}: {len(cands)} candidates > m_max={m_max}")
        for c in cands:
            start, end = c.span
            if c.word_id + WORD_ID_OFFSET >= word_vocab_size:
                problems.append(f"pos {i}: word id {c.word_id} out of range for "
                                f"word_vocab_size={word_vocab_size}")
            if not 0 <= c.word_id < len(surfaces):
                problems.append(f"pos {i}: word id {c.word_id} is not in the lexicon")
                continue
            if not start <= i <= end:
                problems.append(f"pos {i}: candidate span {c.span} does not cover it")
            if c.provenance.value == "EXACT" and sentence[start:end + 1] != surfaces[c.word_id]:
                problems.append(f"pos {i}: EXACT span {c.span} is not word {c.word_id}")
    return problems
