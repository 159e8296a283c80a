#!/usr/bin/env python3
"""The char-word candidate lattice, error reduction and error amplification.

Take the misspelling 参家 for 参加 (can1+jia1).  No two-character word
matches exactly, so both positions are suspects.  Probing the 2-gram index
with each position's readings recovers 参加 (the intended word) and also
禅家 chan2+jia1, which is only reachable because the fuzzy table merges
ch/c.  On the clean control sentence exact matches cover everything and no
probe fires at all.
"""

from hanfix import data
from hanfix.desm import build_lattice
from hanfix.lexicon import build_lexicon
from hanfix.pinyin import FuzzyClassTable, PinyinTable

ptable = PinyinTable.from_file(data.demo_pinyin_path())
fuzzy = FuzzyClassTable.from_file(data.demo_fuzzy_path())
lex = build_lexicon(data.demo_words_path(), ptable, fuzzy)


def show(sentence: str) -> None:
    lat = build_lattice(lex, ptable, fuzzy, sentence, m_max=5)
    print(f"\n{sentence}")
    for i, ch in enumerate(sentence):
        mark = "!" if lat.suspect[i] else " "
        cands = ", ".join(
            f"{lex.surfaces[c.word_id]}[{c.provenance.value}/{c.direction.value}]"
            for c in lat.per_char[i]
        )
        print(f"  {i} {ch} {mark} {cands or '-'}")


show("参家")        # both chars suspect, pinyin candidates on both
show("我们参加会议")  # clean text: exact matches only, nothing suspect
show("我们参家会义")  # two broken words in context

print("\nlegend: ! = suspect (not covered by any exact multi-char match)")
print("provenance EXACT > PINYIN_EXACT > PINYIN_FUZZY decides rank;")
print("a pinyin candidate lands on both characters of its probe window")
