#!/usr/bin/env python3
"""Pinyin parsing and fuzzy phonetic equivalence.

Every syllable splits into an initial and a final; a tone digit is
accepted and dropped, as nothing downstream reads it.  A fuzzy class table
declares which initials (z/zh, c/ch, s/sh, n/l, f/h, r/l) and which finals
(an/ang, en/eng, in/ing, ian/iang, uan/uang) southern speakers tend to
merge; two syllables are confusable when both halves fall in the same
classes.
"""

from hanfix.pinyin import FuzzyClassTable, fuzzy_key, parse_syllable, syllables_equivalent

fuzzy = FuzzyClassTable.default()

print("parsing")
for text in ("zhang1", "chan2", "an4", "lv3", "xiong2"):
    s = parse_syllable(text)
    print(f"  {text:<8} initial={s.initial!r:<6} final={s.final!r}")

print()
print("fuzzy keys (class representatives)")
for text in ("zang1", "zhang4", "san1", "shang1", "lan2", "nan2"):
    s = parse_syllable(text)
    print(f"  {text:<8} -> {fuzzy_key(s, fuzzy)}")

print()
print("equivalence under the default table")
pairs = [
    ("zhang1", "zang4"),   # zh/z merge, an/ang merge, tones dropped
    ("chan2", "can1"),     # the running confusion behind 参/禅
    ("lan2", "nan2"),      # n/l merge
    ("hua1", "fa1"),       # f/h merge only touches the initial
    ("ming2", "min2"),     # in/ing merge
    ("ma1", "ba1"),        # not confusable: m and b are distinct
]
for a, b in pairs:
    eq = syllables_equivalent(parse_syllable(a), parse_syllable(b), fuzzy)
    print(f"  {a:<8} ~ {b:<8} {eq}")
