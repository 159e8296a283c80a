#!/usr/bin/env python3
"""Pinyin parsing and fuzzy phonetic equivalence.

A reading is its toneless string, an initial followed by a final; a tone
digit is accepted and dropped, as nothing downstream reads it.  A fuzzy
class table declares which initials (z/zh, c/ch, s/sh, n/l, f/h) and which
finals (an/ang, en/eng, in/ing) southern speakers tend to merge; two
readings are confusable when both halves fall in the same classes, that
is, when their fuzzy keys are equal.
"""

from hanfix.pinyin import FuzzyClassTable, fuzzy_key, parse_syllable

fuzzy = FuzzyClassTable.default()

print("parsing: reading, then its fuzzy key (class representatives)")
for text in ("zhang1", "chan2", "an4", "lv3", "xiong2", "zang1", "shang1", "nan2"):
    reading = parse_syllable(text)
    print(f"  {text:<8} -> {reading:<7} key={fuzzy_key(reading, fuzzy)}")

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
    ka, kb = (fuzzy_key(parse_syllable(t), fuzzy) for t in (a, b))
    print(f"  {a:<8} ~ {b:<8} {ka == kb}  ({ka} / {kb})")
