#!/usr/bin/env python3
"""The word lexicon: exact matching and the fuzzy-pinyin 2-gram index.

The bundled demo lexicon is a small frequency-weighted word list.  Exact
substring hits come from the surface index; the 2-gram index answers "which
two-character words *sound like* this syllable pair", which is how the
lattice later proposes replacements for characters that are wrong on the
page but right in the ear.
"""

from hanfix import data
from hanfix.lexicon import build_lexicon
from hanfix.pinyin import FuzzyClassTable, PinyinTable, parse_syllable

ptable = PinyinTable.from_file(data.demo_pinyin_path())
fuzzy = FuzzyClassTable.from_file(data.demo_fuzzy_path())
lex = build_lexicon(data.demo_words_path(), ptable, fuzzy)
print(f"{len(lex)} words loaded")

sentence = "我们参加会议"
print(f"\nexact matches in {sentence!r}")
for start, end, wid in lex.trie_match_all(sentence):
    e = lex.entries[wid]
    print(f"  [{start},{end}] {e.surface}  freq={e.frequency}")

print("\n2-gram probes (syllable pair -> words, best frequency first)")
for a, b in (("can1", "jia1"), ("chan2", "jia1"), ("hui4", "yi4")):
    wids = lex.pinyin_2gram_lookup(parse_syllable(a), parse_syllable(b), fuzzy)
    words = ", ".join(f"{lex.surfaces[w]}({lex.frequencies[w]})" for w in wids)
    print(f"  {a + '+' + b:<12} -> {words or '(none)'}")
