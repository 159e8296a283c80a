"""Corrupt lexicon and checkpoint files fail with their format error only.

Each saved file is truncated at seeded offsets and has seeded single bits
flipped.  Loading a mutant may raise LexiconFormatError or CheckpointError
and nothing else, and a mutated lexicon that still loads must be safe to
query: the lattice rebuilds the fuzzy 2-gram index from its readings.
"""

import random

import pytest

from hanfix import data as bundled
from hanfix.desm import build_lattice
from hanfix.errors import CheckpointError, LexiconFormatError
from hanfix.lexicon import Lexicon, build_lexicon
from hanfix.model import CHAR_ID_OFFSET, ModelConfig, init_params, load_checkpoint, save_checkpoint
from hanfix.pinyin import FuzzyClassTable, PinyinTable

N_TRUNCATIONS = 40
N_FLIPS = 1000

# exact words, fuzzy homophones (参家, 会义) and characters outside any word
SENTENCES = ["我们参家会义", "今天天气很好", "老师和学生在学习", "禅家参考事件"]


def mutants(blob: bytes, seed: int):
    """(description, bytes) for seeded truncations and single-bit flips."""
    rng = random.Random(seed)
    for cut in sorted({0, *(rng.randrange(len(blob)) for _ in range(N_TRUNCATIONS))}):
        yield f"truncated to {cut} bytes", blob[:cut]
    for _ in range(N_FLIPS):
        bit = rng.randrange(8 * len(blob))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", bytes(flipped)


@pytest.fixture(scope="module")
def tables():
    return (PinyinTable.from_file(bundled.demo_pinyin_path()),
            FuzzyClassTable.from_file(bundled.demo_fuzzy_path()))


def test_corrupt_lexicon_fails_cleanly_or_stays_queryable(tables, tmp_path):
    ptable, fuzzy = tables
    lex = build_lexicon(bundled.demo_words_path(), ptable, fuzzy)
    blob = lex.to_json().encode("utf-8")
    path = tmp_path / "mutant.lexicon"
    escapes, loaded = [], 0
    for what, mutant in mutants(blob, seed=0):
        path.write_bytes(mutant)
        try:
            loaded_lex = Lexicon.load(path)
        except LexiconFormatError:
            continue
        except Exception as e:  # noqa: BLE001 - the point is to catch anything else
            escapes.append((what, "load", repr(e)))
            continue
        loaded += 1
        try:
            for s in SENTENCES:
                build_lattice(loaded_lex, ptable, fuzzy, s, m_max=8)
        except Exception as e:  # noqa: BLE001
            escapes.append((what, "build_lattice", repr(e)))
    assert escapes == []
    assert loaded > 0  # some flips (a frequency digit, can -> cao) keep the file valid


def test_corrupt_checkpoint_fails_cleanly(tmp_path):
    chars = "我们参加家会议"
    config = ModelConfig(char_vocab_size=len(chars) + CHAR_ID_OFFSET, word_vocab_size=10,
                         d_c=8, d_w=4, layers=1, heads=2, ffn_dim=16, gate_dim=4,
                         m_max=3, max_len=16)
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(config, chars), path)
    blob = path.read_bytes()
    escapes = []
    for what, mutant in mutants(blob, seed=1):
        path.write_bytes(mutant)
        try:
            load_checkpoint(path)
        except CheckpointError:
            continue
        except Exception as e:  # noqa: BLE001
            escapes.append((what, repr(e)))
    assert escapes == []
