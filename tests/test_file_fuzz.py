"""Corrupt lexicon and checkpoint files fail with their format error only.

Each saved file is truncated at seeded offsets and has seeded single bits
flipped.  Loading a mutant may raise LexiconFormatError or CheckpointError
and nothing else, and a mutated lexicon that still loads must be safe to
query: the lattice rebuilds the fuzzy 2-gram index from its readings.

A training config with a value of the wrong type, out of range or not
finite makes `hanfix train` exit 2 with one error line before any epoch.
"""

import json
import random

import pytest

from hanfix import data as bundled
from hanfix.cli import main
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


# one bad value per case, each key on the model or the training side, or
# gate_activation, a model key no more, or shuffle, a training key no more
# (training always shuffles)
BAD_CONFIG_VALUES = [
    ("epochs", 1e9), ("epochs", 0), ("epochs", "2"), ("batch_size", 2.5),
    ("batch_size", True), ("lr", float("nan")), ("lr", float("inf")), ("lr", -1e-3),
    ("lr", None), ("seed", -1), ("seed", 1.0), ("shuffle", False),
    ("target_loss", float("nan")), ("target_loss", [0.5]), ("use_copy", "false"),
    ("use_copy", 0), ("lattice_mode", "DESM"), ("lattice_mode", None),
    ("gate_activation", "relu"), ("gate_bias_init", float("-inf")),
    ("gate_bias_init", "2"), ("d_c", 8.0), ("d_c", 0), ("m_max", True),
    ("max_len", {"n": 32}), ("heads", 3),
]


@pytest.fixture(scope="module")
def train_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("config_fuzz")
    lex, corpus = d / "demo.lexicon", d / "train.tsv"
    assert main(["build-lexicon", "--words", str(bundled.demo_words_path()),
                 "--out", str(lex)]) == 0
    assert main(["gen-data", "--n", "8", "--seed", "0", "--out", str(corpus)]) == 0
    return lex, corpus


@pytest.mark.parametrize("key,value", BAD_CONFIG_VALUES,
                         ids=[f"{k}={v!r}" for k, v in BAD_CONFIG_VALUES])
def test_bad_config_value_exits_2_before_training(key, value, train_inputs, tmp_path,
                                                  capsys):
    lex, corpus = train_inputs
    cfg = {"d_c": 8, "d_w": 4, "layers": 1, "heads": 2, "ffn_dim": 16, "gate_dim": 4,
           "m_max": 3, "max_len": 32, "epochs": 1, key: value}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")  # NaN/Infinity allowed
    capsys.readouterr()
    code = main(["train", "--corpus", str(corpus), "--lexicon", str(lex),
                 "--config", str(cfg_path), "--out", str(tmp_path / "m.ckpt")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
    assert not (tmp_path / "m.ckpt").exists()


def test_overflowing_training_writes_no_checkpoint(train_inputs, tmp_path, capsys):
    # one Adam step at lr 1e300 leaves finite float64 weights that overflow
    # the float32 payload
    lex, corpus = train_inputs
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"d_c": 8, "d_w": 4, "layers": 1, "heads": 2,
                                    "ffn_dim": 16, "gate_dim": 4, "m_max": 3,
                                    "lr": 1e300, "epochs": 1}), encoding="utf-8")
    code = main(["train", "--corpus", str(corpus), "--lexicon", str(lex),
                 "--config", str(cfg_path), "--out", str(tmp_path / "m.ckpt")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err[-1].startswith("error: ") and "float32" in err[-1], err
    assert not (tmp_path / "m.ckpt").exists()
