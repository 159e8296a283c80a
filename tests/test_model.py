import json
import zlib

import numpy as np
import pytest

from hanfix.desm import featurize_sentences
from hanfix.errors import CheckpointError, HanfixError, SequenceTooLong
from hanfix.lexicon import lexicon_from_words
from hanfix.model import (
    _CKPT_MAGIC,
    CHAR_PAD_ID,
    CHAR_UNK_ID,
    Batch,
    ModelConfig,
    ModelParams,
    assemble_batch,
    check_finite,
    correct_many,
    forward_batch,
    init_params,
    load_checkpoint,
    loss_and_grads,
    nll_loss,
    save_checkpoint,
)
from hanfix.pinyin import FuzzyClassTable, PinyinTable

CHARS = tuple(chr(0x4E00 + i) for i in range(10))


def tiny_config(**over):
    base = dict(char_vocab_size=12, word_vocab_size=6, d_c=8, d_w=4, layers=1,
                heads=2, ffn_dim=16, gate_dim=4, m_max=3, max_len=16, seed=0)
    base.update(over)
    return ModelConfig(**base)


def healthy_params(cfg, scale=0.3, seed=11):
    # fresh init leaves several paths near zero on purpose; finite-difference
    # probes and attention-law tests need every tensor clearly nonzero
    params = init_params(cfg, CHARS[: cfg.char_vocab_size - 2])
    rng = np.random.default_rng(seed)
    for arr in params.tensors.values():
        arr[...] = rng.normal(0.0, scale, arr.shape)
    return params


def make_batch(cfg, seed=3, with_gold=True):
    rng = np.random.default_rng(seed)
    B, n, m = 2, 5, cfg.m_max
    char_ids = rng.integers(2, cfg.char_vocab_size, size=(B, n))
    char_mask = np.ones((B, n))
    char_mask[1, 3:] = 0.0
    char_ids[1, 3:] = CHAR_PAD_ID
    word_ids = rng.integers(2, cfg.word_vocab_size, size=(B, n, m))
    word_mask = (rng.random((B, n, m)) < 0.6).astype(float)
    gold = None
    if with_gold:
        gold = char_ids.copy()
        gold[0, 2] = 2  # one "correction" target
    return Batch(char_ids, char_mask, word_ids, word_mask, gold)


class TestConfig:
    @pytest.mark.parametrize("bad", [
        dict(d_c=0), dict(layers=-1), dict(heads=0), dict(d_c=7.5),
        dict(seed=-1), dict(layers=True), dict(char_vocab_size=1),
        dict(word_vocab_size=1), dict(d_c=10, heads=4),
        dict(gate_activation="relu"),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            tiny_config(**bad)

    def test_seed_zero_ok(self):
        assert tiny_config(seed=0).seed == 0

    def test_dict_round_trip(self):
        cfg = tiny_config(gate_activation="tanh", use_copy=False)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_unknown_key(self):
        d = tiny_config().to_dict()
        d["dropout"] = 0.1
        with pytest.raises(ValueError, match="dropout"):
            ModelConfig.from_dict(d)


class TestInit:
    def test_char_count_must_match(self):
        with pytest.raises(ValueError, match="vocab size"):
            init_params(tiny_config(), CHARS[:5])

    def test_duplicate_chars(self):
        with pytest.raises(ValueError, match="duplicate"):
            init_params(tiny_config(), ("一", "二", "一") + CHARS[:7])

    def test_deterministic(self):
        a = init_params(tiny_config(), CHARS)
        b = init_params(tiny_config(), CHARS)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])
        c = init_params(tiny_config(seed=1), CHARS)
        assert not np.array_equal(a.tensors["E_c"], c.tensors["E_c"])

    def test_tensor_inventory(self):
        t = init_params(tiny_config(), CHARS).tensors
        for name in ("E_c", "P", "blk0.Wq", "ln_f.g", "E_w", "W_w", "b_w",
                     "W_attn", "W_gen", "b_gen", "gate.W1", "gate.w2", "gate.b2"):
            assert name in t
        assert float(t["gate.b2"]) == 2.0

    def test_char_id_mapping(self):
        p = init_params(tiny_config(), CHARS)
        ids = p.char_to_ids(CHARS[0] + "絕" + CHARS[3])
        assert list(ids) == [2, CHAR_UNK_ID, 5]

    def test_check_finite(self):
        p = init_params(tiny_config(), CHARS)
        check_finite(p)
        p.tensors["W_gen"][0, 0] = np.nan
        with pytest.raises(HanfixError, match="W_gen"):
            check_finite(p)


@pytest.fixture(scope="module")
def setup():
    cfg = tiny_config()
    return cfg, healthy_params(cfg), make_batch(cfg)


class TestForwardLaws:

    def test_rows_sum_to_one(self, setup):
        cfg, params, batch = setup
        out, _ = forward_batch(params, batch)
        assert np.allclose(out.p_out.sum(-1), 1.0, atol=1e-12)
        assert (out.p_out >= 0).all()

    def test_no_candidates_leave_h_unchanged(self, setup):
        cfg, params, batch = setup
        empty = Batch(batch.char_ids, batch.char_mask, batch.word_ids,
                      np.zeros_like(batch.word_mask))
        out, _ = forward_batch(params, empty)
        assert np.array_equal(out.h_fused, out.h)
        assert (out.attn == 0.0).all()

    def test_singleton_candidate_gets_full_attention(self, setup):
        cfg, params, batch = setup
        wmask = np.zeros_like(batch.word_mask)
        wmask[:, :, 1] = 1.0
        out, _ = forward_batch(
            params, Batch(batch.char_ids, batch.char_mask, batch.word_ids, wmask))
        assert (out.attn[:, :, 1] == 1.0).all()
        assert (out.attn[:, :, [0, 2]] == 0.0).all()

    def test_candidate_order_irrelevant(self, setup):
        cfg, params, batch = setup
        out1, _ = forward_batch(params, batch)
        perm = [2, 0, 1]
        out2, _ = forward_batch(
            params, Batch(batch.char_ids, batch.char_mask,
                          batch.word_ids[:, :, perm], batch.word_mask[:, :, perm]))
        assert np.allclose(out1.p_out, out2.p_out, atol=1e-12)

    def test_masked_slot_ids_are_dead(self, setup):
        cfg, params, batch = setup
        out1, _ = forward_batch(params, batch)
        wid = batch.word_ids.copy()
        wid[batch.word_mask == 0.0] = 1
        out2, _ = forward_batch(
            params, Batch(batch.char_ids, batch.char_mask, wid, batch.word_mask))
        assert np.array_equal(out1.p_out, out2.p_out)

    def test_omega_override_one_copies_exactly(self, setup):
        cfg, params, batch = setup
        out, _ = forward_batch(params, batch, omega_override=1.0)
        onehot = np.zeros_like(out.p_out)
        np.put_along_axis(onehot, batch.char_ids[..., None], 1.0, -1)
        assert np.array_equal(out.p_out, onehot)

    def test_omega_override_zero_is_pure_generation(self, setup):
        cfg, params, batch = setup
        out, _ = forward_batch(params, batch, omega_override=0.0)
        assert np.array_equal(out.p_out, out.p_gen)

    def test_use_copy_false_forces_omega_zero(self):
        cfg = tiny_config(use_copy=False)
        params = healthy_params(cfg)
        out, _ = forward_batch(params, make_batch(cfg))
        assert (out.omega == 0.0).all()
        assert np.array_equal(out.p_out, out.p_gen)

    def test_fresh_model_echoes_input(self):
        # b2 = +2 puts ~0.88 mass on the copy path before any training
        cfg = tiny_config()
        params = init_params(cfg, CHARS)
        batch = make_batch(cfg)
        out, _ = forward_batch(params, batch)
        assert (out.omega > 0.5).all()
        assert np.array_equal(out.p_out.argmax(-1), batch.char_ids)

    def test_too_long_rejected(self):
        cfg = tiny_config(max_len=4)
        params = init_params(cfg, CHARS)
        with pytest.raises(SequenceTooLong):
            forward_batch(params, make_batch(cfg))
        feats = [(np.ones((5, cfg.m_max), dtype=np.int64), np.zeros((5, cfg.m_max)))]
        with pytest.raises(SequenceTooLong):
            correct_many(params, ["".join(CHARS[:5])], feats)


class TestLoss:
    def test_hand_computed(self):
        p = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
        gold = np.array([2, 0])
        want = -(np.log(0.5) + np.log(0.6)) / 2  # 0.601986...
        assert abs(nll_loss(p, gold) - want) < 1e-9

    def test_uniform_is_log_v(self):
        p = np.full((3, 8), 1 / 8)
        assert abs(nll_loss(p, np.array([0, 5, 7])) - np.log(8)) < 1e-9

    def test_mask_excludes_positions(self):
        p = np.array([[0.5, 0.5], [1e-9, 1.0]])
        gold = np.array([0, 0])
        masked = nll_loss(p, gold, np.array([1.0, 0.0]))
        assert abs(masked - -np.log(0.5)) < 1e-9

    def test_zero_prob_does_not_blow_up(self):
        p = np.array([[1.0, 0.0]])
        assert np.isfinite(nll_loss(p, np.array([1])))

    def test_loss_and_grads_matches_nll(self):
        cfg = tiny_config()
        params = healthy_params(cfg)
        batch = make_batch(cfg)
        loss, grads, out = loss_and_grads(params, batch)
        assert loss == nll_loss(out.p_out, batch.gold_ids, batch.char_mask)
        assert set(grads) == set(params.tensors)

    def test_pad_gold_does_not_affect_loss(self):
        cfg = tiny_config()
        params = healthy_params(cfg)
        batch = make_batch(cfg)
        loss1, _, _ = loss_and_grads(params, batch)
        gold2 = batch.gold_ids.copy()
        gold2[1, 4] = 3  # padded position
        loss2, _, _ = loss_and_grads(
            params, Batch(batch.char_ids, batch.char_mask, batch.word_ids,
                          batch.word_mask, gold2))
        assert loss1 == loss2

    def test_needs_gold(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="gold"):
            loss_and_grads(healthy_params(cfg), make_batch(cfg, with_gold=False))

    def test_use_copy_false_zeroes_gate_grads(self):
        cfg = tiny_config(use_copy=False)
        params = healthy_params(cfg)
        _, grads, _ = loss_and_grads(params, make_batch(cfg))
        assert (grads["gate.W1"] == 0.0).all()
        assert (grads["gate.b2"] == 0.0).all()
        assert (grads["W_gen"] != 0.0).any()


class TestGradients:
    def test_spot_finite_differences(self):
        cfg = tiny_config()
        params = healthy_params(cfg, scale=0.35, seed=21)
        batch = make_batch(cfg, seed=4)
        _, grads, _ = loss_and_grads(params, batch)
        rng = np.random.default_rng(5)
        h = 1e-5
        for name in ("E_w", "W_w", "b_w", "W_attn", "W_gen", "b_gen",
                     "gate.W1", "gate.w2", "gate.b2", "E_c", "P",
                     "blk0.Wq", "blk0.W2", "ln_f.g"):
            flat = params.tensors[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                lp, _, _ = loss_and_grads(params, batch)
                flat[i] = orig - h
                lm, _, _ = loss_and_grads(params, batch)
                flat[i] = orig
                num = (lp - lm) / (2 * h)
                denom = max(abs(num), abs(gflat[i]), 1e-7)
                assert abs(num - gflat[i]) / denom < 1e-4, f"{name}[{i}]"


class TestBatching:
    def test_assemble_pads(self):
        m = 2
        items = [
            (np.array([2, 3, 4]), np.array([2, 3, 5]),
             np.full((3, m), 2, dtype=np.int64), np.ones((3, m))),
            (np.array([6]), np.array([6]),
             np.full((1, m), 3, dtype=np.int64), np.zeros((1, m))),
        ]
        b = assemble_batch(items)
        assert b.char_ids.shape == (2, 3)
        assert list(b.char_ids[1]) == [6, CHAR_PAD_ID, CHAR_PAD_ID]
        assert list(b.char_mask[1]) == [1.0, 0.0, 0.0]
        assert list(b.gold_ids[1]) == [6, CHAR_PAD_ID, CHAR_PAD_ID]
        assert (b.word_ids[1, 1:] == 1).all()
        assert (b.word_mask[1, 1:] == 0.0).all()

    def test_assemble_without_gold(self):
        items = [(np.array([2]), None, np.full((1, 1), 2, dtype=np.int64),
                  np.ones((1, 1)))]
        assert assemble_batch(items).gold_ids is None


@pytest.fixture(scope="module")
def word_world():
    ptable = PinyinTable.from_pairs([
        ("参", "can1"), ("参", "shen1"), ("加", "jia1"), ("会", "hui4"),
        ("会", "kuai4"), ("议", "yi4"), ("计", "ji4"), ("禅", "chan2"),
        ("家", "jia1"),
    ])
    fuzzy = FuzzyClassTable.default()
    lexicon = lexicon_from_words(
        [("参加", 80), ("禅家", 5), ("会议", 60), ("会计", 15)], ptable, fuzzy)
    chars = tuple(sorted({c for e in lexicon.entries for c in e.surface}))
    return ptable, fuzzy, lexicon, chars


def correct_sentences(params, lexicon, ptable, fuzzy, sentences):
    feats = featurize_sentences(sentences, lexicon, ptable, fuzzy, params.config.m_max)
    return correct_many(params, sentences, feats)


class TestCorrect:
    def test_fresh_model_copies(self, word_world):
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2,
                          word_vocab_size=len(lexicon) + 2)
        params = init_params(cfg, chars)
        s = "参家会议"
        feats = featurize_sentences([s], lexicon, ptable, fuzzy, cfg.m_max)
        assert correct_many(params, [s], feats) == [s]
        (wid, wmask), = feats
        out, _ = forward_batch(
            params, assemble_batch([(params.char_to_ids(s), None, wid, wmask)]))
        assert out.omega.shape == (1, 4)
        assert (out.omega > 0.5).all()

    def test_empty_sentence(self, word_world):
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2,
                          word_vocab_size=len(lexicon) + 2)
        params = init_params(cfg, chars)
        assert correct_sentences(params, lexicon, ptable, fuzzy, [""]) == [""]

    def test_too_long(self, word_world):
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2,
                          word_vocab_size=len(lexicon) + 2, max_len=3)
        params = init_params(cfg, chars)
        with pytest.raises(SequenceTooLong):
            correct_sentences(params, lexicon, ptable, fuzzy, ["参家会议"])

    def test_lexicon_too_big_for_checkpoint(self, word_world):
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2, word_vocab_size=2)
        params = init_params(cfg, chars)
        with pytest.raises(HanfixError, match="word_vocab_size"):
            correct_sentences(params, lexicon, ptable, fuzzy, ["参家会议"])

    def test_correct_many_skips_empty(self, word_world):
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2,
                          word_vocab_size=len(lexicon) + 2)
        params = init_params(cfg, chars)
        feats = [(np.ones((0, cfg.m_max), dtype=np.int64), np.zeros((0, cfg.m_max))),
                 (np.ones((2, cfg.m_max), dtype=np.int64), np.zeros((2, cfg.m_max)))]
        out = correct_many(params, ["", "参家"], feats)
        assert out == ["", "参家"]

    def test_correct_many_rejects_foreign_ids(self, word_world):
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2,
                          word_vocab_size=len(lexicon) + 2)
        params = init_params(cfg, chars)
        feats = [(np.full((2, cfg.m_max), 99, dtype=np.int64),
                  np.ones((2, cfg.m_max)))]
        with pytest.raises(HanfixError, match="out of range"):
            correct_many(params, ["参家"], feats)

    def test_reserved_ids_never_surface(self, word_world):
        # force the generator's argmax onto UNK; the decoder must fall back
        # to the input character rather than emit a reserved symbol
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2,
                          word_vocab_size=len(lexicon) + 2, use_copy=False)
        params = init_params(cfg, chars)
        params.tensors["b_gen"][CHAR_UNK_ID] = 100.0
        feats = [(np.ones((2, cfg.m_max), dtype=np.int64), np.zeros((2, cfg.m_max)))]
        out = correct_many(params, ["参家"], feats)
        assert out == ["参家"]


class TestCheckpoint:
    @pytest.fixture()
    def saved(self, tmp_path):
        params = healthy_params(tiny_config(), seed=31)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        return params, path

    def test_round_trip(self, saved):
        params, path = saved
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert loaded.chars == params.chars
        for name, t in params.tensors.items():
            assert np.allclose(loaded.tensors[name], t, rtol=1e-6, atol=1e-6), name
            assert loaded.tensors[name].dtype == np.float64

    def test_resave_is_byte_identical(self, saved, tmp_path):
        _, path = saved
        again = tmp_path / "again.ckpt"
        save_checkpoint(load_checkpoint(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_not_a_checkpoint(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"PK\x03\x04 definitely a zip")
        with pytest.raises(CheckpointError, match="not a hanfix checkpoint"):
            load_checkpoint(p)

    def test_bad_version(self, saved, tmp_path):
        _, path = saved
        blob = bytearray(path.read_bytes())
        blob[len(_CKPT_MAGIC)] = 99
        p = tmp_path / "v99"
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)

    def test_header_corruption(self, saved, tmp_path):
        _, path = saved
        blob = bytearray(path.read_bytes())
        blob[len(_CKPT_MAGIC) + 12 + 5] ^= 0xFF
        p = tmp_path / "hdr"
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="header checksum"):
            load_checkpoint(p)

    def test_payload_corruption(self, saved, tmp_path):
        _, path = saved
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        p = tmp_path / "pay"
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="payload checksum"):
            load_checkpoint(p)

    @staticmethod
    def _split(blob):
        off = len(_CKPT_MAGIC)
        hlen = int.from_bytes(blob[off + 4 : off + 8], "little")
        header = json.loads(blob[off + 12 : off + 12 + hlen])
        return header, blob[off + 12 + hlen :]

    @staticmethod
    def _join(header, payload):
        hb = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
        return (_CKPT_MAGIC + (1).to_bytes(4, "little")
                + len(hb).to_bytes(4, "little")
                + zlib.crc32(hb).to_bytes(4, "little") + hb + payload)

    def test_manifest_name_mismatch(self, saved, tmp_path):
        _, path = saved
        header, payload = self._split(path.read_bytes())
        header["tensors"][0][0] = "E_weird"
        p = tmp_path / "mani"
        p.write_bytes(self._join(header, payload))
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(p)

    def test_shape_mismatch(self, saved, tmp_path):
        _, path = saved
        header, payload = self._split(path.read_bytes())
        idx = [m[0] for m in header["tensors"]].index("W_attn")
        header["tensors"][idx][1] = [4, 4]
        p = tmp_path / "shape"
        p.write_bytes(self._join(header, payload))
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(p)

    def test_truncated_payload(self, saved, tmp_path):
        _, path = saved
        header, payload = self._split(path.read_bytes())
        short = payload[:-8]
        header["payload_crc32"] = zlib.crc32(short)
        p = tmp_path / "trunc"
        p.write_bytes(self._join(header, short))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    def test_trailing_bytes(self, saved, tmp_path):
        _, path = saved
        header, payload = self._split(path.read_bytes())
        longer = payload + b"\x00" * 8
        header["payload_crc32"] = zlib.crc32(longer)
        p = tmp_path / "trail"
        p.write_bytes(self._join(header, longer))
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(p)

    def test_bad_config_in_header(self, saved, tmp_path):
        _, path = saved
        header, payload = self._split(path.read_bytes())
        header["config"]["d_c"] = -3
        p = tmp_path / "cfg"
        p.write_bytes(self._join(header, payload))
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(p)
