import itertools
import json
import math
import re
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanfix.desm import M_MAX_LIMIT, featurize_sentences
from hanfix.encoder import (
    _Rows,
    encoder_backward,
    encoder_forward,
    gelu,
    gelu_grad,
    ln_backward,
    ln_forward,
    masked_softmax,
    scatter_rows,
    sigmoid,
    softmax,
    softmax_backward,
    sum_outer,
)
from hanfix.errors import CheckpointError, HanfixError, SequenceTooLong
from hanfix.lexicon import lexicon_from_words
import hanfix.model as model_module
from hanfix.model import (
    _CKPT_MAGIC,
    _CKPT_VERSION,
    CHAR_ID_OFFSET,
    CHAR_PAD_ID,
    CHAR_UNK_ID,
    LOSS_EPS,
    Batch,
    ForwardOut,
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
    tensor_specs,
)
from hanfix.pinyin import FuzzyClassTable, PinyinTable

CHARS = tuple(chr(0x4E00 + i) for i in range(10))


def tiny_config(**over):
    base = dict(char_vocab_size=12, word_vocab_size=6, d_c=8, d_w=4, layers=1,
                heads=2, ffn_dim=16, gate_dim=4, m_max=3, max_len=16)
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


def saturate_gate(params, b2):
    # w2 = 0 leaves the gate sigmoid(b2) at every slot: exactly 1.0 at
    # b2 = 1000 and exactly 0.0 at b2 = -1000; b2 = None keeps the random gate
    if b2 is not None:
        params.tensors["gate.w2"][...] = 0.0
        params.tensors["gate.b2"][...] = b2
    return params


def saturated_gate(cfg, b2):
    return saturate_gate(healthy_params(cfg), b2)


# the regimes the gate's hidden gelu(x) = x/2 (1 + tanh(.)) runs in, named
# for the term that shapes it: "gelu" at the random weights' own scale, where
# it curves, and "tanh" with gate.W1 and gate.b1 scaled up so its tanh term
# sits at +-1 on most slots and gelu_grad's 1 - t*t cancels to nothing
GATE_REGIMES = {"gelu": 1.0, "tanh": 30.0}


def drive_gate(params, regime):
    params.tensors["gate.W1"] *= GATE_REGIMES[regime]
    params.tensors["gate.b1"] *= GATE_REGIMES[regime]
    return params


# the output heads the equality tests run: (use_copy, gate bias b2).  "open"
# and "shut" saturate the gate at omega = 1 and 0, the edges where the mix
# zeroes the generator or the copy term
HEADS = {"generate": (False, None), "learned": (True, None),
         "open": (True, 1000.0), "shut": (True, -1000.0)}


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
        dict(m_max=0), dict(layers=True), dict(char_vocab_size=1),
        dict(word_vocab_size=1), dict(d_c=10, heads=4),
        dict(max_len=0), dict(use_copy="false"), dict(use_copy=1),
        dict(gate_bias_init=float("nan")), dict(gate_bias_init="2"),
        dict(m_max=M_MAX_LIMIT + 1),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            tiny_config(**bad)

    def test_lattice_mode_is_checked(self):
        assert tiny_config(lattice_mode="ttm").lattice_mode == "ttm"
        with pytest.raises(ValueError, match="lattice_mode"):
            tiny_config(lattice_mode="DESM")

    def test_seed_zero_ok(self):
        # the init seed is init_params' argument, not a config field
        assert init_params(tiny_config(), CHARS, seed=0).config == tiny_config()
        with pytest.raises(ValueError):
            init_params(tiny_config(), CHARS, seed=-1)

    def test_dict_round_trip(self):
        cfg = tiny_config(use_copy=False, lattice_mode="ttm", gate_bias_init=0.5)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("key,value", [("gate_activation", "gelu"), ("seed", 0)])
    def test_removed_keys_are_unknown(self, key, value):
        # the gate is always gelu, and training's seed draws the init
        d = dict(tiny_config().to_dict(), **{key: value})
        with pytest.raises(ValueError, match=f"unknown ModelConfig keys.*{key}"):
            ModelConfig.from_dict(d)

    def test_from_dict_unknown_key(self):
        d = tiny_config().to_dict()
        d["dropout"] = 0.1
        with pytest.raises(ValueError, match="dropout"):
            ModelConfig.from_dict(d)

    def test_from_dict_missing_key(self):
        d = tiny_config().to_dict()
        del d["lattice_mode"]
        with pytest.raises(ValueError, match="lattice_mode"):
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
        c = init_params(tiny_config(), CHARS, seed=1)
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

    @pytest.mark.parametrize("text", ["", "絕", CHARS[0] + "絕絕" + CHARS[3] + CHARS[0],
                                      "".join(CHARS) + "x"])
    def test_char_to_ids_equals_list_form(self, text):
        p = init_params(tiny_config(), CHARS)
        idx = p.char_index
        want = np.array([idx.get(c, CHAR_UNK_ID) for c in text], dtype=np.int64)
        got = p.char_to_ids(text)
        assert got.dtype == np.int64 and got.shape == want.shape == (len(text),)
        assert (got == want).all()

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

    def test_omega_one_copies_exactly(self, setup):
        cfg, _, batch = setup
        out, _ = forward_batch(saturated_gate(cfg, 1000.0), batch)
        assert (out.omega == 1.0).all()
        onehot = np.zeros_like(out.p_out)
        np.put_along_axis(onehot, batch.char_ids[..., None], 1.0, -1)
        assert np.array_equal(out.p_out, onehot)

    def test_omega_zero_is_pure_generation(self, setup):
        cfg, _, batch = setup
        out, _ = forward_batch(saturated_gate(cfg, -1000.0), batch)
        assert (out.omega == 0.0).all()
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
        loss, grads = loss_and_grads(params, batch)
        out, _ = forward_batch(params, batch)
        assert loss == nll_loss(out.p_out, batch.gold_ids, batch.char_mask)
        assert set(grads) == set(params.tensors)

    def test_pad_gold_does_not_affect_loss(self):
        cfg = tiny_config()
        params = healthy_params(cfg)
        batch = make_batch(cfg)
        loss1, _ = loss_and_grads(params, batch)
        gold2 = batch.gold_ids.copy()
        gold2[1, 4] = 3  # padded position
        loss2, _ = loss_and_grads(
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
        _, grads = loss_and_grads(params, make_batch(cfg))
        assert (grads["gate.W1"] == 0.0).all()
        assert (grads["gate.b2"] == 0.0).all()
        assert (grads["W_gen"] != 0.0).any()


class TestGoldIndexing:
    """The copy bonus and the gold picks use one flat fancy index; they match
    the take_along_axis/put_along_axis form they replaced bit for bit."""

    @pytest.mark.parametrize("head", list(HEADS))
    def test_copy_bonus(self, head):
        use_copy, b2 = HEADS[head]
        cfg = tiny_config(use_copy=use_copy)
        batch = make_batch(cfg)
        out, _ = forward_batch(saturate_gate(healthy_params(cfg), b2), batch)
        want = (1.0 - out.omega)[..., None] * out.p_gen
        idx = batch.char_ids[..., None]
        np.put_along_axis(want, idx, np.take_along_axis(want, idx, -1) + out.omega[..., None], -1)
        assert np.array_equal(out.p_out, want)

    def test_gold_picks_in_the_gradients(self):
        cfg = tiny_config()
        batch = make_batch(cfg)
        params = healthy_params(cfg)
        _, grads = loss_and_grads(params, batch)
        out, _ = forward_batch(params, batch)
        gold, mask = batch.gold_ids[..., None], batch.char_mask
        psel = np.take_along_axis(out.p_out, gold, -1)[..., 0]
        pgen_gold = np.take_along_axis(out.p_gen, gold, -1)[..., 0]
        dpsel = -mask / ((psel + LOSS_EPS) * max(float(mask.sum()), 1.0))
        tmp = dpsel * (1.0 - out.omega) * pgen_gold
        dlogits = -out.p_gen * tmp[..., None]
        np.put_along_axis(dlogits, gold, np.take_along_axis(dlogits, gold, -1) + tmp[..., None], -1)
        assert np.array_equal(grads["b_gen"], dlogits.sum(axis=(0, 1)))
        assert np.array_equal(grads["W_gen"], sum_outer(dlogits, out.h_fused))
        copy_hit = (batch.char_ids == batch.gold_ids).astype(np.float64)
        dsg = dpsel * (copy_hit - pgen_gold) * out.omega * (1.0 - out.omega)
        assert np.array_equal(grads["gate.b2"], np.array(dsg.sum()))


class TestGradients:
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("use_copy", [True, False])
    @pytest.mark.parametrize("gate_regime", list(GATE_REGIMES))
    def test_spot_finite_differences(self, gate_regime, use_copy, layers):
        cfg = tiny_config(use_copy=use_copy, layers=layers)
        params = drive_gate(healthy_params(cfg, scale=0.35, seed=21), gate_regime)
        batch = make_batch(cfg, seed=4)
        _, grads = loss_and_grads(params, batch)
        rng = np.random.default_rng(5)
        h = 1e-5
        blocks = [f"blk{l}.{w}" for l in range(layers) for w in ("Wq", "W1", "W2")]
        for name in ["E_w", "W_w", "b_w", "W_attn", "W_gen", "b_gen", "gate.W1",
                     "gate.b1", "gate.w2", "gate.b2", "E_c", "P", "ln_f.g", *blocks]:
            flat = params.tensors[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = loss_and_grads(params, batch)
                flat[i] = orig - h
                lm, _ = loss_and_grads(params, batch)
                flat[i] = orig
                num = (lp - lm) / (2 * h)
                denom = max(abs(num), abs(gflat[i]), 1e-7)
                assert abs(num - gflat[i]) / denom < 1e-4, f"{name}[{i}]"


# ------------------------------------------------- the step on real rows only
# The step as it ran when fusion, head and loss computed on every slot of
# the padded [B, n] grid: the reference the packed step must equal bit for bit.


def _grid_fusion_forward(t, h, word_ids, word_mask):
    ew = t["E_w"][word_ids]
    u = ew @ t["W_w"].T
    u += t["b_w"]
    np.tanh(u, out=u)
    hW = h @ t["W_attn"]
    scores = np.einsum("bnmd,bnd->bnm", u, hW)
    a = masked_softmax(scores, word_mask)
    z = np.einsum("bnm,bnmd->bnd", a, u)
    return h + z, (ew, u, hW, a)


def _grid_head_forward(t, cfg, ht, char_ids):
    logits = ht @ t["W_gen"].T
    logits += t["b_gen"]
    p_gen = softmax(logits)
    gcache = None
    if not cfg.use_copy:
        omega = np.zeros(char_ids.shape)
    else:
        g_pre = ht @ t["gate.W1"].T + t["gate.b1"]
        g_act, g_t = gelu(g_pre)
        g_ln, lnc = ln_forward(g_act, t["gate.ln.g"], t["gate.ln.b"])
        omega = sigmoid(g_ln @ t["gate.w2"] + t["gate.b2"])
        gcache = (g_pre, g_t, g_ln, lnc)
    p = (1.0 - omega)[..., None] * p_gen
    np.put_along_axis(p, char_ids[..., None],
                      np.take_along_axis(p, char_ids[..., None], -1) + omega[..., None], -1)
    return p, omega, p_gen, gcache


def grid_loss_and_grads(params, batch):
    t, cfg = params.tensors, params.config
    h, ecache = encoder_forward(t, cfg, batch.char_ids, batch.char_mask)
    ht, (ew, u, hW, a) = _grid_fusion_forward(t, h, batch.word_ids, batch.word_mask)
    p, omega, p_gen, gcache = _grid_head_forward(t, cfg, ht, batch.char_ids)
    gold, mask = batch.gold_ids, batch.char_mask
    psel = np.take_along_axis(p, gold[..., None], -1)[..., 0]
    denom = max(float(mask.sum()), 1.0)
    loss = float(-(mask * np.log(psel + LOSS_EPS)).sum() / denom)
    dpsel = -mask / ((psel + LOSS_EPS) * denom)
    pgen_gold = np.take_along_axis(p_gen, gold[..., None], -1)[..., 0]
    copy_hit = (batch.char_ids == gold).astype(np.float64)
    tmp = dpsel * (1.0 - omega) * pgen_gold
    dlogits = -p_gen * tmp[..., None]
    np.put_along_axis(dlogits, gold[..., None],
                      np.take_along_axis(dlogits, gold[..., None], -1) + tmp[..., None], -1)
    grads = {"W_gen": sum_outer(dlogits, ht), "b_gen": dlogits.sum(axis=(0, 1))}
    dht = dlogits @ t["W_gen"]
    if gcache is not None:
        g_pre, g_t, g_ln, lnc = gcache
        dsg = dpsel * (copy_hit - pgen_gold) * omega * (1.0 - omega)
        grads["gate.w2"] = sum_outer(dsg[..., None], g_ln)[0]
        grads["gate.b2"] = np.array(dsg.sum())
        dg_act, grads["gate.ln.g"], grads["gate.ln.b"] = ln_backward(
            dsg[..., None] * t["gate.w2"], lnc)
        dg_pre = dg_act * gelu_grad(g_pre, g_t)
        grads["gate.W1"] = sum_outer(dg_pre, ht)
        grads["gate.b1"] = dg_pre.sum(axis=(0, 1))
        dht = dht + dg_pre @ t["gate.W1"]
    else:
        grads.update((k, np.zeros_like(v)) for k, v in t.items() if k.startswith("gate."))
    da = np.einsum("bnd,bnmd->bnm", dht, u)
    du = a[..., None] * dht[:, :, None, :]
    ds = softmax_backward(a, da)
    du += ds[..., None] * hW[:, :, None, :]
    dhW = np.einsum("bnm,bnmd->bnd", ds, u)
    dh = dht + dhW @ t["W_attn"].T
    dpre = du * (1.0 - u * u)
    grads["W_w"] = sum_outer(dpre, ew)
    grads["b_w"] = dpre.sum(axis=(0, 1, 2))
    grads["E_w"] = scatter_rows(batch.word_ids, dpre @ t["W_w"], len(t["E_w"]))
    grads["W_attn"] = sum_outer(h, dhW)
    grads.update(encoder_backward(t, cfg, ecache, dh))
    return loss, grads


def batch_of_lengths(cfg, lengths, seed=7):
    """assemble_batch over random sentences of the given lengths."""
    rng = np.random.default_rng(seed)
    items = []
    for k in lengths:
        cid = rng.integers(2, cfg.char_vocab_size, size=k)
        gid = np.where(rng.random(k) < 0.3, rng.integers(2, cfg.char_vocab_size, size=k), cid)
        wid = rng.integers(2, cfg.word_vocab_size, size=(k, cfg.m_max))
        wmask = (rng.random((k, cfg.m_max)) < 0.6).astype(float)
        items.append((cid, gid, wid, wmask))
    return assemble_batch(items)


BATCH_SHAPES = {
    "no_padding": [6, 6, 6],
    "single_char_row": [7, 1, 5, 7],
    "pad_heavy_row": [12, 2, 11, 12, 3],
}


def assert_same_step(got, want):
    (loss, grads), (want_loss, want_grads) = got, want
    assert loss == want_loss
    assert list(grads) == list(want_grads)
    for k in want_grads:
        assert np.array_equal(grads[k], want_grads[k]), k


class TestPackedStep:
    """loss_and_grads computes fusion, head and loss on the real positions
    only; its loss and every gradient equal the grid step's bit for bit."""

    @pytest.mark.parametrize("shape", sorted(BATCH_SHAPES))
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("head", list(HEADS))
    @pytest.mark.parametrize("gate_regime", list(GATE_REGIMES))
    def test_equals_grid_step(self, gate_regime, head, layers, shape):
        use_copy, b2 = HEADS[head]
        cfg = tiny_config(use_copy=use_copy, layers=layers)
        params = saturate_gate(drive_gate(healthy_params(cfg), gate_regime), b2)
        batch = batch_of_lengths(cfg, BATCH_SHAPES[shape])
        assert_same_step(loss_and_grads(params, batch), grid_loss_and_grads(params, batch))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_grid_step_at_training_shapes(self, seed):
        # 64 sentences of 1-12 chars, at widths where OpenBLAS on AVX-512
        # rounds a row by where it sits in a call and blocks a sum by its length
        cfg = tiny_config(char_vocab_size=500, word_vocab_size=40, d_c=64, d_w=16,
                          ffn_dim=32, gate_dim=32, m_max=5)
        params = init_params(cfg, [chr(0x4E00 + i) for i in range(498)])
        rng = np.random.default_rng(seed)
        for arr in params.tensors.values():
            arr[...] = rng.normal(0.0, 0.1, arr.shape)
        batch = batch_of_lengths(cfg, rng.integers(1, 13, size=64), seed=seed)
        assert_same_step(loss_and_grads(params, batch), grid_loss_and_grads(params, batch))

    @pytest.mark.parametrize("use_copy", [True, False])
    def test_pad_slots_do_not_matter(self, use_copy):
        cfg = tiny_config(use_copy=use_copy)
        params = healthy_params(cfg)
        batch = batch_of_lengths(cfg, BATCH_SHAPES["pad_heavy_row"])
        pad = batch.char_mask == 0
        rng = np.random.default_rng(9)
        noisy = Batch(batch.char_ids.copy(), batch.char_mask, batch.word_ids.copy(),
                      batch.word_mask.copy(), batch.gold_ids.copy())
        noisy.char_ids[pad] = rng.integers(0, cfg.char_vocab_size, size=pad.sum())
        noisy.gold_ids[pad] = rng.integers(0, cfg.char_vocab_size, size=pad.sum())
        noisy.word_ids[pad] = rng.integers(0, cfg.word_vocab_size, size=(pad.sum(), cfg.m_max))
        noisy.word_mask[pad] = rng.random((pad.sum(), cfg.m_max)) < 0.5
        assert_same_step(loss_and_grads(params, noisy), loss_and_grads(params, batch))

    @pytest.mark.parametrize("shape", sorted(BATCH_SHAPES))
    def test_loss_is_nll_of_forward_batch(self, shape):
        cfg = tiny_config()
        params = healthy_params(cfg)
        batch = batch_of_lengths(cfg, BATCH_SHAPES[shape])
        loss, _ = loss_and_grads(params, batch)
        out, _ = forward_batch(params, batch)
        assert loss == nll_loss(out.p_out, batch.gold_ids, batch.char_mask)

    def test_too_long_rejected(self):
        cfg = tiny_config(max_len=4)
        with pytest.raises(SequenceTooLong):
            loss_and_grads(init_params(cfg, CHARS), make_batch(cfg))

    @pytest.mark.parametrize("bad", [-1, -2, 6, 7], ids=["-1", "-2", "vocab", "vocab+1"])
    @pytest.mark.parametrize("run", [forward_batch, loss_and_grads],
                             ids=["forward_batch", "loss_and_grads"])
    def test_foreign_word_id_is_a_hanfix_error(self, run, bad):
        # a negative id would read E_w from its end, and one past it would
        # raise a bare IndexError; word_vocab_size is 6
        cfg = tiny_config()
        params = healthy_params(cfg)
        batch = make_batch(cfg)
        batch.word_ids[1, 2, 1] = bad
        with pytest.raises(HanfixError, match=f"^batch row 1: candidate word id {bad} out "
                                              f"of range for word_vocab_size=6;"):
            run(params, batch)

    @pytest.mark.parametrize("dtype", [np.int32, np.int16, np.int8, np.uint8, np.uint64])
    @pytest.mark.parametrize("run", [forward_batch, loss_and_grads],
                             ids=["forward_batch", "loss_and_grads"])
    def test_word_ids_of_any_int_dtype(self, run, dtype):
        # a hand-made Batch may hold its ids in any int type: valid ids run
        # as int64 ones do, and a foreign one is the same HanfixError
        cfg = tiny_config()
        params = healthy_params(cfg)
        batch = make_batch(cfg)
        want = run(params, batch)
        batch.word_ids = batch.word_ids.astype(dtype)
        got = run(params, batch)
        if run is forward_batch:
            assert np.array_equal(got[0].p_out, want[0].p_out)
        else:
            assert_same_step(got, want)
        bads = [6, 7] + ([-1] if np.issubdtype(dtype, np.signedinteger) else [])
        for bad in bads:
            broken = batch.word_ids.copy()
            broken[1, 2, 1] = bad
            batch.word_ids = broken
            with pytest.raises(HanfixError, match=f"^batch row 1: candidate word id {bad} "
                                                  f"out of range for word_vocab_size=6;"):
                run(params, batch)

    def test_foreign_word_id_at_a_pad_slot(self):
        # loss_and_grads reads real positions only; forward_batch reads every
        # slot.  E_w.take wraps -1 but raises IndexError at and beyond
        # word_vocab_size (6), so those show a pad-slot id that is read
        cfg = tiny_config()
        params = healthy_params(cfg)
        batch = make_batch(cfg)
        want = loss_and_grads(params, batch)
        for bad in (-1, 6, 10**6):
            batch.word_ids[1, 4, 0] = bad
            assert_same_step(loss_and_grads(params, batch), want)
            with pytest.raises(HanfixError, match=f"batch row 1: candidate word id {bad} "):
                forward_batch(params, batch)


# ------------------------------------------------------ the inference pass
# forward_batch and correct_many as they ran on the training forward: every
# slot, every cache kept, and the mixture in a fresh array beside P_gen.  The
# training encoder is pinned to a fresh-array attention softmax in
# test_encoder.py.


def training_forward_batch(params, batch):
    t, cfg = params.tensors, params.config
    h, _ = encoder_forward(t, cfg, batch.char_ids, batch.char_mask)
    ht, (_, _, _, a) = _grid_fusion_forward(t, h, batch.word_ids, batch.word_mask)
    p, omega, p_gen, _ = _grid_head_forward(t, cfg, ht, batch.char_ids)
    return ForwardOut(h=h, h_fused=ht, attn=a, omega=omega, p_gen=p_gen, p_out=p)


def inference_world(d_c, **over):
    """Params of width d_c with every tensor random and clearly nonzero; their
    chars spell the sentences."""
    cfg = tiny_config(**{**dict(char_vocab_size=40, word_vocab_size=20, d_c=d_c, d_w=8,
                                ffn_dim=2 * d_c, gate_dim=16), **over})
    chars = [chr(0x4E00 + i) for i in range(cfg.char_vocab_size - 2)]
    params = init_params(cfg, chars)
    rng = np.random.default_rng(d_c)
    for arr in params.tensors.values():
        arr[...] = rng.normal(0.0, 0.3, arr.shape)
    return params


def with_dtype(params, dtype):
    """params with every tensor cast to dtype: float32 is how load_checkpoint
    returns them."""
    return ModelParams(params.config, params.chars,
                       {k: v.astype(dtype) for k, v in params.tensors.items()})


def reference_decode(params, sentences, feats, batch_size, forward=None):
    """correct_many as it decoded every position: the argmax of the mixture
    p_out (forward_batch's, or `forward`'s), where a reserved id and an
    unknown character keep the input character.  Also returns the omegas of
    the real positions."""
    forward = forward or (lambda params_, batch: forward_batch(params_, batch)[0])
    out, omegas = [""] * len(sentences), []
    todo = [i for i, s in enumerate(sentences) if len(s) > 0]
    for lo in range(0, len(todo), batch_size):
        chunk = todo[lo:lo + batch_size]
        batch = assemble_batch([(params.char_to_ids(sentences[i]), None, *feats[i])
                                for i in chunk])
        fwd = forward(params, batch)
        omegas.append(fwd.omega[batch.char_mask > 0])
        for row, i in enumerate(chunk):
            pred = fwd.p_out[row, :len(sentences[i])].argmax(axis=-1).tolist()
            out[i] = "".join(ch if k < CHAR_ID_OFFSET or ch not in params.char_index
                             else params.chars[k - CHAR_ID_OFFSET]
                             for ch, k in zip(sentences[i], pred))
    return out, np.concatenate(omegas) if omegas else np.zeros(0)


class TestInferencePass:
    """forward_batch and correct_many keep no backward cache and mix in
    place, with every output equal to the training forward's bit for bit."""

    @pytest.mark.parametrize("shape", sorted(BATCH_SHAPES))
    @pytest.mark.parametrize("d_c", [16, 64])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("head", list(HEADS))
    @pytest.mark.parametrize("gate_regime", list(GATE_REGIMES))
    def test_forward_batch_equals_training_forward(self, gate_regime, head, layers, d_c,
                                                   shape):
        use_copy, b2 = HEADS[head]
        params = saturate_gate(drive_gate(inference_world(d_c, use_copy=use_copy,
                                                          layers=layers), gate_regime), b2)
        batch = batch_of_lengths(params.config, BATCH_SHAPES[shape])
        got, rest = forward_batch(params, batch)
        want = training_forward_batch(params, batch)
        assert rest is None
        if b2 is not None:
            assert (got.omega[batch.char_mask > 0] == float(b2 > 0)).all()
        for name in ("h", "h_fused", "attn", "omega", "p_gen", "p_out"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("d_c", [16, 64])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("use_copy", [True, False])
    @pytest.mark.parametrize("gate_regime", list(GATE_REGIMES))
    def test_correct_many_equals_training_forward(self, gate_regime, use_copy, layers, d_c):
        params = drive_gate(inference_world(d_c, use_copy=use_copy, layers=layers),
                            gate_regime)
        cfg = params.config
        rng = np.random.default_rng(4)
        lengths = [7, 1, 0, 5, 7, 3, 0, 7]  # two batches of 3; one-char row; empties
        sentences = ["".join(rng.choice(params.chars, k)) for k in lengths]
        feats = [(rng.integers(2, cfg.word_vocab_size, size=(k, cfg.m_max)),
                  (rng.random((k, cfg.m_max)) < 0.6).astype(float)) for k in lengths]
        want, _ = reference_decode(params, sentences, feats, 3, training_forward_batch)
        assert correct_many(params, sentences, feats, batch_size=3) == want

    @pytest.mark.parametrize("d_c, layers, use_copy, bound", [
        (16, 1, True, 0.6), (16, 1, False, 0.75), (64, 2, True, 1.5), (64, 2, False, 1.5)])
    def test_correct_many_peak_memory(self, d_c, layers, use_copy, bound):
        # one 64-sentence call at correct_batch-like shapes (24-60 chars,
        # m_max 8, v 182), measured in [64, 60, v] float64 arrays: the
        # training forward's caches and a second mixture array read 6.0x at
        # d_c 16 and 17.2x at d_c 64 (2 layers).  A cache-free pass on every
        # slot, whose encoder blocks held each intermediate until they
        # returned and whose fusion layer held the gathered word embeddings,
        # read 2.4x and 7.1x, with the copy gate on or off.  The gate-first
        # pass over all 64 sentences read 1.6x and 4.4x where the fresh gate
        # (omega > 1/2 everywhere) leaves the generator idle, and 1.9x and
        # 4.4x where use_copy=False sends every position to it.  Length-sorted
        # passes of at most _PASS_CHARS padded characters, about a quarter of
        # the grid, read 0.44x and 1.18x, and 0.58x and 1.19x; the fusion
        # layer's [B, n, m, d_c] candidate states dominate at d_c 64.  With
        # the generator's logits computed at the open rows only, not on the
        # grid, use_copy=False reads 0.45x and 1.19x
        v, m = 182, 8
        cfg = ModelConfig(char_vocab_size=v, word_vocab_size=2000, d_c=d_c, d_w=16,
                          layers=layers, heads=2, ffn_dim=2 * d_c, gate_dim=16,
                          m_max=m, max_len=64, use_copy=use_copy)
        params = init_params(cfg, [chr(0x4E00 + i) for i in range(v - 2)])
        rng = np.random.default_rng(0)
        lengths = rng.integers(24, 61, size=64)
        lengths[0] = 60
        sentences = ["".join(rng.choice(params.chars, k)) for k in lengths]
        feats = [(rng.integers(2, cfg.word_vocab_size, size=(k, m)),
                  (rng.random((k, m)) < 0.7).astype(float)) for k in lengths]
        tracemalloc.start()
        try:
            correct_many(params, sentences, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid = 64 * 60 * v * 8
        assert peak < bound * grid, peak / grid

    @pytest.mark.parametrize("use_copy", [True, False])
    def test_float32_stays_float32(self, use_copy, monkeypatch):
        # a loaded checkpoint's float32 tensors: no array of a pass widens to
        # float64, on a padded grid, on packed rows or in a batch of one
        params = with_dtype(inference_world(16, use_copy=use_copy), np.float32)
        params.tensors["gate.b2"][...] = -30.0  # the gate opens every position
        for lengths in ([6, 2, 5], [4]):
            out, _ = forward_batch(params, batch_of_lengths(params.config, lengths))
            for name in ("h", "h_fused", "attn", "omega", "p_gen", "p_out"):
                assert getattr(out, name).dtype == np.float32, (lengths, name)
        seen = []
        gen_forward, mix = model_module._gen_forward, model_module._mix

        def gen_spy(tensors, logits):
            seen.append(("logits", logits.dtype))
            return gen_forward(tensors, logits)

        def mix_spy(p, omega, char_ids):
            seen.extend((("p", p.dtype), ("omega", omega.dtype)))
            return mix(p, omega, char_ids)

        monkeypatch.setattr(model_module, "_gen_forward", gen_spy)
        monkeypatch.setattr(model_module, "_mix", mix_spy)
        sentences, feats = random_sentences(np.random.default_rng(6), params, 12, (1, 13))
        for batch_size in (64, 1):  # one packed pass, then grids of one sentence
            seen.clear()
            got = correct_many(params, sentences, feats, batch_size=batch_size)
            assert got == reference_decode(params, sentences, feats, batch_size)[0]
            assert seen and {dtype for _, dtype in seen} == {np.dtype(np.float32)}, seen


# ------------------------------------------------------ the gate decides first


def random_decode_world(rng):
    """Random config and params; every tensor random and clearly nonzero, with
    gate.b2 at the config's gate_bias_init so omega spreads around it."""
    v = int(rng.integers(5, 401))
    d_c = int(rng.choice([16, 32, 64]))
    cfg = ModelConfig(
        char_vocab_size=v, word_vocab_size=int(rng.integers(3, 40)), d_c=d_c, d_w=8,
        layers=int(rng.integers(1, 3)), heads=2, ffn_dim=32, gate_dim=8,
        m_max=int(rng.integers(1, 6)), max_len=64, use_copy=bool(rng.random() < 0.8),
        gate_bias_init=float(rng.choice([-0.3, 0.0, 0.3, 2.0])))
    params = init_params(cfg, [chr(0x4E00 + i) for i in range(v - 2)])
    for arr in params.tensors.values():
        arr[...] = rng.normal(0.0, 0.3, arr.shape)
    params.tensors["gate.b2"][...] = cfg.gate_bias_init
    return params


def random_sentences(rng, params, count, lengths=(0, 61)):
    """Sentences over the vocabulary plus an unknown character, with their
    random features; one-character rows and empty strings among them."""
    cfg, alphabet = params.config, list(params.chars) + ["X"]
    lens = rng.integers(*lengths, size=count)
    lens[: min(count, 2)] = [1, 0][: min(count, 2)]
    rng.shuffle(lens)
    sentences = ["".join(rng.choice(alphabet, int(k))) for k in lens]
    feats = [(rng.integers(2, cfg.word_vocab_size, size=(k, cfg.m_max)),
              (rng.random((k, cfg.m_max)) < 0.6).astype(float)) for k in lens]
    return sentences, feats


class TestGateFirstDecode:
    """correct_many runs the generator only where omega > 1/2 does not settle
    the position, with the outputs of decoding every position."""

    @staticmethod
    def decode_random_worlds(dtype):
        rng = np.random.default_rng(2024)
        opened = total = 0
        for trial in range(60):
            params = with_dtype(random_decode_world(rng), dtype)
            sentences, feats = random_sentences(rng, params, int(rng.integers(1, 70)))
            batch_size = int(rng.choice([1, 7, 64]))
            want, omega = reference_decode(params, sentences, feats, batch_size)
            got = correct_many(params, sentences, feats, batch_size=batch_size)
            assert got == want, (trial, params.config)
            assert omega.dtype == dtype
            opened += int((~(omega > 0.5)).sum())
            total += omega.size
        # both branches are exercised: many positions go to the generator
        assert 0.2 < opened / total < 0.8, opened / total

    def test_equals_reference_decode(self):
        self.decode_random_worlds(np.float64)

    def test_equals_reference_decode_in_float32(self):
        # the same worlds, cast as load_checkpoint returns tensors
        self.decode_random_worlds(np.float32)

    def test_omega_exactly_half_goes_to_the_generator(self):
        # omega = sigmoid(0) = 1/2 exactly, and P_gen is one-hot at the first
        # real id: the mixture ties it with the input id, and argmax takes
        # the lower one, so only the generator branch reproduces the output
        rng = np.random.default_rng(5)
        params = random_decode_world(rng)
        t = params.tensors
        t["gate.w2"][...] = 0.0
        t["gate.b2"][...] = 0.0
        t["b_gen"][CHAR_ID_OFFSET] = 1000.0
        first = params.chars[0]
        sentences, feats = random_sentences(rng, params, 9, lengths=(1, 12))
        want, omega = reference_decode(params, sentences, feats, 4)
        assert params.config.use_copy and (omega == 0.5).all()
        assert correct_many(params, sentences, feats, batch_size=4) == want
        assert want == ["".join("X" if ch == "X" else first for ch in s) for s in sentences]

    @pytest.mark.parametrize("use_copy", [True, False])
    def test_batch_of_one(self, use_copy):
        rng = np.random.default_rng(8)
        params = inference_world(16, use_copy=use_copy)
        sentences, feats = random_sentences(rng, params, 12, lengths=(1, 9))
        want, _ = reference_decode(params, sentences, feats, 1)
        assert correct_many(params, sentences, feats, batch_size=1) == want
        if not use_copy:  # omega is 0: every output is the generator's
            assert want != sentences

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_unknown_characters_are_kept_with_the_gate_open(self, batch_size):
        # b2 = -30 sends every position to the generator, which only knows
        # the vocabulary: an unknown character is never rewritten as one
        params = inference_world(16)
        params.tensors["gate.b2"][...] = -30.0
        known = params.chars
        sentences = ["亪世丶A3z😀乌一", known[3] + "X" + known[5] * 3 + "😀",
                     "XYZ", known[7] * 6, known[1] + "Q"]
        rng = np.random.default_rng(11)
        cfg = params.config
        feats = [(rng.integers(2, cfg.word_vocab_size, size=(len(s), cfg.m_max)),
                  (rng.random((len(s), cfg.m_max)) < 0.6).astype(float)) for s in sentences]
        got = correct_many(params, sentences, feats, batch_size=batch_size)
        want, omega = reference_decode(params, sentences, feats, batch_size)
        assert (omega < 0.5).all()
        assert got == want
        for s, out in zip(sentences, got):
            assert len(out) == len(s)
            assert [o for ch, o in zip(s, out) if ch not in params.char_index] == \
                [ch for ch in s if ch not in params.char_index], (s, out)
        # the generator does edit the known characters
        assert sum(o != ch for s, out in zip(sentences, got) for ch, o in zip(s, out)
                   if ch in params.char_index) > 0

    @staticmethod
    def mix_argmax(dtype, omega, x, j, one_hot, seed):
        # the lemma correct_many rests on, for any softmax row: random, or
        # one-hot at j with all of its mass away from x
        v = 5
        if one_hot:
            j = j if j != x else (x + 1) % v
            p = np.zeros((1, v), dtype)
            p[0, j] = 1.0
        else:
            p = softmax(np.random.default_rng(seed).normal(0.0, 30.0, (1, v)).astype(dtype))
        mixed = model_module._mix(p, np.array([omega], dtype), np.array([x]))
        assert mixed.dtype == dtype
        assert mixed.argmax(axis=-1)[0] == x

    @given(st.floats(0.5, 1.0, exclude_min=True), st.integers(0, 4),
           st.integers(0, 4), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_mix_argmax_is_the_input_above_half(self, omega, x, j, one_hot, seed):
        self.mix_argmax(np.float64, omega, x, j, one_hot, seed)

    @given(st.floats(0.5, 1.0, exclude_min=True, width=32), st.integers(0, 4),
           st.integers(0, 4), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_mix_argmax_is_the_input_above_half_in_float32(self, omega, x, j, one_hot, seed):
        self.mix_argmax(np.float32, omega, x, j, one_hot, seed)

    @staticmethod
    def mix_argmax_at_the_edges(dtype):
        v = 7
        half, one = dtype(0.5), dtype(1.0)
        for omega in (np.nextafter(half, one), dtype(0.75), np.nextafter(one, half), one):
            for x in range(v):
                for j in range(v):
                    p = np.zeros((1, v), dtype)
                    p[0, j] = 1.0
                    mixed = model_module._mix(p, np.array([omega], dtype), np.array([x]))
                    assert mixed.argmax(axis=-1)[0] == x, (omega, x, j)

    def test_mix_argmax_at_the_edges(self):
        self.mix_argmax_at_the_edges(np.float64)

    def test_mix_argmax_at_the_edges_in_float32(self):
        self.mix_argmax_at_the_edges(np.float32)


class TestPasses:
    """correct_many runs its non-empty sentences shortest first, in passes of
    at most batch_size sentences and _PASS_CHARS padded characters."""

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_pass_composition(self, monkeypatch, batch_size):
        rng = np.random.default_rng(batch_size)
        params = inference_world(16, use_copy=False, max_len=64)
        sentences, feats = random_sentences(rng, params, 90)
        row_of = {id(wid): i for i, (wid, _) in enumerate(feats)}
        passes = []

        def spy(items):
            passes.append([row_of[id(item[2])] for item in items])
            return assemble_batch(items)

        monkeypatch.setattr(model_module, "assemble_batch", spy)
        got = correct_many(params, sentences, feats, batch_size=batch_size)
        lengths = [[len(sentences[i]) for i in p] for p in passes]
        for p, ks in zip(passes, lengths):
            assert 1 <= len(p) <= batch_size
            assert len(p) == 1 or len(p) * max(ks) <= model_module._PASS_CHARS
        # shortest first, equal lengths in input order, each sentence once
        order = [i for p in passes for i in p]
        assert order == sorted((i for i, s in enumerate(sentences) if s),
                               key=lambda i: len(sentences[i]))
        if batch_size == 64:  # the character budget cuts every pass
            assert max(map(len, passes)) < batch_size
        assert got != sentences  # use_copy=False: the generator edits
        rev = correct_many(params, sentences[::-1], feats[::-1], batch_size=batch_size)
        assert rev == got[::-1]

    @pytest.mark.parametrize("batch_size", [0, -1, 2.0, True])
    def test_rejects_a_batch_size_below_one_or_not_an_int(self, batch_size):
        params = inference_world(16)
        sentences, feats = random_sentences(np.random.default_rng(0), params, 3, (1, 9))
        with pytest.raises(ValueError, match=f"^batch_size must be an int of at least 1, "
                                             f"got {batch_size!r}$"):
            correct_many(params, sentences, feats, batch_size=batch_size)


class TestPackedRows:
    """correct_many runs the encoder, fusion, the gate and the generator on
    the N real characters of a pass as 2-D rows, with forward_batch's
    outputs on the same pass.  Sentences come sorted by length, so that
    reference_decode's batches are correct_many's passes."""

    LENGTHS = [1, 2, 2, 3, 5, 6, 7, 7, 9, 12, 12]

    @staticmethod
    def world(lengths, seed, b2=None, gen_scale=1.0, d_c=16):
        params = inference_world(d_c)
        params.tensors["W_gen"] *= gen_scale
        if b2 is not None:
            params.tensors["gate.b2"][...] = b2
        rng = np.random.default_rng(seed)
        sentences = ["".join(rng.choice(params.chars, k)) for k in lengths]
        cfg = params.config
        feats = [(rng.integers(2, cfg.word_vocab_size, size=(k, cfg.m_max)),
                  (rng.random((k, cfg.m_max)) < 0.6).astype(float)) for k in lengths]
        return params, sentences, feats

    @pytest.mark.parametrize("b2", [None, -30.0], ids=["learned", "open"])
    @pytest.mark.parametrize("batch_size", [1, 4, 64])
    def test_equals_forward_batch(self, b2, batch_size):
        # padded mixed-length passes, and a batch of one, at d_c 16 and at
        # the default width
        for d_c in (16, 64):
            params, sentences, feats = self.world(self.LENGTHS, 1, b2, d_c=d_c)
            want, omega = reference_decode(params, sentences, feats, batch_size)
            assert correct_many(params, sentences, feats, batch_size=batch_size) == want, d_c
            if b2 is not None:  # the gate is open everywhere: the generator edits
                assert (omega < 0.5).all()
                assert sum(w != s for w, s in zip(want, sentences)) > len(sentences) // 2

    @pytest.mark.parametrize("b2", [None, -30.0], ids=["learned", "open"])
    def test_passes_of_one_character_sentences(self, b2):
        # a [B, 1] grid: forward_batch's products are one row per call
        for d_c in (16, 64):
            params, sentences, feats = self.world([1] * 7, 2, b2, d_c=d_c)
            for batch_size in (1, 3, 64):
                want, _ = reference_decode(params, sentences, feats, batch_size)
                got = correct_many(params, sentences, feats, batch_size=batch_size)
                assert got == want, (d_c, batch_size)

    @pytest.mark.parametrize("lengths", [[9], [3, 5, 8]])
    def test_one_open_position(self, lengths):
        # b2 moved between the two lowest gate logits of the pass leaves one
        # position to the generator, which a peaked P_gen makes edit
        params, sentences, feats = self.world(lengths, 5, gen_scale=30.0)
        _, omega = reference_decode(params, sentences, feats, 64)
        logit = np.sort(np.log(omega) - np.log1p(-omega))
        params.tensors["gate.b2"] -= (logit[0] + logit[1]) / 2
        want, omega = reference_decode(params, sentences, feats, 64)
        assert (omega <= 0.5).sum() == 1
        assert want != sentences
        assert correct_many(params, sentences, feats) == want

    @pytest.mark.parametrize("lengths", [
        [1, 4, 1, 9, 2, 9, 1, 12, 7, 3, 12, 5, 8, 1, 11, 6, 10, 2, 12, 4],
        [1, 12], [6] * 20, [9]], ids=["mixed", "one_long", "no_padding", "one"])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("ffn_dim", [32, 64])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_packed_encoder_states_equal_the_grid(self, layers, ffn_dim, heads, lengths):
        # the encoder's work at the real rows, attention on the grid: each
        # real row's state equals the grid's up to rounding
        for d_c in (16, 32, 64):
            params = inference_world(d_c, layers=layers, heads=heads, ffn_dim=ffn_dim)
            t, cfg = params.tensors, params.config
            batch = batch_of_lengths(cfg, lengths)
            grid, none = encoder_forward(t, cfg, batch.char_ids, batch.char_mask,
                                         _keep_cache=False)
            rows = _Rows(batch.char_mask)
            packed, _ = encoder_forward(t, cfg, batch.char_ids, batch.char_mask, rows,
                                        _keep_cache=False)
            assert none is None
            assert packed.shape == (sum(lengths), d_c)
            np.testing.assert_allclose(packed, grid[batch.char_mask > 0], rtol=0,
                                       atol=1e-12, err_msg=f"d_c {d_c}")
            # every slot (training's rows) is the grid itself, cache and all
            same, cache = encoder_forward(t, cfg, batch.char_ids, batch.char_mask, _Rows())
            assert np.array_equal(same, grid) and cache is not None

    def test_packed_encoder_keeps_no_cache(self):
        params = inference_world(16)
        batch = batch_of_lengths(params.config, [3, 5])
        with pytest.raises(ValueError, match="encoder_backward needs every slot"):
            encoder_forward(params.tensors, params.config, batch.char_ids, batch.char_mask,
                            _Rows(batch.char_mask))

    def test_a_foreign_id_in_a_padded_pass_names_its_sentence(self):
        # input 2 is the longest, so its rows come last in the pass
        params, sentences, feats = self.world([4, 2, 9, 2, 6], 4)
        bad = params.config.word_vocab_size
        for i, at in ((3, 1), (2, 8), (0, 0)):
            wid = feats[i][0].copy()
            wid[at, 0] = bad
            broken = feats[:i] + [(wid, feats[i][1])] + feats[i + 1:]
            with pytest.raises(HanfixError, match=f"^sentence {i}: candidate word id {bad} "):
                correct_many(params, sentences, broken)


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

    @pytest.mark.parametrize("lengths", [[7, 1, 0, 5, 7], [4, 4], [6], [0, 0]],
                             ids=["padded", "no_padding", "one", "all_empty"])
    @pytest.mark.parametrize("gold", [True, False])
    def test_assemble_equals_slice_writes(self, lengths, gold):
        # one scatter per array: the same arrays, dtypes and bytes as a
        # slice write per sentence, from int32 ids and bool masks too
        rng = np.random.default_rng(len(lengths))
        m = 3
        items = [(rng.integers(2, 40, k).astype(np.int32 if k % 2 else np.int64),
                  rng.integers(2, 40, k) if gold else None,
                  rng.integers(2, 20, (k, m)),
                  rng.random((k, m)) < 0.5 if k % 2 else rng.random((k, m)))
                 for k in lengths]
        B, n = len(items), max(lengths)
        want = Batch(np.full((B, n), CHAR_PAD_ID, np.int64), np.zeros((B, n)),
                     np.full((B, n, m), 1, np.int64), np.zeros((B, n, m)),
                     np.full((B, n), CHAR_PAD_ID, np.int64) if gold else None)
        for b, (cid, gid, wid, wmask) in enumerate(items):
            k = len(cid)
            want.char_ids[b, :k], want.char_mask[b, :k] = cid, 1.0
            want.word_ids[b, :k], want.word_mask[b, :k] = wid, wmask
            if gold:
                want.gold_ids[b, :k] = gid
        got = assemble_batch(items)
        for name in ("char_ids", "char_mask", "word_ids", "word_mask", "gold_ids"):
            a, b = getattr(got, name), getattr(want, name)
            if b is None:
                assert a is None
                continue
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

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

    @pytest.mark.parametrize("bad", [-1, -7])
    def test_correct_many_rejects_negative_ids(self, word_world, bad):
        # a negative id would index E_w from its end and correct silently
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2,
                          word_vocab_size=len(lexicon) + 2)
        params = init_params(cfg, chars)
        feats = featurize_sentences(["参加", "参家"], lexicon, ptable, fuzzy, cfg.m_max)
        wid = feats[1][0].copy()
        wid[1, 0] = bad
        feats[1] = (wid, feats[1][1])
        with pytest.raises(HanfixError, match=f"sentence 1: candidate word id {bad} out of range"):
            correct_many(params, ["参加", "参家"], feats)

    @pytest.mark.parametrize("batch_size", [1, 2, 64])
    def test_correct_many_names_the_sentence_of_a_foreign_id(self, word_world, batch_size):
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2,
                          word_vocab_size=len(lexicon) + 2)
        params = init_params(cfg, chars)
        # a longer sentence 0 runs after sentence 3 in the length order
        for first in ("参加", "参加会议参加"):
            sentences = [first, "", "参家", "会议"]
            feats = featurize_sentences(sentences, lexicon, ptable, fuzzy, cfg.m_max)
            wid = feats[3][0].copy()
            wid[0, -1] = cfg.word_vocab_size
            feats[3] = (wid, feats[3][1])
            with pytest.raises(HanfixError, match=f"sentence 3: candidate word id "
                                                  f"{cfg.word_vocab_size} out of range"):
                correct_many(params, sentences, feats, batch_size=batch_size)

    def test_rejects_features_of_another_m_max(self, word_world):
        # featurized at m_max 8 for a model of m_max 3
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2, word_vocab_size=len(lexicon) + 2)
        params = init_params(cfg, chars)
        sentences = ["参加", "参家会议"]
        feats = featurize_sentences(sentences, lexicon, ptable, fuzzy, 8)
        with pytest.raises(HanfixError, match=re.escape(
                "sentence 0: features of shape (2, 8) and (2, 8), expected (2, 3)")):
            correct_many(params, sentences, feats)

    def test_rejects_one_feature_row_for_a_sentence(self, word_world):
        # a single row would broadcast over every position of sentence 1
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2, word_vocab_size=len(lexicon) + 2)
        params = init_params(cfg, chars)
        sentences = ["参加", "参家会议"]
        feats = featurize_sentences(sentences, lexicon, ptable, fuzzy, cfg.m_max)
        wid, wmask = feats[1]
        feats[1] = (wid, wmask[:1])
        with pytest.raises(HanfixError, match=re.escape(
                "sentence 1: features of shape (4, 3) and (1, 3), expected (4, 3)")):
            correct_many(params, sentences, feats)

    def test_rejects_fewer_features_than_sentences(self, word_world):
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2, word_vocab_size=len(lexicon) + 2)
        params = init_params(cfg, chars)
        sentences = ["参加", "参家会议"]
        feats = featurize_sentences(sentences[:1], lexicon, ptable, fuzzy, cfg.m_max)
        with pytest.raises(HanfixError, match="1 feature rows for 2 sentences"):
            correct_many(params, sentences, feats)

    def test_batches_do_not_overlap_in_memory(self, word_world):
        # each batch's caches, outputs and inputs are dropped before the next
        # batch's forward, so three batches peak about as high as one
        ptable, fuzzy, lexicon, chars = word_world
        cfg = tiny_config(char_vocab_size=len(chars) + 2,
                          word_vocab_size=len(lexicon) + 2, max_len=64)
        params = init_params(cfg, chars)
        rng = np.random.default_rng(5)
        sentences = ["".join(rng.choice(chars, 40)) for _ in range(96)]
        feats = featurize_sentences(sentences, lexicon, ptable, fuzzy, cfg.m_max)

        def peak(k):
            tracemalloc.start()
            try:
                correct_many(params, sentences[:k], feats[:k], batch_size=32)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, three = peak(32), peak(96)
        assert three < 1.2 * one, (one, three)

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
            assert loaded.tensors[name].dtype == np.float32

    def test_loaded_tensors_are_the_payload_as_writable_float32(self, saved):
        params, path = saved
        loaded = load_checkpoint(path)
        for name, t in params.tensors.items():
            got = loaded.tensors[name]
            assert got.dtype == np.float32 and got.dtype.isnative, name
            assert got.flags.writeable, name
            assert np.array_equal(got, t.astype(np.float32)), name

    def test_an_in_place_edit_of_a_loaded_tensor_is_decoded_and_saved(self, tmp_path):
        params = inference_world(16)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        sentences, feats = random_sentences(np.random.default_rng(3), loaded, 9, (1, 12))
        before = correct_many(loaded, sentences, feats)
        for p in (loaded, params):
            p.tensors["gate.b2"][...] = -30.0  # the gate opens: the generator writes
        after = correct_many(loaded, sentences, feats)
        assert after != before
        assert after == reference_decode(loaded, sentences, feats, 64)[0]
        save_checkpoint(loaded, tmp_path / "loaded.ckpt")
        save_checkpoint(params, tmp_path / "edited.ckpt")
        assert (tmp_path / "loaded.ckpt").read_bytes() == (tmp_path / "edited.ckpt").read_bytes()

    def test_load_draws_no_random_numbers(self, saved, monkeypatch):
        # names and shapes come from tensor_specs, not from a throwaway init
        params, path = saved

        class NoRandom:
            def __getattr__(self, name):
                raise AssertionError(f"load_checkpoint used np.random.{name}")

        monkeypatch.setattr(np, "random", NoRandom())
        loaded = load_checkpoint(path)
        monkeypatch.undo()
        assert list(loaded.tensors) == list(params.tensors)
        assert [t.shape for t in loaded.tensors.values()] == [
            spec[0] for spec in tensor_specs(params.config).values()]

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

    def test_version_1_is_rejected(self, saved, tmp_path):
        # version 1 headers do not say which lattice the model was trained on
        header, payload = self._split(saved[1].read_bytes())
        del header["config"]["lattice_mode"]
        p = tmp_path / "v1"
        p.write_bytes(self._join(header, payload, version=1))
        with pytest.raises(CheckpointError, match="version 1 .*retrain"):
            load_checkpoint(p)

    def test_version_2_is_rejected(self, saved, tmp_path):
        # version 2 configs also held the gate activation and the init seed
        header, payload = self._split(saved[1].read_bytes())
        header["config"].update(gate_activation="gelu", seed=0)
        p = tmp_path / "v2"
        p.write_bytes(self._join(header, payload, version=2))
        with pytest.raises(CheckpointError, match="version 2 .*retrain"):
            load_checkpoint(p)

    @pytest.mark.parametrize("entry", ["XYZ", 7, "", None, ["一"]])
    def test_rejects_vocabulary_entry_that_is_not_a_character(self, saved, tmp_path, entry):
        # a longer string would lengthen every output that picks its id
        header, payload = self._split(saved[1].read_bytes())
        header["chars"][4] = entry
        p = tmp_path / "chars"
        p.write_bytes(self._join(header, payload))
        with pytest.raises(CheckpointError, match=re.escape(
                f"vocabulary entry 4 is {entry!r}, not one character")):
            load_checkpoint(p)

    def test_save_refuses_float32_overflow(self, tmp_path):
        # finite in float64, +inf once cast to the float32 payload
        params = healthy_params(tiny_config(), seed=31)
        params.tensors["W_attn"][0, 0] = 1e39
        path = tmp_path / "big.ckpt"
        with pytest.raises(HanfixError, match="W_attn"):
            save_checkpoint(params, path)
        assert not path.exists()

    def test_load_refuses_non_finite_payload(self, saved, tmp_path):
        header, payload = self._split(saved[1].read_bytes())
        nan = np.array([np.nan], dtype="<f4").tobytes()
        payload = nan + payload[len(nan):]
        header["payload_crc32"] = zlib.crc32(payload)
        p = tmp_path / "nan"
        p.write_bytes(self._join(header, payload))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(p)

    def test_a_payload_fault_names_its_tensor(self, saved, tmp_path):
        # the payload is checked in one pass; each fault names the tensor
        # it falls in, at either end of that tensor
        header, payload = self._split(saved[1].read_bytes())
        names = [name for name, _ in header["tensors"]]
        stops = list(itertools.accumulate(math.prod(s) for _, s in header["tensors"]))
        inf = np.array([np.inf], dtype="<f4").tobytes()
        p = tmp_path / "fault"
        for i in (1, len(names) // 2, len(names) - 1):
            lo = stops[i - 1]
            for at in (lo, stops[i] - 1):  # the tensor's first and last value
                bad = payload[:4 * at] + inf + payload[4 * at + 4:]
                header["payload_crc32"] = zlib.crc32(bad)
                p.write_bytes(self._join(header, bad))
                with pytest.raises(CheckpointError,
                                   match=f"tensor {names[i]} has non-finite values$"):
                    load_checkpoint(p)
            for cut in (4 * lo, 4 * lo + 2, 4 * stops[i] - 4):  # tensor i incomplete
                header["payload_crc32"] = zlib.crc32(payload[:cut])
                p.write_bytes(self._join(header, payload[:cut]))
                with pytest.raises(CheckpointError,
                                   match=f"payload truncated at tensor {names[i]}$"):
                    load_checkpoint(p)
        # a non-finite value ahead of a truncation is what is reported
        short = inf + payload[4:4 * stops[-1] - 4]
        header["payload_crc32"] = zlib.crc32(short)
        p.write_bytes(self._join(header, short))
        with pytest.raises(CheckpointError, match=f"tensor {names[0]} has non-finite values$"):
            load_checkpoint(p)
        longer = payload + b"\x00" * 3
        header["payload_crc32"] = zlib.crc32(longer)
        p.write_bytes(self._join(header, longer))
        with pytest.raises(CheckpointError, match=": 3 trailing payload bytes$"):
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
    def _join(header, payload, version=_CKPT_VERSION):
        hb = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
        return (_CKPT_MAGIC + version.to_bytes(4, "little")
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

    def test_a_shape_written_as_floats_takes_the_config_shape(self, saved, tmp_path):
        # [4.0, 4] equals the config's (4, 4): the tensor is shaped by the
        # config, not by the header's floats
        params, path = saved
        header, payload = self._split(path.read_bytes())
        header["tensors"][0][1] = [float(d) for d in header["tensors"][0][1]]
        p = tmp_path / "floats"
        p.write_bytes(self._join(header, payload))
        name = header["tensors"][0][0]
        assert load_checkpoint(p).tensors[name].shape == params.tensors[name].shape

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


# ------------------------------------------------------------- word states


def per_slot_states(t, word_ids):
    """The fusion layer's states as they were computed once per slot."""
    u = t["E_w"][word_ids] @ t["W_w"].T
    u += t["b_w"]
    return np.tanh(u, out=u)


class TestWordStates:
    """The fusion layer computes each word's state once, per word, and
    every candidate slot equals the state it had when computed per slot, bit
    for bit."""

    @pytest.mark.parametrize("d_w", [8, 16, 32, 64])
    @pytest.mark.parametrize("d_c", [16, 64])
    def test_blas_rounds_a_row_alike_at_any_place(self, d_w, d_c):
        rng = np.random.default_rng(d_w * d_c)
        w = rng.normal(0.0, 1.0, (d_c, d_w))
        for m in range(1, 13):
            x = rng.normal(0.0, 1.0, (m, d_w))
            want = x @ w.T
            for _ in range(4):
                other = rng.normal(0.0, 1.0, (m, d_w))
                perm = rng.permutation(m)
                other[perm] = x  # row i of x sits at place perm[i]
                got = (other @ w.T)[perm]
                assert np.array_equal(got, want), (
                    f"BLAS rounds a row of an [{m}, {d_w}] @ [{d_w}, {d_c}] matmul by its "
                    "place or by the other rows: the fusion layer's word states "
                    "(hanfix.model.word_states) no longer equal the per-slot states")

    @given(st.integers(2, 5000), st.sampled_from([8, 16, 32, 64]), st.sampled_from([16, 64]),
           st.integers(1, 12), st.lists(st.integers(1, 9), min_size=1, max_size=2),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_distinct_words_equal_per_slot(self, vocab, d_w, d_c, m, lead, seed):
        rng = np.random.default_rng(seed)
        t = {"E_w": rng.normal(0.0, 0.5, (vocab, d_w)),
             "W_w": rng.normal(0.0, d_w ** -0.5, (d_c, d_w)),
             "b_w": rng.normal(0.0, 0.1, d_c)}
        word_ids = rng.integers(0, vocab, (*lead, m))  # 2-D or 3-D
        want = per_slot_states(t, word_ids)
        assert np.array_equal(model_module._slot_states(t, word_ids), want)
        # every word once, in groups of m, as a gather table
        every = np.arange(-(-vocab // m) * m) % vocab
        table = model_module.word_states(t, every.reshape(-1, m)).reshape(len(every), -1)
        assert np.array_equal(table[word_ids], want)

    @pytest.mark.parametrize("vocab", [50, 5000])  # fewer words than slots, and more
    def test_slot_states_equal_per_slot_on_either_route(self, vocab):
        rng = np.random.default_rng(vocab)
        t = {"E_w": rng.normal(0.0, 0.5, (vocab, 32)),
             "W_w": rng.normal(0.0, 32 ** -0.5, (64, 32)),
             "b_w": rng.normal(0.0, 0.1, 64)}
        word_ids = rng.integers(0, vocab, (3, 40, 8))
        assert np.array_equal(model_module._slot_states(t, word_ids),
                              per_slot_states(t, word_ids))

    def test_in_place_edits_show_in_the_next_call(self):
        params = inference_world(16)
        batch = batch_of_lengths(params.config, [6, 2, 5])
        before = forward_batch(params, batch)[0]
        params.tensors["E_w"] *= 1.5
        after = forward_batch(params, batch)[0]
        assert not np.array_equal(after.h_fused, before.h_fused)
        assert np.array_equal(after.h_fused, training_forward_batch(params, batch).h_fused)

    def test_resave_after_correcting_is_byte_identical(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(inference_world(16), path)
        params = load_checkpoint(path)
        sentences, feats = random_sentences(np.random.default_rng(12), params, 9, lengths=(0, 17))
        correct_many(params, sentences, feats)
        save_checkpoint(params, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
