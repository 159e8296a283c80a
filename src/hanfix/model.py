"""Corrector model: char encoder + char-word attention fusion + copy/generate
output head, all in numpy with manual gradients.

The fusion layer projects each candidate word embedding through a shared
affine map with tanh, scores it bilinearly against the character state,
and adds the attention-weighted sum back into the character state:

    u_ij = tanh(W_w e_ij + b_w)
    a_i  = softmax_j(h_i W_attn u_ij^T)      (masked; empty rows -> 0)
    h~_i = h_i + sum_j a_ij u_ij

u depends on the word id alone, so a call (a training step or an
inference batch) with more candidate slots than the vocabulary has words
computes it once per distinct word of its batch, not once per slot, and
gathers it (word_states).  Each state equals the per-slot one bit for bit.

The head mixes a generator softmax with a copy distribution pinned on the
input character, gated per position:

    w_i = sigmoid(w2 . LN(gelu(W1 h~_i + b1)) + b2)
    P_i = w_i * onehot(x_i) + (1 - w_i) * P_gen,i

b2 starts at gate_bias_init (default +2) so a fresh model mostly copies its
input; lower it when the generator needs gradient from clean positions early.

Training and forward_batch compute the whole model, with every matmul whose
rows are positions on the padded [B, n] grid.  correct_many sorts its
sentences by length into passes of at most _PASS_CHARS padded characters
and computes each pass on its real characters as 2-D rows, padding-free as
in ByteTransformer (Zhai et al., IPDPS 2023); a pass without padding keeps
its grid.  Only attention (scores, softmax and A @ V) and the gate's w2
product stay on the grid.  It lets the gate decide first: wherever
w_i > 1/2 the argmax of P_i is x_i, so it runs the generator only at the
positions the gate leaves open, and an unknown character keeps its input.
Its other outputs are the argmax of forward_batch's P on the same pass up
to rounding in the tensors' dtype: a product over packed rows can round a
state apart from the grid's in its last bits.

Inference computes in the tensors' dtype.  init_params draws float64
tensors and training keeps them so, and load_checkpoint returns the
checkpoint's float32 values as float32 tensors: a loaded model decodes in
float32, at half the width, on weights that hold no more than float32.
"""

from __future__ import annotations

import json
import math
import zlib
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, repeat

import numpy as np

from .encoder import (
    _Rows,
    encoder_backward,
    encoder_forward,
    encoder_tensor_specs,
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
from .desm import LATTICE_MODES, M_MAX_LIMIT, WORD_ID_OFFSET, WORD_PAD_ID
from .errors import CheckpointError, HanfixError, SequenceTooLong

CHAR_UNK_ID = 0
CHAR_PAD_ID = 1
CHAR_ID_OFFSET = 2

LOSS_EPS = 1e-12

# correct_many's cap on a forward pass's padded characters, sentences x
# longest length.  Passes of length-sorted sentences hold little padding,
# and a pass's [B, heads, n, n] scores and [B, n, v] logits stay a fraction
# of a 64-sentence grid's; on correct_batch inputs, caps from 512 to 2048
# ran alike
_PASS_CHARS = 1024


def check_fields(cfg, minimum: dict, choices: dict) -> None:
    """Check every field of a config dataclass against its declared type.

    An int field takes a non-bool int, a float field a finite int or float,
    a bool field a bool, and a str field a member of choices[name].  A
    number named in `minimum` must be at least that value.  Raises
    ValueError naming the first bad field.
    """
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        kind = f.type if isinstance(f.type, str) else f.type.__name__
        where = f"{type(cfg).__name__}.{f.name}"
        if kind == "str":
            if v not in choices[f.name]:
                raise ValueError(f"{where} must be one of {choices[f.name]}, got {v!r}")
            continue
        if kind == "bool":
            ok = isinstance(v, bool)
        elif isinstance(v, bool):
            ok = False
        elif kind == "int":
            ok = isinstance(v, int)
        else:
            ok = isinstance(v, (int, float)) and math.isfinite(v)
        if not ok:
            expected = {"int": "an int", "float": "a finite number", "bool": "a bool"}[kind]
            raise ValueError(f"{where} must be {expected}, got {v!r}")
        if f.name in minimum and v < minimum[f.name]:
            raise ValueError(f"{where} must be at least {minimum[f.name]}, got {v!r}")


@dataclass(frozen=True)
class ModelConfig:
    char_vocab_size: int
    word_vocab_size: int
    d_c: int = 64
    d_w: int = 32
    layers: int = 2
    heads: int = 2
    ffn_dim: int = 128
    gate_dim: int = 32
    m_max: int = 5
    max_len: int = 512
    use_copy: bool = True
    lattice_mode: str = "desm"
    gate_bias_init: float = 2.0

    def __post_init__(self):
        check_fields(self, _MODEL_MINIMUM, _MODEL_CHOICES)
        if self.m_max > M_MAX_LIMIT:
            raise ValueError(f"ModelConfig.m_max must be at most {M_MAX_LIMIT}, got {self.m_max}")
        if self.d_c % self.heads != 0:
            raise ValueError(f"d_c={self.d_c} not divisible by heads={self.heads}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of to_dict: every field must be present, none extra."""
        known = {f.name for f in fields(cls)}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown ModelConfig keys: {sorted(extra)}")
        missing = known - set(d)
        if missing:
            raise ValueError(f"missing ModelConfig keys: {sorted(missing)}")
        return cls(**d)


# vocab sizes leave room for the reserved UNK/PAD ids
_MODEL_MINIMUM = dict(
    char_vocab_size=CHAR_ID_OFFSET, word_vocab_size=WORD_ID_OFFSET, d_c=1, d_w=1,
    layers=1, heads=1, ffn_dim=1, gate_dim=1, m_max=1, max_len=1,
)
_MODEL_CHOICES = {"lattice_mode": LATTICE_MODES}


@dataclass
class ModelParams:
    config: ModelConfig
    chars: tuple[str, ...]  # id = index + CHAR_ID_OFFSET
    tensors: dict[str, np.ndarray]

    @cached_property
    def char_index(self) -> dict[str, int]:
        """char -> id, built on first read and kept."""
        return {c: i + CHAR_ID_OFFSET for i, c in enumerate(self.chars)}

    def char_to_ids(self, text: str) -> np.ndarray:
        # one C-level pass: map() feeds idx.get straight to np.fromiter
        return np.fromiter(map(self.char_index.get, text, repeat(CHAR_UNK_ID)),
                           np.int64, len(text))


def tensor_specs(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], float | None, float]]:
    """Every tensor of the model, in checkpoint order, as name -> (shape,
    std, fill): init_params draws a tensor from N(0, std**2) in this order,
    or fills it with `fill` where std is None; load_checkpoint reads the
    names and shapes only."""
    t = encoder_tensor_specs(config)
    d, dw, dg, v = config.d_c, config.d_w, config.gate_dim, config.char_vocab_size
    # the fusion path has no LayerNorm of its own; tiny init here would leave
    # u orders of magnitude below the normalized h and stall the word route
    t["E_w"] = ((config.word_vocab_size, dw), 0.5, 0.0)
    t["W_w"] = ((d, dw), 1.0 / np.sqrt(dw), 0.0)
    t["b_w"] = ((d,), None, 0.0)
    # scores u.(W_attn h) carry no 1/sqrt(d) factor, so W_attn absorbs it:
    # sigma ~ 1/d keeps init scores soft instead of collapsing the softmax
    t["W_attn"] = ((d, d), 1.0 / d, 0.0)
    t["W_gen"] = ((v, d), 0.02, 0.0)
    t["b_gen"] = ((v,), None, 0.0)
    t["gate.W1"] = ((dg, d), 0.02, 0.0)
    t["gate.b1"] = ((dg,), None, 0.0)
    t["gate.ln.g"] = ((dg,), None, 1.0)
    t["gate.ln.b"] = ((dg,), None, 0.0)
    t["gate.w2"] = ((dg,), 0.02, 0.0)
    t["gate.b2"] = ((), None, float(config.gate_bias_init))
    return t


def _check_chars(config: ModelConfig, chars: tuple) -> None:
    """ValueError unless chars are distinct characters, one per char id."""
    if len(chars) != config.char_vocab_size - CHAR_ID_OFFSET:
        raise ValueError(
            f"got {len(chars)} chars for char_vocab_size={config.char_vocab_size} "
            f"(need vocab size minus {CHAR_ID_OFFSET} reserved ids)"
        )
    for i, c in enumerate(chars):
        if not isinstance(c, str) or len(c) != 1:
            raise ValueError(f"vocabulary entry {i} is {c!r}, not one character")
    if len(set(chars)) != len(chars):
        raise ValueError("duplicate characters in vocabulary")


def init_params(config: ModelConfig, chars, seed: int = 0) -> ModelParams:
    """Fresh tensors drawn from `seed`; chars must be distinct characters."""
    chars = tuple(chars)
    _check_chars(config, chars)
    rng = np.random.default_rng(seed)
    t = {name: np.full(shape, fill) if std is None else rng.normal(0.0, std, shape)
         for name, (shape, std, fill) in tensor_specs(config).items()}
    return ModelParams(config=config, chars=chars, tensors=t)


def check_finite(params: ModelParams) -> None:
    for name, t in params.tensors.items():
        if not np.all(np.isfinite(t)):
            raise HanfixError(f"non-finite values in parameter {name}")


# ------------------------------------------------------------------ batching


@dataclass
class Batch:
    """Padded arrays for one training/inference step.

    char_ids [B, n] int64; char_mask [B, n] 1.0 at real positions;
    word_ids/word_mask [B, n, m_max] candidate features per position;
    gold_ids [B, n] int64 target chars (unused at inference).
    """

    char_ids: np.ndarray
    char_mask: np.ndarray
    word_ids: np.ndarray
    word_mask: np.ndarray
    gold_ids: np.ndarray = None


@dataclass
class ForwardOut:
    h: np.ndarray        # [B, n, d_c] encoder states
    h_fused: np.ndarray  # [B, n, d_c] after word fusion
    attn: np.ndarray     # [B, n, m_max]
    omega: np.ndarray    # [B, n]
    p_gen: np.ndarray    # [B, n, v]
    p_out: np.ndarray    # [B, n, v]


# The encoder (at inference), the fusion layer and the head compute on the
# slots `rows` keeps: [..., d] stands for [B, n, d] or [N, d].  Training
# runs a matmul whose rows are positions (h @ W_attn, the gate's W1 and w2,
# the generator's logits, and their backward) on the [B, n] grid all the
# same, and sums across positions too: BLAS rounds a row by the call's row
# count and blocks a sum by its length, so on packed rows loss and grads
# would not equal those of the step on every slot bit for bit.
# Elementwise work and reductions along the last axis do not depend on
# where a row sits.

def word_states(tensors, groups: np.ndarray) -> np.ndarray:
    """The fusion layer's word states tanh(E_w[groups] @ W_w.T + b_w) for
    word ids `groups` [..., m], m being the features' m_max.

    The projection is one matmul of m rows per group, so each row rounds as
    it does at a position's m candidate slots.  A call over more or fewer
    rows could round it differently.
    """
    u = tensors["E_w"].take(groups, axis=0) @ tensors["W_w"].T
    u += tensors["b_w"]
    return np.tanh(u, out=u)


def _slot_states(tensors, word_ids):
    """word_states at every candidate slot of word_ids [..., m].  A call
    with more slots than the vocabulary has words computes each distinct id
    once, in groups of m, and gathers it; a smaller call computes every
    slot, which is cheaper than the two passes over the vocabulary the
    gather needs.  The cost scales with min(vocabulary, slots) either way."""
    m, vocab = word_ids.shape[-1], len(tensors["E_w"])
    if word_ids.size <= vocab:
        return word_states(tensors, word_ids)
    present = np.zeros(vocab, bool)
    present[word_ids] = True
    words = np.flatnonzero(present)
    remap = np.zeros(vocab, np.intp)
    remap[words] = np.arange(len(words))
    groups = np.zeros(-(-len(words) // m) * m, np.intp)  # padded with word 0
    groups[:len(words)] = words
    states = word_states(tensors, groups.reshape(-1, m)).reshape(len(groups), -1)
    return states.take(remap[word_ids], axis=0)


def _fusion_forward(tensors, h, hW, word_ids, word_mask, keep_cache=True):
    """(fused states, attention, cache for _fusion_backward) from the
    encoder states h and hW = h @ W_attn at the fusion rows.  With
    keep_cache=False the cache is None."""
    u = _slot_states(tensors, word_ids)                # [...,m,d]
    scores = np.einsum("...md,...d->...m", u, hW)
    a = masked_softmax(scores, word_mask)
    z = np.einsum("...m,...md->...d", a, u)
    if not keep_cache:
        return h + z, a, None
    return h + z, a, (word_ids, u, hW, a)


def _fusion_backward(tensors, rows, fcache, dht, grid_ids, grads):
    """dht [N, d]; returns dhW [N, d].  grid_ids [B, n, m] are the batch's
    word ids with WORD_PAD_ID at every pad slot, so no id there is read: E_w
    is gathered at them straight onto the grid, where W_w's product meets
    rows of dpre that are 0."""
    word_ids, u, hW, a = fcache
    da = np.einsum("nd,nmd->nm", dht, u)
    dpre = np.multiply(a[..., None], dht[:, None, :])  # du until it is spent
    ds = softmax_backward(a, da)
    s = np.multiply(ds[..., None], hW[:, None, :])
    dpre += s
    dhW = np.einsum("nm,nmd->nd", ds, u)
    dpre *= np.subtract(1.0, np.multiply(u, u, out=s), out=s)
    del s
    grads["W_w"] = sum_outer(rows.grid(dpre), tensors["E_w"].take(grid_ids, axis=0))
    grads["b_w"] = dpre.sum(axis=(0, 1))
    grads["E_w"] = scatter_rows(word_ids, dpre @ tensors["W_w"], len(tensors["E_w"]))
    return dhW


def _gate_forward(tensors, cfg, rows, ht, grid=None):
    """The copy gate: (omega, cache) at rows, from the fused states ht at
    rows.  ht @ W1.T runs at the rows, or on `grid`, ht's [B, n, d] grid,
    when one is given (training's, see the comment above word_states).  The
    w2 product runs on the grid, whose g_ln the cache keeps for training's
    backward.  The cache is None when omega is fixed (use_copy=False pins
    it at 0)."""
    if not cfg.use_copy:
        return np.zeros(ht.shape[:-1], ht.dtype), None
    w1 = tensors["gate.W1"].T
    g_pre = rows.take(grid @ w1) if grid is not None else ht @ w1
    g_pre += tensors["gate.b1"]
    g_act, g_t = gelu(g_pre)
    g_ln, lnc = ln_forward(g_act, tensors["gate.ln.g"], tensors["gate.ln.b"])
    g_ln = rows.grid(g_ln)
    omega = sigmoid(rows.take(g_ln @ tensors["gate.w2"] + tensors["gate.b2"]))
    return omega, (g_pre, g_t, g_ln, lnc)


def _gen_forward(tensors, logits: np.ndarray) -> np.ndarray:
    """The generator softmax P_gen, in place of `logits`, ht @ W_gen.T at
    some rows."""
    logits += tensors["b_gen"]
    return softmax(logits, out=logits)


def _flat_index(p: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Positions of p[..., ids] in p.reshape(-1), one per row of ids: a flat
    fancy index costs a fraction of take_along_axis/put_along_axis."""
    v = p.shape[-1]
    return np.arange(0, ids.size * v, v) + ids.reshape(-1)


def _check_length(params: ModelParams, batch: Batch) -> None:
    n = batch.char_ids.shape[1]
    if n > params.config.max_len:
        raise SequenceTooLong(n, params.config.max_len)


def _check_word_ids(params: ModelParams, batch: Batch, rows: _Rows,
                    word_ids: np.ndarray, sentence_ids) -> None:
    """HanfixError when a candidate word id the fusion layer reads, one of
    `word_ids` (batch.word_ids at the slots `rows` keeps), is negative or at
    or beyond word_vocab_size: E_w would be read from its end, or past it.
    The message names the batch row of the first such id: "sentence
    {sentence_ids[row]}", or "batch row {row}" when sentence_ids is None."""
    limit = params.config.word_vocab_size
    # one reduction per batch: read as int64 (no copy when the ids are) and
    # viewed as uint64, a negative id is at least 2**63, so one max finds it
    # too
    as_u64 = word_ids.astype(np.int64, copy=False).view(np.uint64)
    if int(as_u64.max(initial=0)) < limit:
        return
    ids = word_ids.reshape(-1)
    first = int(np.flatnonzero((ids < 0) | (ids >= limit))[0])
    slot = first // word_ids.shape[-1]
    if rows.idx is not None:
        slot = int(rows.idx[slot])
    row = slot // batch.char_ids.shape[1]
    where = f"batch row {row}" if sentence_ids is None else f"sentence {sentence_ids[row]}"
    raise HanfixError(
        f"{where}: candidate word id "
        f"{int(ids[first])} out of range for word_vocab_size={limit}; "
        f"lexicon and checkpoint disagree")


def _forward(params: ModelParams, batch: Batch, rows: _Rows, keep_cache=True,
             sentence_ids=None):
    """Encoder, then fusion at `rows`: (encoder states h, fused states ht at
    rows, attention at rows, (encoder, fusion) caches).  With keep_cache
    (training) the encoder runs on every slot of the [B, n] grid, which
    encoder_backward needs, and h is that grid; without (inference) it runs
    at `rows` too, and h is at rows.  The head's two parts, _gen_forward and
    _gate_forward, run on ht; training scatters it to the grid its matmuls
    need.  With keep_cache=False both caches are None, and each stage frees
    its intermediates as soon as the next stage has its input.  The word ids
    at `rows` are checked first (_check_word_ids, with `sentence_ids`)."""
    t, cfg = params.tensors, params.config
    _check_length(params, batch)
    word_ids = rows.take(batch.word_ids)
    _check_word_ids(params, batch, rows, word_ids, sentence_ids)
    enc_rows = _Rows() if keep_cache else rows
    h, ecache = encoder_forward(t, cfg, batch.char_ids, batch.char_mask, enc_rows,
                                _keep_cache=keep_cache)
    hW = h @ t["W_attn"]
    h_at, hW = (h, hW) if enc_rows is rows else (rows.take(h), rows.take(hW))
    ht, a, fcache = _fusion_forward(t, h_at, hW, word_ids, rows.take(batch.word_mask),
                                    keep_cache)
    return h, ht, a, (ecache, fcache)


def _mix(p: np.ndarray, omega: np.ndarray, char_ids: np.ndarray) -> np.ndarray:
    """P = omega * onehot(char_ids) + (1 - omega) * p, computed in place of
    p.  Multiplying in place rounds exactly like (1 - omega)[..., None] * p."""
    p *= (1.0 - omega)[..., None]
    p.reshape(-1)[_flat_index(p, char_ids)] += omega.reshape(-1)
    return p


def forward_batch(params: ModelParams, batch: Batch):
    """Run the full model on every slot of the batch, pad slots included,
    keeping no backward cache; a candidate word id out of range is a
    HanfixError.  Returns (ForwardOut, None): the second value
    is always None, so callers that unpack two values, perfbench's held-out
    NLL among them, keep working."""
    t, rows = params.tensors, _Rows()
    h, ht, a, _ = _forward(params, batch, rows, keep_cache=False)
    p_gen = _gen_forward(t, ht @ t["W_gen"].T)
    omega = _gate_forward(t, params.config, rows, ht)[0]
    p = _mix(p_gen.copy(), omega, batch.char_ids)
    return ForwardOut(h=h, h_fused=ht, attn=a, omega=omega, p_gen=p_gen, p_out=p), None


def nll_loss(p: np.ndarray, gold_ids: np.ndarray, mask: np.ndarray = None) -> float:
    """Mean negative log likelihood of the gold ids over unmasked positions.

    Accepts [n, v] or [B, n, v]; probabilities get a 1e-12 floor inside the
    log so an exactly-zero entry cannot underflow to -inf.
    """
    psel = np.take_along_axis(p, gold_ids[..., None], axis=-1)[..., 0]
    if mask is None:
        mask = np.ones_like(psel)
    denom = max(float(mask.sum()), 1.0)
    return float(-(mask * np.log(psel + LOSS_EPS)).sum() / denom)


def loss_and_grads(params: ModelParams, batch: Batch):
    """Forward + manual backward. Returns (loss, grads).

    Fusion, head and loss compute on the real positions only (char_mask
    nonzero), so whatever the pad slots hold leaves loss and grads alone.
    Matmuls over positions and sums across positions still run on the
    [B, n] grid, with pad slots 0: BLAS blocks a sum by its length and
    rounds a row by where it sits in the call.  So loss and grads equal
    those of the same step on every slot bit for bit, and loss equals
    nll_loss(forward_batch(...)[0].p_out).

    grads carries an entry for every tensor in params (zeros where a path
    is disabled, e.g. the gate under use_copy=False).  A candidate word id
    out of range at a real position is a HanfixError.
    """
    if batch.gold_ids is None:
        raise ValueError("loss_and_grads needs batch.gold_ids")
    t, cfg = params.tensors, params.config
    mask = batch.char_mask
    rows = _Rows(mask)
    h, ht_rows, _, (ecache, fcache) = _forward(params, batch, rows)
    ht = rows.grid(ht_rows)
    spent = ht @ t["W_gen"].T
    p_gen = _gen_forward(t, rows.take(spent))
    x = rows.take(batch.char_ids)
    omega, gcache = _gate_forward(t, cfg, rows, ht_rows, ht)
    del ht_rows
    gold, m = rows.take(batch.gold_ids), rows.take(mask)
    copy_hit = (x == gold).astype(np.float64)

    # the mixture at the gold ids only: the copy bonus lands there where the
    # input character is the gold one (adding 0.0 elsewhere is exact)
    at_gold = _flat_index(p_gen, gold)
    pgen_gold = p_gen.reshape(-1)[at_gold]
    psel = (1.0 - omega) * pgen_gold + omega * copy_hit
    denom = max(float(mask.sum()), 1.0)
    loss = float(-rows.grid(m * np.log(psel + LOSS_EPS)).sum() / denom)

    dpsel = -m / ((psel + LOSS_EPS) * denom)

    # generator softmax (sparse upstream at the gold column).  The [.., v]
    # arrays are a step's largest, so dlogits reuses spent ones and each is
    # dropped once used: malloc hands a step's peak of fresh memory back to
    # the kernel, and the next step faults it in again page by page
    tmp = dpsel * (1.0 - omega) * pgen_gold
    dlogits = p_gen
    dlogits *= -tmp[:, None]
    del p_gen
    dlogits.reshape(-1)[at_gold] += tmp
    b_gen = dlogits.sum(axis=0)
    dlogits = rows.grid(dlogits, out=spent)
    del spent
    grads = {"W_gen": sum_outer(dlogits, ht), "b_gen": b_gen}
    dht = dlogits @ t["W_gen"]
    del dlogits

    if gcache is not None:
        g_pre, g_t, g_ln, lnc = gcache
        dsg = dpsel * (copy_hit - pgen_gold) * omega * (1.0 - omega)
        dsg_grid = rows.grid(dsg)
        grads["gate.w2"] = sum_outer(dsg_grid[..., None], g_ln)[0]
        grads["gate.b2"] = np.array(dsg_grid.sum())
        dg_ln = dsg[:, None] * t["gate.w2"]
        dg_act, grads["gate.ln.g"], grads["gate.ln.b"] = ln_backward(dg_ln, lnc)
        dg_act *= gelu_grad(g_pre, g_t)
        dg_pre = rows.grid(dg_act)
        grads["gate.W1"] = sum_outer(dg_pre, ht)
        grads["gate.b1"] = dg_pre.sum(axis=(0, 1))
        dht += dg_pre @ t["gate.W1"]
    else:
        grads.update((k, np.zeros_like(v)) for k, v in t.items() if k.startswith("gate."))

    grid_ids = np.where(mask[..., None] != 0, batch.word_ids, WORD_PAD_ID)
    dhW = rows.grid(_fusion_backward(t, rows, fcache, rows.take(dht), grid_ids, grads))
    del fcache
    dh = dht  # in place: dht is spent
    dh += dhW @ t["W_attn"].T
    grads["W_attn"] = sum_outer(h, dhW)
    grads.update(encoder_backward(t, cfg, ecache, dh))
    return loss, grads


# ------------------------------------------------------ batching and decoding


def _padded(rows, at, shape, fill, dtype) -> np.ndarray:
    """A [B, n, ...] array of `fill` with the concatenated `rows`, cast to
    dtype, at its flat slots `at` (every slot when at is None), in one
    scatter.  A slot's trailing values go as one raw record, which copies
    them byte for byte at a fraction of the cost of a fancy index with a
    trailing axis."""
    rows = np.concatenate(rows, dtype=dtype, casting="unsafe")
    if at is None:  # no pad slot: the rows are the grid
        return rows.reshape(shape)
    grid = np.full(shape, fill, dtype=dtype)
    k = math.prod(shape[2:])
    record = np.dtype((np.void, k * grid.itemsize))
    grid.reshape(-1, k).view(record)[at, 0] = rows.reshape(-1, k).view(record)[:, 0]
    return grid


def assemble_batch(items) -> Batch:
    """Pad per-sentence arrays into one Batch.

    items: (char_ids [n], gold_ids [n] or None, word_ids [n, m], word_mask
    [n, m]) per sentence.  Pad slots get CHAR_PAD_ID / WORD_PAD_ID (mask 0).
    Each array is filled with one scatter of the sentences' concatenated
    rows to the real slots (_padded), not a slice write per sentence; with
    no pad slot (a batch of one), the concatenated rows are the array.
    """
    B = len(items)
    lengths = [len(it[0]) for it in items]
    n = max(lengths)
    m = items[0][2].shape[1]
    if min(lengths) == n:
        at, char_mask = None, np.ones((B, n))
    else:
        real = np.arange(n) < np.array(lengths)[:, None]
        at, char_mask = np.flatnonzero(real), real.astype(np.float64)
    cid, gid, wid, wmask = zip(*items)
    char_ids = _padded(cid, at, (B, n), CHAR_PAD_ID, np.int64)
    word_ids = _padded(wid, at, (B, n, m), WORD_PAD_ID, np.int64)
    word_mask = _padded(wmask, at, (B, n, m), 0.0, np.float64)
    gold_ids = None if gid[0] is None else _padded(gid, at, (B, n), CHAR_PAD_ID, np.int64)
    return Batch(char_ids, char_mask, word_ids, word_mask, gold_ids)


def _passes(lengths, todo, batch_size):
    """Cut `todo`, sentence indices in order of non-decreasing length, into
    passes of at most batch_size sentences and at most _PASS_CHARS padded
    characters (count x longest length); a pass takes at least one."""
    chunk = []
    for i in todo:
        if chunk and (len(chunk) == batch_size
                      or (len(chunk) + 1) * lengths[i] > _PASS_CHARS):
            yield chunk
            chunk = []
        chunk.append(i)
    if chunk:
        yield chunk


def correct_many(params: ModelParams, sentences, feats, batch_size: int = 64):
    """Non-autoregressive correction: per-position argmax over the mixture.

    feats is featurize_sentences(sentences, ...) at the checkpoint's m_max:
    feats[i] = (word_ids, word_mask) for sentences[i], each of shape
    (len(sentences[i]), m_max).  Unknown characters map to UNK and keep
    their input character, as does a position whose argmax lands on a
    reserved id, so each output is as long as its input.  Features of
    another shape, or word ids that are negative or at or beyond
    word_vocab_size, mean the features were not made for this checkpoint:
    HanfixError.

    The non-empty sentences run in forward passes in order of length (equal
    lengths in input order), each of at most batch_size sentences (an int of
    at least 1, else ValueError) and at most _PASS_CHARS padded characters,
    so little of a pass is padding.  Outputs, and the sentence index an
    error names, follow the input order.

    Only the work that can change an output runs, row-wise work on the
    pass's N real characters as 2-D rows: the encoder's embedding,
    LayerNorms, products, GELU and residual adds (encoder_forward), then
    fusion, the gate and the generator.  Attention's scores, softmax and
    A @ V and the gate's w2 product run on the pass's [B, n] grid, to which
    their inputs are scattered with 0 at pad slots.  A pass without padding
    (a batch of one) keeps its grid as its rows.  The gate decides first: a
    position with omega > 1/2 keeps its input, because the mixture's argmax
    there is the input id, so the generator softmax, the mixture and the
    argmax run only at the other positions whose input is known.

    Every other output is the argmax of forward_batch's p_out on the same
    pass up to rounding in the tensors' dtype: a product over the packed
    rows can round apart from the grid's in its last bits (in float64 the
    encoder states agree to within 1e-12), so an output can differ only at
    a position where two probabilities, or omega and 1/2, are that close.
    """
    if not isinstance(batch_size, int) or isinstance(batch_size, bool) or batch_size < 1:
        raise ValueError(f"batch_size must be an int of at least 1, got {batch_size!r}")
    m_max = params.config.m_max
    if len(feats) != len(sentences):
        raise HanfixError(f"{len(feats)} feature rows for {len(sentences)} sentences")
    for i, (s, (wid, wmask)) in enumerate(zip(sentences, feats)):
        if wid.shape != (len(s), m_max) or wmask.shape != wid.shape:
            raise HanfixError(f"sentence {i}: features of shape {wid.shape} and "
                              f"{wmask.shape}, expected {(len(s), m_max)}")
    t, cfg, chars = params.tensors, params.config, params.chars
    out = list(sentences)
    lengths = [len(s) for s in sentences]
    todo = sorted((i for i, k in enumerate(lengths) if k > 0), key=lengths.__getitem__)
    for chunk in _passes(lengths, todo, batch_size):
        # the pass's char ids in one conversion: its real positions in row
        # order, the order of the N rows; each sentence's ids are a slice
        x = params.char_to_ids("".join([sentences[i] for i in chunk]))
        starts, items, end = [], [], 0
        for i in chunk:
            starts.append(end)
            end += lengths[i]
            items.append((x[starts[-1]:end], None, *feats[i]))
        batch = assemble_batch(items)
        # with no pad slot (a batch of one, or sentences of one length) the
        # grid holds only real characters: it stays a grid, its own rows,
        # where packing would only add reshapes
        rows = _Rows() if batch.char_mask.all() else _Rows(batch.char_mask)
        ht = _forward(params, batch, rows, keep_cache=False, sentence_ids=chunk)[1]
        omega = _gate_forward(t, cfg, rows, ht)[0]
        # Where omega > 1/2 the argmax of P = omega * onehot(x) + (1 - omega)
        # * P_gen is the input id x, so such a position keeps its input.  For
        # omega in (1/2, 1], 1 - omega is exact (Sterbenz).  With finite
        # tensors every softmax entry is at most 1, since its denominator
        # holds each of its numerators.  So, rounding being monotone, every
        # P_j = fl(p_j (1 - omega)) <= 1 - omega < 1/2 < omega
        # <= fl(fl(p_x (1 - omega)) + omega) = P_x.  A NaN omega, or one of
        # exactly 1/2, goes to the generator; use_copy=False pins omega at 0.
        # Flat positions follow x's order, packed or not.  An unknown
        # character keeps its input too: the generator only knows the
        # vocabulary, so nothing it picks there is a correction of it.
        at = (~(omega > 0.5).ravel() & (x != CHAR_UNK_ID)).nonzero()[0]
        if len(at):
            # softmax, mix and argmax are row-wise, so the open rows alone
            # round the same
            xo = x.take(at)
            logits = ht.reshape(-1, ht.shape[-1]).take(at, axis=0) @ t["W_gen"].T
            k = _mix(_gen_forward(t, logits), omega.take(at), xo).argmax(axis=-1)
            del logits  # [K, v], the pass's largest array: not kept into the next pass
            # the input id and the reserved ids keep the input character
            edit = (k != xo) & (k >= CHAR_ID_OFFSET)
            texts = {}
            for pos, c in zip(at[edit].tolist(), k[edit].tolist()):
                row = bisect_right(starts, pos) - 1
                if row not in texts:
                    texts[row] = list(sentences[chunk[row]])
                texts[row][pos - starts[row]] = chars[c - CHAR_ID_OFFSET]
            for row, text in texts.items():
                out[chunk[row]] = "".join(text)
        # the batch and its states go before the next batch's forward
        del batch, ht
    return out


# ----------------------------------------------------------------- checkpoint

_CKPT_MAGIC = b"hanfix-ckpt\x00"
# version 3 configs hold the lattice mode, and no gate activation or seed
_CKPT_VERSION = 3


def save_checkpoint(params: ModelParams, path) -> None:
    """Versioned binary: header JSON (config, chars, tensor manifest, payload
    crc) + little-endian float32 tensor payload in declared order.

    Raises HanfixError, before the file is opened, when a tensor is not
    finite as float32 (finite float64 values beyond ~3.4e38 overflow).
    """
    with np.errstate(over="ignore"):
        arrays = {k: np.ascontiguousarray(t, dtype="<f4") for k, t in params.tensors.items()}
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise HanfixError(f"parameter {name} is not finite as float32; checkpoint not written")
    payload = b"".join(a.tobytes() for a in arrays.values())
    header = {
        "config": params.config.to_dict(),
        "chars": list(params.chars),
        "tensors": [[name, list(t.shape)] for name, t in params.tensors.items()],
        "payload_crc32": zlib.crc32(payload),
    }
    hb = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(_CKPT_VERSION.to_bytes(4, "little"))
        f.write(len(hb).to_bytes(4, "little"))
        f.write(zlib.crc32(hb).to_bytes(4, "little"))
        f.write(hb)
        f.write(payload)


def load_checkpoint(path) -> ModelParams:
    """The ModelParams save_checkpoint wrote, with writable, native-endian
    float32 tensors: the payload's own values, which inference computes in.
    Raises CheckpointError for a file that is not a whole, consistent
    checkpoint of this version."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a hanfix checkpoint")
    off = len(_CKPT_MAGIC)
    version = int.from_bytes(blob[off : off + 4], "little")
    if version != _CKPT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} "
            f"(expected {_CKPT_VERSION}); retrain it with `hanfix train`"
        )
    hlen = int.from_bytes(blob[off + 4 : off + 8], "little")
    hcrc = int.from_bytes(blob[off + 8 : off + 12], "little")
    hb = blob[off + 12 : off + 12 + hlen]
    if len(hb) != hlen or zlib.crc32(hb) != hcrc:
        raise CheckpointError(f"{path}: header checksum mismatch")
    try:
        header = json.loads(hb.decode("utf-8"))
        raw_config = header["config"]
        chars = tuple(header["chars"])
        payload_crc = header["payload_crc32"]
        manifest = [(name, tuple(shape)) for name, shape in header["tensors"]]
    except KeyError as e:
        raise CheckpointError(f"{path}: header has no field {e}") from e
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed header ({e})") from e
    try:
        config = ModelConfig.from_dict(raw_config)
        _check_chars(config, chars)
        expected = {name: spec[0] for name, spec in tensor_specs(config).items()}
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad config in header: {e}") from e
    payload = blob[off + 12 + hlen :]
    if zlib.crc32(payload) != payload_crc:
        raise CheckpointError(f"{path}: payload checksum mismatch")
    if [name for name, _ in manifest] != list(expected.keys()):
        raise CheckpointError(f"{path}: tensor manifest does not match config")
    for name, shape in manifest:
        if expected[name] != shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {shape}, config implies {expected[name]}"
            )
    # the payload is decoded and checked in one pass, and each tensor is a
    # view of it; stops[i] is the float offset at which tensor i ends
    stops = list(accumulate(math.prod(expected[name]) for name, _ in manifest))
    whole = bisect_right(stops, len(payload) // 4)  # tensors the payload holds
    # astype copies: the tensors are writable and in the machine's byte order
    values = np.frombuffer(payload, dtype="<f4", count=stops[whole - 1] if whole else 0
                           ).astype(np.float32)
    finite = np.isfinite(values)
    if not finite.all():
        name = manifest[bisect_right(stops, int(finite.argmin()))][0]
        raise CheckpointError(f"{path}: tensor {name} has non-finite values")
    if whole < len(manifest):
        raise CheckpointError(f"{path}: payload truncated at tensor {manifest[whole][0]}")
    if 4 * stops[-1] != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - 4 * stops[-1]} trailing payload bytes")
    tensors = {name: values[lo:stop].reshape(expected[name])
               for (name, _), lo, stop in zip(manifest, [0] + stops, stops)}
    return ModelParams(config=config, chars=chars, tensors=tensors)
