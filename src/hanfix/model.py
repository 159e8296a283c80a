"""Corrector model: char encoder + char-word attention fusion + copy/generate
output head, all in numpy with manual gradients.

The fusion layer projects each candidate word embedding through a shared
affine map with tanh, scores it bilinearly against the character state,
and adds the attention-weighted sum back into the character state:

    u_ij = tanh(W_w e_ij + b_w)
    a_i  = softmax_j(h_i W_attn u_ij^T)      (masked; empty rows -> 0)
    h~_i = h_i + sum_j a_ij u_ij

The head mixes a generator softmax with a copy distribution pinned on the
input character, gated per position:

    w_i = sigmoid(w2 . LN(act(W1 h~_i + b1)) + b2)
    P_i = w_i * onehot(x_i) + (1 - w_i) * P_gen,i

b2 starts at gate_bias_init (default +2) so a fresh model mostly copies its
input; lower it when the generator needs gradient from clean positions early.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from .encoder import (
    encoder_backward,
    encoder_forward,
    gelu,
    gelu_grad,
    init_encoder_tensors,
    ln_backward,
    ln_forward,
    masked_softmax,
    sigmoid,
    softmax,
)
from .errors import CheckpointError, HanfixError, SequenceTooLong

CHAR_UNK_ID = 0
CHAR_PAD_ID = 1
CHAR_ID_OFFSET = 2

LOSS_EPS = 1e-12

_GATE_ACTS = ("gelu", "tanh")


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
    gate_activation: str = "gelu"
    use_copy: bool = True
    seed: int = 0
    gate_bias_init: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            if f.name in ("gate_activation", "use_copy", "gate_bias_init"):
                continue
            v = getattr(self, f.name)
            if not isinstance(v, int) or isinstance(v, bool) or v < (0 if f.name == "seed" else 1):
                raise ValueError(f"ModelConfig.{f.name} must be a positive int, got {v!r}")
        if not isinstance(self.gate_bias_init, (int, float)) or isinstance(self.gate_bias_init, bool) \
                or not math.isfinite(self.gate_bias_init):
            raise ValueError(f"ModelConfig.gate_bias_init must be a finite float, got {self.gate_bias_init!r}")
        if self.char_vocab_size < CHAR_ID_OFFSET or self.word_vocab_size < 2:
            raise ValueError("vocab sizes must leave room for UNK/PAD ids 0 and 1")
        if self.d_c % self.heads != 0:
            raise ValueError(f"d_c={self.d_c} not divisible by heads={self.heads}")
        if self.gate_activation not in _GATE_ACTS:
            raise ValueError(f"gate_activation must be one of {_GATE_ACTS}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown ModelConfig keys: {sorted(extra)}")
        return cls(**d)


@dataclass
class ModelParams:
    config: ModelConfig
    chars: tuple[str, ...]  # id = index + CHAR_ID_OFFSET
    tensors: dict[str, np.ndarray]
    _char_index: dict = field(default=None, repr=False, compare=False)

    def char_index(self) -> dict:
        if self._char_index is None:
            self._char_index = {c: i + CHAR_ID_OFFSET for i, c in enumerate(self.chars)}
        return self._char_index

    def char_to_ids(self, text: str) -> np.ndarray:
        idx = self.char_index()
        return np.array([idx.get(c, CHAR_UNK_ID) for c in text], dtype=np.int64)


def init_params(config: ModelConfig, chars) -> ModelParams:
    chars = tuple(chars)
    if len(chars) != config.char_vocab_size - CHAR_ID_OFFSET:
        raise ValueError(
            f"got {len(chars)} chars for char_vocab_size={config.char_vocab_size} "
            f"(need vocab size minus {CHAR_ID_OFFSET} reserved ids)"
        )
    if len(set(chars)) != len(chars):
        raise ValueError("duplicate characters in vocabulary")
    rng = np.random.default_rng(config.seed)
    t = init_encoder_tensors(config, rng)
    d, dw, dg, v = config.d_c, config.d_w, config.gate_dim, config.char_vocab_size
    # the fusion path has no LayerNorm of its own; tiny init here would leave
    # u orders of magnitude below the normalized h and stall the word route
    t["E_w"] = rng.normal(0.0, 0.5, (config.word_vocab_size, dw))
    t["W_w"] = rng.normal(0.0, 1.0 / np.sqrt(dw), (d, dw))
    t["b_w"] = np.zeros(d)
    # scores u.(W_attn h) carry no 1/sqrt(d) factor, so W_attn absorbs it:
    # sigma ~ 1/d keeps init scores soft instead of collapsing the softmax
    t["W_attn"] = rng.normal(0.0, 1.0 / d, (d, d))
    t["W_gen"] = rng.normal(0.0, 0.02, (v, d))
    t["b_gen"] = np.zeros(v)
    t["gate.W1"] = rng.normal(0.0, 0.02, (dg, d))
    t["gate.b1"] = np.zeros(dg)
    t["gate.ln.g"] = np.ones(dg)
    t["gate.ln.b"] = np.zeros(dg)
    t["gate.w2"] = rng.normal(0.0, 0.02, (dg,))
    t["gate.b2"] = np.array(float(config.gate_bias_init))
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


def _fusion_forward(tensors, h, word_ids, word_mask):
    ew = tensors["E_w"][word_ids]                      # [B,n,m,dw]
    pre = ew @ tensors["W_w"].T + tensors["b_w"]       # [B,n,m,d]
    u = np.tanh(pre)
    hW = h @ tensors["W_attn"]                         # [B,n,d]
    scores = np.einsum("bnmd,bnd->bnm", u, hW)
    a = masked_softmax(scores, word_mask)
    z = np.einsum("bnm,bnmd->bnd", a, u)
    return h + z, a, (ew, u, hW, a)


def _fusion_backward(tensors, word_ids, fcache, dht, grads):
    ew, u, hW, a = fcache
    dh = dht.copy()
    da = np.einsum("bnd,bnmd->bnm", dht, u)
    du = a[..., None] * dht[:, :, None, :]
    ds = a * (da - (da * a).sum(axis=-1, keepdims=True))
    du += ds[..., None] * hW[:, :, None, :]
    dhW = np.einsum("bnm,bnmd->bnd", ds, u)
    dh += dhW @ tensors["W_attn"].T
    dpre = du * (1.0 - u * u)
    grads["W_w"] = np.einsum("bnmd,bnmw->dw", dpre, ew)
    grads["b_w"] = dpre.sum(axis=(0, 1, 2))
    dew = dpre @ tensors["W_w"]
    dEw = np.zeros_like(tensors["E_w"])
    np.add.at(dEw, word_ids, dew)
    grads["E_w"] = dEw
    return dh, dhW


def _gate_act(cfg, x):
    return gelu(x) if cfg.gate_activation == "gelu" else np.tanh(x)


def _gate_act_grad(cfg, x, y):
    return gelu_grad(x) if cfg.gate_activation == "gelu" else 1.0 - y * y


def _head_forward(tensors, cfg, ht, char_ids, omega_override=None):
    logits = ht @ tensors["W_gen"].T + tensors["b_gen"]
    p_gen = softmax(logits)
    gcache = None
    if omega_override is not None:
        omega = np.full(char_ids.shape, float(omega_override))
    elif not cfg.use_copy:
        omega = np.zeros(char_ids.shape)
    else:
        g_pre = ht @ tensors["gate.W1"].T + tensors["gate.b1"]
        g_act = _gate_act(cfg, g_pre)
        g_ln, lnc = ln_forward(g_act, tensors["gate.ln.g"], tensors["gate.ln.b"])
        s = g_ln @ tensors["gate.w2"] + tensors["gate.b2"]
        omega = sigmoid(s)
        gcache = (g_pre, g_act, g_ln, lnc)
    p = (1.0 - omega)[..., None] * p_gen
    idx = char_ids[..., None]
    np.put_along_axis(p, idx, np.take_along_axis(p, idx, -1) + omega[..., None], -1)
    return p, omega, p_gen, gcache


def forward_batch(params: ModelParams, batch: Batch, omega_override=None):
    """Run the full model. Returns (ForwardOut, cache for backward)."""
    t, cfg = params.tensors, params.config
    B, n = batch.char_ids.shape
    if n > cfg.max_len:
        raise SequenceTooLong(n, cfg.max_len)
    h, ecache = encoder_forward(t, cfg, batch.char_ids, batch.char_mask)
    ht, a, fcache = _fusion_forward(t, h, batch.word_ids, batch.word_mask)
    p, omega, p_gen, gcache = _head_forward(t, cfg, ht, batch.char_ids, omega_override)
    out = ForwardOut(h=h, h_fused=ht, attn=a, omega=omega, p_gen=p_gen, p_out=p)
    return out, (ecache, fcache, gcache, ht)


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


def loss_and_grads(params: ModelParams, batch: Batch, omega_override=None):
    """Forward + manual backward. Returns (loss, grads, ForwardOut).

    grads carries an entry for every tensor in params (zeros where a path
    is disabled, e.g. the gate under use_copy=False).
    """
    if batch.gold_ids is None:
        raise ValueError("loss_and_grads needs batch.gold_ids")
    t, cfg = params.tensors, params.config
    out, (ecache, fcache, gcache, ht) = forward_batch(params, batch, omega_override)
    p, p_gen, omega = out.p_out, out.p_gen, out.omega
    gold = batch.gold_ids
    mask = batch.char_mask

    psel = np.take_along_axis(p, gold[..., None], -1)[..., 0]
    denom = max(float(mask.sum()), 1.0)
    loss = float(-(mask * np.log(psel + LOSS_EPS)).sum() / denom)

    grads = {name: np.zeros_like(arr) for name, arr in t.items()}
    dpsel = -mask / ((psel + LOSS_EPS) * denom)

    pgen_gold = np.take_along_axis(p_gen, gold[..., None], -1)[..., 0]
    copy_hit = (batch.char_ids == gold).astype(np.float64)

    # generator softmax (sparse upstream at the gold column)
    tmp = dpsel * (1.0 - omega) * pgen_gold
    dlogits = -p_gen * tmp[..., None]
    np.put_along_axis(
        dlogits, gold[..., None],
        np.take_along_axis(dlogits, gold[..., None], -1) + tmp[..., None], -1,
    )
    grads["W_gen"] = np.einsum("bnv,bnd->vd", dlogits, ht)
    grads["b_gen"] = dlogits.sum(axis=(0, 1))
    dht = dlogits @ t["W_gen"]

    if gcache is not None:
        g_pre, g_act, g_ln, lnc = gcache
        domega = dpsel * (copy_hit - pgen_gold)
        dsg = domega * omega * (1.0 - omega)
        grads["gate.w2"] = np.einsum("bn,bng->g", dsg, g_ln)
        grads["gate.b2"] = np.array(dsg.sum())
        dg_ln = dsg[..., None] * t["gate.w2"]
        dg_act, grads["gate.ln.g"], grads["gate.ln.b"] = ln_backward(dg_ln, lnc)
        dg_pre = dg_act * _gate_act_grad(cfg, g_pre, g_act)
        grads["gate.W1"] = np.einsum("bng,bnd->gd", dg_pre, ht)
        grads["gate.b1"] = dg_pre.sum(axis=(0, 1))
        dht = dht + dg_pre @ t["gate.W1"]

    dh, dhW = _fusion_backward(t, batch.word_ids, fcache, dht, grads)
    grads["W_attn"] = np.einsum("bnd,bne->de", out.h, dhW)
    enc_grads = encoder_backward(t, cfg, ecache, dh)
    grads.update(enc_grads)
    return loss, grads, out


# ------------------------------------------------------ batching and decoding


def assemble_batch(items) -> Batch:
    """Pad per-sentence arrays into one Batch.

    items: (char_ids [n], gold_ids [n] or None, word_ids [n, m], word_mask
    [n, m]) per sentence.  Pad slots get CHAR_PAD_ID / WORD_PAD (mask 0).
    """
    B = len(items)
    n = max(len(it[0]) for it in items)
    m = items[0][2].shape[1]
    char_ids = np.full((B, n), CHAR_PAD_ID, dtype=np.int64)
    char_mask = np.zeros((B, n))
    word_ids = np.ones((B, n, m), dtype=np.int64)  # 1 == word-side PAD id
    word_mask = np.zeros((B, n, m))
    has_gold = items[0][1] is not None
    gold_ids = np.full((B, n), CHAR_PAD_ID, dtype=np.int64) if has_gold else None
    for b, (cid, gid, wid, wmask) in enumerate(items):
        k = len(cid)
        char_ids[b, :k] = cid
        char_mask[b, :k] = 1.0
        word_ids[b, :k] = wid
        word_mask[b, :k] = wmask
        if has_gold:
            gold_ids[b, :k] = gid
    return Batch(char_ids, char_mask, word_ids, word_mask, gold_ids)


def _decode_positions(params: ModelParams, sentence: str, p_row: np.ndarray) -> str:
    pred = p_row.argmax(axis=-1)
    return "".join(
        sentence[i] if pred[i] < CHAR_ID_OFFSET else params.chars[pred[i] - CHAR_ID_OFFSET]
        for i in range(len(sentence))
    )


def correct_many(params: ModelParams, sentences, feats, batch_size: int = 64):
    """Non-autoregressive correction: per-position argmax over the mixture.

    feats is featurize_sentences(sentences, ...) at the checkpoint's m_max:
    feats[i] = (word_ids, word_mask) for sentences[i].  Unknown characters
    map to UNK, and a position whose argmax lands on a reserved id keeps its
    input character, so each output is as long as its input.  Word ids at or
    beyond word_vocab_size mean the lexicon and checkpoint disagree.
    """
    limit = params.config.word_vocab_size
    for wid, _ in feats:
        if wid.size and int(wid.max()) >= limit:
            raise HanfixError(
                f"candidate word id {int(wid.max())} out of range for "
                f"word_vocab_size={limit}; lexicon and checkpoint disagree"
            )
    out: list[str] = [""] * len(sentences)
    todo = [i for i, s in enumerate(sentences) if len(s) > 0]
    for lo in range(0, len(todo), batch_size):
        chunk = todo[lo : lo + batch_size]
        batch = assemble_batch(
            [(params.char_to_ids(sentences[i]), None, feats[i][0], feats[i][1])
             for i in chunk]
        )
        res, _ = forward_batch(params, batch)
        for row, i in enumerate(chunk):
            out[i] = _decode_positions(params, sentences[i], res.p_out[row])
    return out


# ----------------------------------------------------------------- checkpoint

_CKPT_MAGIC = b"hanfix-ckpt\x00"
_CKPT_VERSION = 1


def save_checkpoint(params: ModelParams, path) -> None:
    """Versioned binary: header JSON (config, chars, tensor manifest, payload
    crc) + little-endian float32 tensor payload in declared order."""
    payload = b"".join(
        np.ascontiguousarray(t, dtype="<f4").tobytes() for t in params.tensors.values()
    )
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
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a hanfix checkpoint")
    off = len(_CKPT_MAGIC)
    version = int.from_bytes(blob[off : off + 4], "little")
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
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
        expected = init_params(config, chars).tensors
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad config in header: {e}") from e
    payload = blob[off + 12 + hlen :]
    if zlib.crc32(payload) != payload_crc:
        raise CheckpointError(f"{path}: payload checksum mismatch")
    if [name for name, _ in manifest] != list(expected.keys()):
        raise CheckpointError(f"{path}: tensor manifest does not match config")
    tensors: dict[str, np.ndarray] = {}
    pos = 0
    for name, shape in manifest:
        if expected[name].shape != shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {shape}, config implies {expected[name].shape}"
            )
        count = int(np.prod(shape)) if shape else 1
        raw = payload[pos : pos + 4 * count]
        if len(raw) != 4 * count:
            raise CheckpointError(f"{path}: payload truncated at tensor {name}")
        tensors[name] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
        pos += 4 * count
    if pos != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - pos} trailing payload bytes")
    return ModelParams(config=config, chars=chars, tensors=tensors)
