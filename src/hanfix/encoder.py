"""Small transformer encoder over character embeddings, with hand-written
backward passes.

Everything runs in float64 numpy so the analytic gradients can be checked
against central finite differences tightly.  Shapes follow the [out, in]
weight convention: y = x @ W.T + b.  Pre-LN blocks plus a final LayerNorm:

    x = x + MHA(LN1(x));  x = x + FFN(LN2(x));  ...;  h = LNf(x)

Forward functions return a cache consumed by the matching backward
function (encoder_forward keeps none at inference); gradients come back in
a flat {tensor_name: array} dict keyed exactly like the parameter dict.
"""

from __future__ import annotations

import numpy as np

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-form GELU (Hendrycks & Gimpel, arXiv:1606.08415) and its tanh term,
    which gelu_grad reuses.  x*x*x, not x**3: the latter calls pow(), >10x slower."""
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu(x) / dx given the tanh term `t` from gelu(x)."""
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)


def sum_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over all leading axes of a[..., i] * b[..., j] -> [i, j], as one 2-D
    matmul (a 3-D or 4-D einsum over the same axes is 5-9x slower)."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def scatter_rows(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """[n, d] rows: row k sums `rows` where ids == k.  np.add.at on zeros, ~3.5x
    faster; one bincount per column keeps the temporaries one column big."""
    flat = ids.reshape(-1)
    rows = rows.reshape(flat.size, -1)
    out = np.empty((n, rows.shape[1]))
    for j in range(rows.shape[1]):
        out[:, j] = np.bincount(flat, weights=rows[:, j], minlength=n)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    never overflows; both branches share e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray = None) -> np.ndarray:
    """Softmax into `out` (x itself may be passed), else into a new array.
    ufunc.reduce runs the same loops as x.max()/x.sum() without their Python
    wrappers, which cost more than the arithmetic on small arrays; exp and
    the division run in place, so a multi-MB input allocates one temporary,
    not three, and none with `out`."""
    e = np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis restricted to mask==1 entries.

    Rows whose mask is all zero come back as all zeros (not NaN), which is
    exactly the no-candidate fallback the fusion layer relies on.
    """
    keep = mask > 0
    e = np.where(keep, scores, -1e30)
    e -= np.maximum.reduce(e, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e *= keep
    z = np.add.reduce(e, axis=-1, keepdims=True)
    z[z == 0.0] = 1.0
    e /= z
    return e


def softmax_backward(a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """d(scores) given softmax output `a` and upstream gradient `da`.

    Valid for masked softmax too: zero rows/entries yield zero gradient.
    """
    return a * (da - (da * a).sum(axis=-1, keepdims=True))


# ------------------------------------------------------------------ layernorm

_LN_EPS = 1e-5


def _mean_last(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1, keepdims=True), bit for bit: the same sum and division,
    without ndarray.mean's Python wrapper."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def ln_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    xc = x - _mean_last(x)
    # x.var(axis=-1) is this same sum of squared deviations over d
    inv = 1.0 / np.sqrt(_mean_last(xc * xc) + _LN_EPS)
    xc *= inv
    y = xc * g
    y += b
    return y, (xc, inv, g)


def ln_backward(dy: np.ndarray, cache):
    xhat, inv, g = cache
    lead = tuple(range(dy.ndim - 1))
    dg = np.add.reduce(dy * xhat, axis=lead)
    db = np.add.reduce(dy, axis=lead)
    dxhat = dy * g
    dx = inv * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))
    return dx, dg, db


# ------------------------------------------------------------------- encoder


def encoder_tensor_specs(cfg) -> dict[str, tuple[tuple[int, ...], float | None, float]]:
    """Embeddings, L attention blocks, and the final LayerNorm, as name ->
    (shape, std, fill): a fresh tensor is drawn from N(0, std**2), or filled
    with `fill` where std is None."""
    d, ffn = cfg.d_c, cfg.ffn_dim
    t: dict[str, tuple[tuple[int, ...], float | None, float]] = {}
    t["E_c"] = ((cfg.char_vocab_size, d), 0.02, 0.0)
    t["P"] = ((cfg.max_len, d), 0.02, 0.0)
    for l in range(cfg.layers):
        p = f"blk{l}."
        t[p + "ln1.g"] = ((d,), None, 1.0)
        t[p + "ln1.b"] = ((d,), None, 0.0)
        for name in ("Wq", "Wk", "Wv", "Wo"):
            t[p + name] = ((d, d), 0.02, 0.0)
        for name in ("bq", "bk", "bv", "bo"):
            t[p + name] = ((d,), None, 0.0)
        t[p + "ln2.g"] = ((d,), None, 1.0)
        t[p + "ln2.b"] = ((d,), None, 0.0)
        t[p + "W1"] = ((ffn, d), 0.02, 0.0)
        t[p + "c1"] = ((ffn,), None, 0.0)
        t[p + "W2"] = ((d, ffn), 0.02, 0.0)
        t[p + "c2"] = ((d,), None, 0.0)
    t["ln_f.g"] = ((d,), None, 1.0)
    t["ln_f.b"] = ((d,), None, 0.0)
    return t


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    B, n, d = x.shape
    return x.reshape(B, n, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    B, H, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, n, H * dh)


def _block_forward(tensors, heads, p, x, kbias, keep=True):
    """One pre-LN block on x [B, n, d]: (its output, the block's cache).  With
    keep=False the cache is None and the attention half's intermediates are
    freed before the FFN half runs."""
    t, ln1c = ln_forward(x, tensors[p + "ln1.g"], tensors[p + "ln1.b"])
    Qh, Kh, Vh = (_split_heads(t @ tensors[p + "W" + z].T + tensors[p + "b" + z], heads)
                  for z in "qkv")
    scale = 1.0 / np.sqrt(Qh.shape[-1])
    S = Qh @ Kh.transpose(0, 1, 3, 2)
    S *= scale
    S += kbias
    A = softmax(S, out=S)
    O = _merge_heads(A @ Vh)
    x1 = x + (O @ tensors[p + "Wo"].T + tensors[p + "bo"])
    attn = (t, ln1c, Qh, Kh, Vh, A, O) if keep else None
    del t, ln1c, Qh, Kh, Vh, S, A, O
    t2, ln2c = ln_forward(x1, tensors[p + "ln2.g"], tensors[p + "ln2.b"])
    pre = t2 @ tensors[p + "W1"].T + tensors[p + "c1"]
    f, th = gelu(pre)
    x = x1 + f @ tensors[p + "W2"].T + tensors[p + "c2"]
    return x, (*attn, t2, ln2c, pre, th, scale) if keep else None


def encoder_forward(tensors, cfg, char_ids: np.ndarray, cmask: np.ndarray, _keep_cache=True):
    """char ids [B, n] -> (hidden states [B, n, d_c], cache for encoder_backward).

    cmask marks real (non-pad) positions; pad positions are excluded as
    attention keys so they never leak into real positions.  With
    _keep_cache=False (inference) the cache is None, and each block's
    intermediates are freed before the next block runs.
    """
    B, n = char_ids.shape
    x = tensors["E_c"][char_ids] + tensors["P"][:n][None, :, :]
    # additive key bias over heads and queries: pad keys get -1e30, whose
    # exp is exactly 0 beside any real key, so softmax(S + bias) equals
    # masked_softmax(S, mask) bit for bit on rows with a real key.  Every row
    # of a batch with a non-empty sentence has one; a sentence with no
    # characters (correct_many skips them) has no positions that carry loss.
    kbias = np.where(cmask > 0, 0.0, -1e30)[:, None, None, :]
    caches = []
    for l in range(cfg.layers):
        x, cache = _block_forward(tensors, cfg.heads, f"blk{l}.", x, kbias, _keep_cache)
        if _keep_cache:
            caches.append(cache)
        del cache
    h, lnfc = ln_forward(x, tensors["ln_f.g"], tensors["ln_f.b"])
    return h, (char_ids, n, caches, lnfc) if _keep_cache else None


def encoder_backward(tensors, cfg, cache, dh: np.ndarray) -> dict[str, np.ndarray]:
    char_ids, n, caches, lnfc = cache
    grads: dict[str, np.ndarray] = {}
    dx, grads["ln_f.g"], grads["ln_f.b"] = ln_backward(dh, lnfc)
    for l in reversed(range(cfg.layers)):
        p = f"blk{l}."
        t, ln1c, Qh, Kh, Vh, A, O, t2, ln2c, pre, th, scale = caches[l]
        # FFN sublayer; gelu(pre) is rebuilt from its cached tanh, because
        # caching it as well raised peak RSS by ~1 MB on small batches
        grads[p + "W2"] = sum_outer(dx, 0.5 * pre * (1.0 + th))
        grads[p + "c2"] = dx.sum(axis=(0, 1))
        dpre = (dx @ tensors[p + "W2"]) * gelu_grad(pre, th)
        grads[p + "W1"] = sum_outer(dpre, t2)
        grads[p + "c1"] = dpre.sum(axis=(0, 1))
        dt2 = dpre @ tensors[p + "W1"]
        dx1_ln, grads[p + "ln2.g"], grads[p + "ln2.b"] = ln_backward(dt2, ln2c)
        dx1 = dx + dx1_ln
        # attention sublayer
        grads[p + "Wo"] = sum_outer(dx1, O)
        grads[p + "bo"] = dx1.sum(axis=(0, 1))
        dOh = _split_heads(dx1 @ tensors[p + "Wo"], cfg.heads)
        dVh = A.transpose(0, 1, 3, 2) @ dOh
        dS = softmax_backward(A, dOh @ Vh.transpose(0, 1, 3, 2))
        dQh = (dS @ Kh) * scale
        dKh = (dS.transpose(0, 1, 3, 2) @ Qh) * scale
        dQ, dK, dV = (_merge_heads(z) for z in (dQh, dKh, dVh))
        for z, dz in zip("qkv", (dQ, dK, dV)):
            grads[p + "W" + z] = sum_outer(dz, t)
            grads[p + "b" + z] = dz.sum(axis=(0, 1))
        dt = dQ @ tensors[p + "Wq"] + dK @ tensors[p + "Wk"] + dV @ tensors[p + "Wv"]
        dx_ln, grads[p + "ln1.g"], grads[p + "ln1.b"] = ln_backward(dt, ln1c)
        dx = dx1 + dx_ln
    grads["E_c"] = scatter_rows(char_ids, dx, len(tensors["E_c"]))
    grads["P"] = np.zeros_like(tensors["P"])
    grads["P"][:n] = dx.sum(axis=0)
    return grads
