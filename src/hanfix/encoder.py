"""Small transformer encoder over character embeddings, with hand-written
backward passes.

Every forward kernel computes in its tensors' dtype: float64 as
init_params draws them and training keeps them, so the analytic gradients
can be checked against central finite differences tightly, and float32 as
load_checkpoint reads them.  Constants are Python floats and every array a
forward kernel allocates takes its input's dtype, so no float64 enters a
float32 pass.  Shapes follow the [out, in] weight convention:
y = x @ W.T + b.  Pre-LN blocks plus a final LayerNorm:

    x = x + MHA(LN1(x));  x = x + FFN(LN2(x));  ...;  h = LNf(x)

Forward functions return a cache consumed by the matching backward
function (encoder_forward keeps none at inference); gradients come back in
a flat {tensor_name: array} dict keyed exactly like the parameter dict.
"""

from __future__ import annotations

import math

import numpy as np

# Python floats: an np.float64 scalar would promote a float32 array
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-form GELU (Hendrycks & Gimpel, arXiv:1606.08415) and its tanh term,
    which gelu_grad reuses.  x*x*x, not x**3: the latter calls pow(), >10x slower."""
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu(x) / dx given the tanh term `t` from gelu(x):

        0.5 (1 + t) + 0.5 x (1 - t t) C (1 + 3 A x x)

    in two arrays, each operation in place in the expression's order, which
    rounds as the expression does; the two terms are added in the other
    order, and addition commutes exactly."""
    r = np.multiply(0.5, x)
    s = np.multiply(t, t)
    r *= np.subtract(1.0, s, out=s)
    r *= _GELU_C
    np.multiply(3.0 * _GELU_A, x, out=s)
    s *= x
    r *= np.add(1.0, s, out=s)
    np.add(1.0, t, out=s)
    r += np.multiply(0.5, s, out=s)
    return r


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
    r = da - (da * a).sum(axis=-1, keepdims=True)
    r *= a
    return r


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
    """(dx, dg, db) given the upstream gradient dy and ln_forward's cache:

        dxhat = dy g;  dx = inv (dxhat - mean(dxhat) - xhat mean(dxhat xhat))

    in two arrays of dy's shape, each operation in place in the
    expression's order, which rounds as the expression does."""
    xhat, inv, g = cache
    lead = tuple(range(dy.ndim - 1))
    s = np.multiply(dy, xhat)
    dg = np.add.reduce(s, axis=lead)
    db = np.add.reduce(dy, axis=lead)
    dx = np.multiply(dy, g)  # dxhat until it is spent
    mean_dx_xhat = _mean_last(np.multiply(dx, xhat, out=s))
    dx -= _mean_last(dx)
    dx -= np.multiply(xhat, mean_dx_xhat, out=s)
    dx *= inv
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


class _Rows:
    """The slots of a [B, n] batch that row-wise work computes on: the
    encoder's at inference (encoder_forward), the fusion layer's and the
    head's (hanfix.model).

    _Rows() keeps every slot: take() and grid() hand arrays back as they are.
    _Rows(mask) keeps the real slots as N rows: take() gathers them from a
    [B, n, ...] grid, and grid() scatters N rows back into a [B, n, ...] grid
    that is 0 at every pad slot, a new one or a spent C-contiguous `out`.
    """

    def __init__(self, mask=None):
        self.shape = self.idx = self.pad = None
        if mask is not None:
            self.shape = mask.shape
            self.idx, self.pad = np.flatnonzero(mask), np.flatnonzero(mask == 0)

    def take(self, x: np.ndarray) -> np.ndarray:
        # ndarray.take gathers rows up to ~2x faster than fancy indexing (and
        # than np.take on small arrays), with equal values
        return x if self.idx is None else x.reshape(-1, *x.shape[2:]).take(self.idx, axis=0)

    def grid(self, rows: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        if self.idx is None:
            return rows
        tail = rows.shape[1:]
        if out is None:
            out = np.zeros((*self.shape, *tail), rows.dtype)
        else:
            out.reshape(-1, *tail)[self.pad] = 0.0
        out.reshape(-1, *tail)[self.idx] = rows
        return out


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    B, n, d = x.shape
    return x.reshape(B, n, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    B, H, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, n, H * dh)


def _block_forward(tensors, heads, p, x, rows, kbias, keep=True):
    """One pre-LN block on x at `rows`: (its output, the block's cache).
    Attention's scores, softmax and A @ V run on the [B, n] grid, since they
    mix a sentence's positions: Q, K and V are scattered to it, with 0 at
    pad slots, and O is gathered from it.  Every other product runs at the
    rows.  With keep=False the cache is None and the attention half's
    intermediates are freed before the FFN half runs."""
    t, ln1c = ln_forward(x, tensors[p + "ln1.g"], tensors[p + "ln1.b"])
    Qh, Kh, Vh = (_split_heads(rows.grid(t @ tensors[p + "W" + z].T + tensors[p + "b" + z]),
                               heads)
                  for z in "qkv")
    scale = 1.0 / math.sqrt(Qh.shape[-1])
    S = Qh @ Kh.transpose(0, 1, 3, 2)
    S *= scale
    S += kbias
    A = softmax(S, out=S)
    O = rows.take(_merge_heads(A @ Vh))
    x1 = x + (O @ tensors[p + "Wo"].T + tensors[p + "bo"])
    attn = (t, ln1c, Qh, Kh, Vh, A, O) if keep else None
    del t, ln1c, Qh, Kh, Vh, S, A, O
    t2, ln2c = ln_forward(x1, tensors[p + "ln2.g"], tensors[p + "ln2.b"])
    pre = t2 @ tensors[p + "W1"].T + tensors[p + "c1"]
    f, th = gelu(pre)
    x = x1 + f @ tensors[p + "W2"].T + tensors[p + "c2"]
    return x, (*attn, t2, ln2c, pre, th, scale) if keep else None


def encoder_forward(tensors, cfg, char_ids: np.ndarray, cmask: np.ndarray, rows=None,
                    _keep_cache=True):
    """char ids [B, n] -> (hidden states at `rows`, cache for
    encoder_backward).

    cmask marks real (non-pad) positions; pad positions are excluded as
    attention keys so they never leak into real positions.  `rows` is a
    _Rows of the [B, n] grid, every slot when None: the states come back as
    [B, n, d_c], or as [N, d_c] at the N real slots of _Rows(cmask).  All
    but attention runs at `rows` (_block_forward); at real slots a state
    can differ from the grid's in its last bits, as BLAS rounds a product
    by the call's shape.  With _keep_cache=False (inference) the
    cache is None, and each block's intermediates are freed before the next
    block runs; a cache is kept for every slot only (rows None).
    """
    rows = _Rows() if rows is None else rows
    if _keep_cache and rows.idx is not None:
        raise ValueError("encoder_backward needs every slot: keep no cache at real rows")
    B, n = char_ids.shape
    if rows.idx is None:
        x = tensors["E_c"][char_ids] + tensors["P"][:n][None, :, :]
    else:
        x = (tensors["E_c"].take(rows.take(char_ids), axis=0)
             + tensors["P"].take(rows.idx % n, axis=0))
    # additive key bias over heads and queries: pad keys get -1e30, whose
    # exp is exactly 0 beside any real key, so softmax(S + bias) equals
    # masked_softmax(S, mask) bit for bit on rows with a real key.  Every row
    # of a batch with a non-empty sentence has one; a sentence with no
    # characters (correct_many skips them) has no positions that carry loss.
    kbias = np.where(cmask > 0, 0.0, -1e30).astype(x.dtype, copy=False)[:, None, None, :]
    caches = []
    for l in range(cfg.layers):
        x, cache = _block_forward(tensors, cfg.heads, f"blk{l}.", x, rows, kbias, _keep_cache)
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
        # caching it as well raised peak RSS by ~1 MB on small batches.  Here
        # and below, a fresh product is scaled, added to or multiplied in
        # place, in the expression's order: the bits are the expression's,
        # and a step frees fewer arrays for malloc to hand back to the kernel
        f = np.multiply(0.5, pre)
        f *= np.add(1.0, th)
        grads[p + "W2"] = sum_outer(dx, f)
        del f
        grads[p + "c2"] = dx.sum(axis=(0, 1))
        dpre = dx @ tensors[p + "W2"]
        dpre *= gelu_grad(pre, th)
        grads[p + "W1"] = sum_outer(dpre, t2)
        grads[p + "c1"] = dpre.sum(axis=(0, 1))
        dt2 = dpre @ tensors[p + "W1"]
        dx1_ln, grads[p + "ln2.g"], grads[p + "ln2.b"] = ln_backward(dt2, ln2c)
        dx1 = dx1_ln
        dx1 += dx
        # attention sublayer
        grads[p + "Wo"] = sum_outer(dx1, O)
        grads[p + "bo"] = dx1.sum(axis=(0, 1))
        dOh = _split_heads(dx1 @ tensors[p + "Wo"], cfg.heads)
        dVh = A.transpose(0, 1, 3, 2) @ dOh
        dS = softmax_backward(A, dOh @ Vh.transpose(0, 1, 3, 2))
        dQh = dS @ Kh
        dQh *= scale
        dKh = dS.transpose(0, 1, 3, 2) @ Qh
        dKh *= scale
        dQ, dK, dV = (_merge_heads(z) for z in (dQh, dKh, dVh))
        for z, dz in zip("qkv", (dQ, dK, dV)):
            grads[p + "W" + z] = sum_outer(dz, t)
            grads[p + "b" + z] = dz.sum(axis=(0, 1))
        dt = dQ @ tensors[p + "Wq"]
        dt += dK @ tensors[p + "Wk"]
        dt += dV @ tensors[p + "Wv"]
        dx_ln, grads[p + "ln1.g"], grads[p + "ln1.b"] = ln_backward(dt, ln1c)
        dx = dx_ln
        dx += dx1
    grads["E_c"] = scatter_rows(char_ids, dx, len(tensors["E_c"]))
    grads["P"] = np.zeros_like(tensors["P"])
    grads["P"][:n] = dx.sum(axis=0)
    return grads
