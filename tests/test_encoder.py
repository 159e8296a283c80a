import numpy as np
import pytest

from hanfix.encoder import (
    _merge_heads,
    _split_heads,
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
from hanfix.model import ModelConfig, init_params


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        fp = f()
        x[i] = orig - h
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * h)
    return g


class TestActivations:
    def test_gelu_values(self):
        assert gelu(np.array(0.0))[0] == 0.0
        assert abs(gelu(np.array(10.0))[0] - 10.0) < 1e-6
        assert abs(gelu(np.array(-10.0))[0]) < 1e-6
        # tanh approximation of x*Phi(x): spot value at 1.0
        assert abs(float(gelu(np.array(1.0))[0]) - 0.841192) < 1e-5

    def test_gelu_grad_matches_fd(self):
        x = np.linspace(-3, 3, 31)
        num = np.array([
            (gelu(np.array(v + 1e-6))[0] - gelu(np.array(v - 1e-6))[0]) / 2e-6
            for v in x
        ])
        assert np.allclose(gelu_grad(x, gelu(x)[1]), num, atol=1e-7)

    def test_sigmoid_stable(self):
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([-800.0]))[0] == 0.0
        assert abs(sigmoid(np.array([0.0]))[0] - 0.5) < 1e-15


class TestKernels:
    @pytest.mark.parametrize("spec,a_shape,b_shape", [
        ("bnd,bnf->df", (3, 5, 4), (3, 5, 6)),
        ("bnmd,bnmw->dw", (3, 5, 2, 4), (3, 5, 2, 7)),
        ("bnk,bng->kg", (4, 6, 1), (4, 6, 5)),  # the copy gate's w2
    ])
    def test_sum_outer_matches_einsum(self, spec, a_shape, b_shape):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        want = np.einsum(spec, a, b)
        assert np.allclose(sum_outer(a, b), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("ids_shape,d", [((4, 7), 5), ((4, 7, 3), 6)])
    def test_scatter_rows_matches_add_at(self, ids_shape, d):
        rng = np.random.default_rng(2)
        n = 20
        ids = rng.choice([1, 2, 3, 5, 8, 13], size=ids_shape)  # repeats, PAD id 1
        ids.reshape(-1)[:3] = 1
        rows = rng.normal(size=ids_shape + (d,))
        want = np.zeros((n, d))
        np.add.at(want, ids, rows)
        got = scatter_rows(ids, rows, n)
        assert got.shape == (n, d)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        unseen = np.setdiff1d(np.arange(n), ids)
        assert len(unseen) >= 14 and (got[unseen] == 0.0).all()


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 7)) * 50
        a = softmax(x)
        assert np.allclose(a.sum(-1), 1.0)
        assert (a > 0).all()

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(x), softmax(x + 123.0))

    def test_masked_rows(self):
        scores = np.array([[1.0, 2.0, 3.0], [5.0, -1.0, 0.5]])
        mask = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        a = masked_softmax(scores, mask)
        assert a[0, 1] == 0.0
        assert abs(a[0].sum() - 1.0) < 1e-12
        # fully masked row must be exactly zero, not NaN
        assert (a[1] == 0.0).all()

    def test_masked_matches_plain_when_unmasked(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5))
        assert np.allclose(masked_softmax(x, np.ones_like(x)), softmax(x))

    def test_masked_ignores_huge_masked_scores(self):
        scores = np.array([[1e20, 1.0, 2.0]])
        mask = np.array([[0.0, 1.0, 1.0]])
        a = masked_softmax(scores, mask)
        assert a[0, 0] == 0.0
        assert np.isfinite(a).all()

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 5))
        da = rng.normal(size=(2, 5))

        def loss():
            return float((softmax(x) * da).sum())

        num = fd_grad(loss, x)
        ana = softmax_backward(softmax(x), da)
        assert np.allclose(ana, num, atol=1e-8)


class TestLayerNorm:
    def test_normalizes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(3.0, 2.0, size=(4, 6, 8))
        y, _ = ln_forward(x, np.ones(8), np.zeros(8))
        assert np.allclose(y.mean(-1), 0.0, atol=1e-12)
        assert np.allclose(y.var(-1), 1.0, atol=1e-4)  # eps shifts it slightly

    def test_affine(self):
        x = np.random.default_rng(4).normal(size=(2, 8))
        g, b = np.full(8, 2.0), np.full(8, -1.0)
        y, _ = ln_forward(x, g, b)
        y0, _ = ln_forward(x, np.ones(8), np.zeros(8))
        assert np.allclose(y, 2.0 * y0 - 1.0)

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6))
        g = rng.normal(1.0, 0.1, size=6)
        b = rng.normal(0.0, 0.1, size=6)
        w = rng.normal(size=(3, 6))

        def loss():
            y, _ = ln_forward(x, g, b)
            return float((y * w).sum())

        y, cache = ln_forward(x, g, b)
        dx, dg, db = ln_backward(w, cache)
        assert np.allclose(dx, fd_grad(loss, x), atol=1e-7)
        assert np.allclose(dg, fd_grad(loss, g), atol=1e-7)
        assert np.allclose(db, fd_grad(loss, b), atol=1e-7)


# The expressions the kernels replaced.  The kernels must match them bit for
# bit, so every output (losses, gradients, checkpoints, CLI bytes) stays the same.


def old_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def old_softmax(x, axis=-1):
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def old_masked_softmax(scores, mask):
    s = np.where(mask > 0, scores, -1e30)
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m) * (mask > 0)
    z = e.sum(axis=-1, keepdims=True)
    return e / np.where(z == 0.0, 1.0, z)


def old_ln_forward(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv, g)


def old_ln_backward(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def assert_same(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)


class TestBitIdentity:
    @pytest.mark.parametrize("shape", [(7,), (3, 8), (2, 5, 16), (64, 12, 16)])
    def test_layernorm(self, shape):
        rng = np.random.default_rng(20)
        x = rng.normal(1.5, 3.0, shape)
        g = rng.normal(1.0, 0.2, shape[-1])
        b = rng.normal(0.0, 0.2, shape[-1])
        y, cache = ln_forward(x, g, b)
        y_old, cache_old = old_ln_forward(x, g, b)
        assert_same(y, y_old)
        for got, want in zip(cache[:2], cache_old[:2]):
            assert_same(got, want)
        dy = rng.normal(size=shape)
        for got, want in zip(ln_backward(dy, cache), old_ln_backward(dy, cache_old)):
            assert_same(got, want)

    @pytest.mark.parametrize("shape,axis", [((4, 7), -1), ((4, 7), 0), ((8, 12, 182), -1)])
    def test_softmax(self, shape, axis):
        x = np.random.default_rng(21).normal(size=shape) * 30
        assert_same(softmax(x, axis), old_softmax(x, axis))
        inplace = x.copy()
        assert softmax(inplace, axis, out=inplace) is inplace
        assert_same(inplace, old_softmax(x, axis))

    def test_softmax_leaves_its_input_alone(self):
        x = np.random.default_rng(22).normal(size=(3, 4, 5))
        before = x.copy()
        softmax(x)
        masked_softmax(x, np.ones_like(x))
        assert_same(x, before)

    def test_masked_softmax_with_an_all_masked_row(self):
        rng = np.random.default_rng(23)
        scores = rng.normal(size=(4, 6)) * 10
        mask = (rng.random((4, 6)) < 0.5).astype(float)
        mask[2] = 0.0
        a = masked_softmax(scores, mask)
        assert_same(a, old_masked_softmax(scores, mask))
        assert (a[2] == 0.0).all()

    def test_masked_softmax_with_a_broadcast_mask(self):
        rng = np.random.default_rng(24)
        B, H, n = 3, 2, 6
        scores = rng.normal(size=(B, H, n, n)) * 10
        cmask = np.ones((B, n))
        cmask[1, 4:] = 0.0
        cmask[2, 1:] = 0.0
        kmask = cmask[:, None, None, :]
        assert_same(masked_softmax(scores, kmask),
                    old_masked_softmax(scores, np.broadcast_to(kmask, scores.shape)))

    @pytest.mark.parametrize("magnitude", [1.0, 1e3, 1e6])
    def test_additive_key_bias_equals_masked_softmax(self, magnitude):
        # the encoder's attention form; every row has at least one real key
        rng = np.random.default_rng(25)
        B, H, n, dh = 4, 2, 7, 4
        Qh, Kh = rng.normal(size=(2, B, H, n, dh)) * np.sqrt(magnitude)
        cmask = np.ones((B, n))
        cmask[1, 3:] = 0.0
        cmask[2, 1:] = 0.0
        cmask[3, :6] = 0.0
        scale = 1.0 / np.sqrt(dh)
        S = Qh @ Kh.transpose(0, 1, 3, 2)
        S *= scale
        S += np.where(cmask > 0, 0.0, -1e30)[:, None, None, :]
        want = old_masked_softmax((Qh @ Kh.transpose(0, 1, 3, 2)) * scale,
                                  np.broadcast_to(cmask[:, None, None, :], S.shape))
        assert_same(softmax(S), want)

    def test_sigmoid(self):
        x = np.concatenate([
            [1e3, -1e3, 745.0, -745.0, 0.0, -0.0],
            np.random.default_rng(26).normal(size=50) * 20,
        ])
        # overflow, invalid and divide-by-zero raise; exp(-1000) underflows
        # to 0 in both forms by design
        with np.errstate(all="raise", under="ignore"):
            got, want = sigmoid(x), old_sigmoid(x)
        assert_same(got, want)
        assert got[0] == 1.0 and got[1] == 0.0 and got[4] == got[5] == 0.5


@pytest.fixture(scope="module")
def enc_setup():
    cfg = ModelConfig(char_vocab_size=12, word_vocab_size=6, d_c=8, d_w=4,
                      layers=2, heads=2, ffn_dim=16, gate_dim=4, m_max=2,
                      max_len=16)
    params = init_params(cfg, [chr(0x4E00 + i) for i in range(10)])
    rng = np.random.default_rng(7)
    for name, arr in params.tensors.items():
        arr[...] = rng.normal(0.0, 0.3, arr.shape)
    return cfg, params.tensors


class TestEncoder:
    def test_shapes_and_determinism(self, enc_setup):
        cfg, tensors = enc_setup
        ids = np.array([[2, 3, 4, 5], [6, 7, 1, 1]])
        cmask = (ids != 1).astype(float)
        h1, _ = encoder_forward(tensors, cfg, ids, cmask)
        h2, _ = encoder_forward(tensors, cfg, ids, cmask)
        assert h1.shape == (2, 4, cfg.d_c)
        assert np.array_equal(h1, h2)

    def test_pad_keys_do_not_leak(self, enc_setup):
        # changing a padded position's char id must not affect real positions
        cfg, tensors = enc_setup
        ids1 = np.array([[2, 3, 4, 1]])
        ids2 = np.array([[2, 3, 4, 9]])
        cmask = np.array([[1.0, 1.0, 1.0, 0.0]])
        h1, _ = encoder_forward(tensors, cfg, ids1, cmask)
        h2, _ = encoder_forward(tensors, cfg, ids2, cmask)
        assert np.allclose(h1[0, :3], h2[0, :3], atol=1e-12)

    def test_position_sensitivity(self, enc_setup):
        cfg, tensors = enc_setup
        ids = np.array([[2, 3]])
        rev = np.array([[3, 2]])
        cmask = np.ones((1, 2))
        h1, _ = encoder_forward(tensors, cfg, ids, cmask)
        h2, _ = encoder_forward(tensors, cfg, rev, cmask)
        # swapped inputs must not produce swapped outputs (positions matter)
        assert not np.allclose(h1[0, 0], h2[0, 1])

    def test_backward_matches_fd(self, enc_setup):
        cfg, tensors = enc_setup
        ids = np.array([[2, 3, 4], [5, 6, 1]])
        cmask = (ids != 1).astype(float)
        rng = np.random.default_rng(8)
        w = rng.normal(size=(2, 3, cfg.d_c))

        def loss():
            h, _ = encoder_forward(tensors, cfg, ids, cmask)
            return float((h * w).sum())

        h, cache = encoder_forward(tensors, cfg, ids, cmask)
        grads = encoder_backward(tensors, cfg, cache, w)
        rng2 = np.random.default_rng(9)
        for name in ("E_c", "P", "blk0.Wq", "blk0.Wo", "blk0.W1", "blk1.Wv",
                     "blk1.W2", "blk0.ln1.g", "blk1.ln2.b", "ln_f.g", "blk0.bq"):
            t = tensors[name]
            flat = t.reshape(-1)
            gflat = grads[name].reshape(-1)
            for _ in range(3):
                i = int(rng2.integers(flat.size))
                orig = flat[i]
                flat[i] = orig + 1e-6
                fp = loss()
                flat[i] = orig - 1e-6
                fm = loss()
                flat[i] = orig
                num = (fp - fm) / 2e-6
                assert abs(num - gflat[i]) <= 1e-6 + 1e-4 * abs(num), name


def fresh_softmax_encoder_forward(tensors, cfg, char_ids, cmask):
    """encoder_forward as it was before the attention softmax ran in place on
    the scores: softmax(S) into a fresh array."""
    B, n = char_ids.shape
    x = tensors["E_c"][char_ids] + tensors["P"][:n][None, :, :]
    kbias = np.where(cmask > 0, 0.0, -1e30)[:, None, None, :]
    caches = []
    for l in range(cfg.layers):
        p = f"blk{l}."
        t, ln1c = ln_forward(x, tensors[p + "ln1.g"], tensors[p + "ln1.b"])
        Qh, Kh, Vh = (_split_heads(t @ tensors[p + "W" + z].T + tensors[p + "b" + z], cfg.heads)
                      for z in "qkv")
        scale = 1.0 / np.sqrt(Qh.shape[-1])
        S = Qh @ Kh.transpose(0, 1, 3, 2)
        S *= scale
        S += kbias
        A = softmax(S)
        O = _merge_heads(A @ Vh)
        x1 = x + (O @ tensors[p + "Wo"].T + tensors[p + "bo"])
        t2, ln2c = ln_forward(x1, tensors[p + "ln2.g"], tensors[p + "ln2.b"])
        pre = t2 @ tensors[p + "W1"].T + tensors[p + "c1"]
        f, th = gelu(pre)
        x = x1 + f @ tensors[p + "W2"].T + tensors[p + "c2"]
        caches.append((t, ln1c, Qh, Kh, Vh, A, O, t2, ln2c, pre, th, scale))
    h, lnfc = ln_forward(x, tensors["ln_f.g"], tensors["ln_f.b"])
    return h, (char_ids, n, caches, lnfc)


def assert_same_tree(got, want):
    if isinstance(want, np.ndarray):
        assert_same(got, want)
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_tree(g, w)
    elif isinstance(want, list):
        assert isinstance(got, list)
        assert_same_tree(tuple(got), tuple(want))
    else:
        assert got == want


class TestInPlaceAttentionSoftmax:
    """The attention softmax overwrites the scores; hidden states, the cached
    attention weights A and every other cache entry stay bit for bit."""

    @pytest.mark.parametrize("lengths", [[6, 6, 6], [7, 1, 5, 7], [12, 2, 11, 12, 3]])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_equals_fresh_array_softmax(self, lengths, layers):
        cfg = ModelConfig(char_vocab_size=40, word_vocab_size=6, d_c=16, d_w=4,
                          layers=layers, heads=2, ffn_dim=32, gate_dim=4, m_max=2,
                          max_len=16)
        params = init_params(cfg, [chr(0x4E00 + i) for i in range(38)])
        rng = np.random.default_rng(layers)
        for arr in params.tensors.values():
            arr[...] = rng.normal(0.0, 0.5, arr.shape)
        n = max(lengths)
        cmask = (np.arange(n)[None, :] < np.array(lengths)[:, None]).astype(float)
        ids = np.where(cmask > 0, rng.integers(2, 40, size=cmask.shape), 1)
        h, cache = encoder_forward(params.tensors, cfg, ids, cmask)
        h_want, cache_want = fresh_softmax_encoder_forward(params.tensors, cfg, ids, cmask)
        assert_same(h, h_want)
        assert_same_tree(cache, cache_want)
        for layer, layer_want in zip(cache[2], cache_want[2]):
            assert_same(layer[5], layer_want[5])  # A
        h_infer, none = encoder_forward(params.tensors, cfg, ids, cmask, _keep_cache=False)
        assert_same(h_infer, h_want)
        assert none is None
