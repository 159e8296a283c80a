import numpy as np
import pytest

from hanfix import training
from hanfix.corpus import (
    NoiseSpec,
    generate_synthetic,
    make_toy_benchmark,
    make_toy_inventory,
    make_toy_words,
)
from hanfix.desm import featurize_sentences
from hanfix.errors import SequenceTooLong
from hanfix.lexicon import lexicon_from_words
from hanfix.model import ModelConfig, correct_many, init_params
from hanfix.pinyin import FuzzyClassTable, PinyinTable
from hanfix.training import Adam, TrainConfig, build_char_vocab, split_config, train


@pytest.fixture(scope="module")
def tiny_world():
    inv = make_toy_inventory(homophones=2)
    ptable = PinyinTable.from_pairs(inv)
    fuzzy = FuzzyClassTable.default()
    words = make_toy_words(inv, n_words=40, seed=5)
    lexicon = lexicon_from_words(words, ptable, fuzzy)
    pairs = generate_synthetic(
        lexicon, ptable, fuzzy, 12, (4, 6), NoiseSpec(error_rate=0.3, seed=2))
    return ptable, fuzzy, lexicon, pairs


class TestConfigHandling:
    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        assert TrainConfig(lr=1, target_loss=0).lr == 1  # a float field takes an int

    def test_split_config_routes_keys(self):
        over, tconf = split_config(
            {"d_c": 8, "heads": 2, "lattice_mode": "ttm", "lr": 0.01, "epochs": 3,
             "seed": 7})
        # each key goes to one side: the lattice mode to the model, the seed
        # (which also draws the initial tensors) to training
        assert over == {"d_c": 8, "heads": 2, "lattice_mode": "ttm"}
        assert tconf.lr == 0.01 and tconf.epochs == 3 and tconf.seed == 7

    def test_split_config_rejects_unknown(self):
        with pytest.raises(ValueError, match="warmup"):
            split_config({"warmup": 100})

    def test_split_config_rejects_vocab_sizes(self):
        # vocab sizes come from the data, never from the config file
        with pytest.raises(ValueError, match="char_vocab_size"):
            split_config({"char_vocab_size": 100})

    def test_build_char_vocab(self):
        assert build_char_vocab(["ba", "ab", "c"]) == ("a", "b", "c")
        assert build_char_vocab([]) == ()


class TestAdam:
    def test_descends_quadratic(self):
        t = {"x": np.array([5.0])}
        opt = Adam(t, lr=0.1)
        for _ in range(200):
            opt.step(t, {"x": 2.0 * t["x"]})
        assert abs(t["x"][0]) < 0.05

    def test_step_count_and_state_shapes(self):
        t = {"a": np.zeros((2, 3))}
        opt = Adam(t, lr=0.01)
        opt.step(t, {"a": np.ones((2, 3))})
        assert opt.t == 1
        assert opt.m["a"].shape == (2, 3)
        # first bias-corrected step equals -lr regardless of gradient scale
        assert np.allclose(t["a"], -0.01, atol=1e-6)

    def test_equals_the_per_tensor_update(self):
        cfg = ModelConfig(char_vocab_size=12, word_vocab_size=7, d_c=8, d_w=4, layers=2,
                          heads=2, ffn_dim=16, gate_dim=4, m_max=3, max_len=16)
        tensors = init_params(cfg, CHARS).tensors
        assert tensors["gate.b2"].shape == ()
        ref = {k: v.copy() for k, v in tensors.items()}
        opt, ref_opt = Adam(tensors, lr=0.01), PerTensorAdam(ref, lr=0.01)
        rng = np.random.default_rng(9)
        for step in range(5):
            grads = {k: rng.normal(size=v.shape) * 10.0 ** rng.integers(-6, 3)
                     for k, v in ref.items()}
            grads["blk0.c1"][:3] = [0.0, -0.0, 1e-300]
            opt.step(tensors, grads)
            ref_opt.step(ref, grads)
            for k in ref:
                for got, want in ((tensors[k], ref[k]), (opt.m[k], ref_opt.m[k]),
                                  (opt.v[k], ref_opt.v[k])):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (step, k)

    @pytest.mark.parametrize("change", ["missing", "extra", "shape"])
    def test_grads_keyed_or_shaped_unlike_the_tensors(self, change):
        t = {"a": np.zeros((2, 3)), "b": np.zeros(())}
        opt = Adam(t, lr=0.01)
        grads = {"a": np.ones((2, 3)), "b": np.ones(())}
        if change == "missing":
            del grads["b"]
        elif change == "extra":
            grads["c"] = np.ones(1)
        else:
            grads["a"] = np.ones((3, 2))
        with pytest.raises(ValueError, match="grads"):
            opt.step(t, grads)
        assert opt.t == 0 and not t["a"].any()

    def test_step_updates_the_tensors_it_was_given(self):
        t = {"a": np.zeros(2)}
        opt = Adam(t, lr=0.01)
        with pytest.raises(ValueError, match="views"):
            opt.step({"a": np.zeros(2)}, {"a": np.ones(2)})


CHARS = [chr(0x4E00 + i) for i in range(10)]


class PerTensorAdam:
    """Adam as one loop over the tensors, each operation per tensor: the
    reference the flat-buffer Adam must equal bit for bit."""

    def __init__(self, tensors, lr=5e-5, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}

    def step(self, tensors, grads) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for k, g in grads.items():
            m, v = self.m[k], self.v[k]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            tensors[k] -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


OVER = dict(d_c=8, d_w=4, layers=1, heads=2, ffn_dim=16, gate_dim=4,
            m_max=4, max_len=16)


class TestTrain:
    def test_empty_corpus(self, tiny_world):
        ptable, fuzzy, lexicon, _ = tiny_world
        with pytest.raises(ValueError, match="empty"):
            train([], lexicon, ptable, fuzzy)

    def test_too_long_fails_before_featurizing(self, tiny_world, monkeypatch):
        ptable, fuzzy, lexicon, pairs = tiny_world
        calls = []
        monkeypatch.setattr(training, "featurize_sentences",
                            lambda *a, **k: calls.append(a) or featurize_sentences(*a, **k))
        longest = max(len(p.source) for p in pairs)
        with pytest.raises(SequenceTooLong) as e:
            train(pairs, lexicon, ptable, fuzzy, TrainConfig(epochs=1),
                  model_overrides=dict(OVER, max_len=longest - 1))
        assert (e.value.length, e.value.max_len) == (longest, longest - 1)
        assert calls == []
        train(pairs, lexicon, ptable, fuzzy, TrainConfig(epochs=1),
              model_overrides=dict(OVER, max_len=longest))
        assert len(calls) == 1

    def test_history_and_logging(self, tiny_world):
        ptable, fuzzy, lexicon, pairs = tiny_world
        lines = []
        tconf = TrainConfig(lr=1e-3, batch_size=4, epochs=3)
        params, history = train(pairs, lexicon, ptable, fuzzy, tconf,
                                model_overrides=OVER, log=lines.append)
        assert len(history) == 3
        assert len(lines) == 3
        assert "epoch 1/3" in lines[0]
        assert params.config.char_vocab_size == len(build_char_vocab(
            [p.source for p in pairs] + [p.target for p in pairs])) + 2
        assert params.config.word_vocab_size == len(lexicon) + 2

    def test_deterministic(self, tiny_world):
        ptable, fuzzy, lexicon, pairs = tiny_world
        tconf = TrainConfig(lr=1e-3, batch_size=4, epochs=2, seed=3)
        p1, h1 = train(pairs, lexicon, ptable, fuzzy, tconf, model_overrides=OVER)
        p2, h2 = train(pairs, lexicon, ptable, fuzzy, tconf, model_overrides=OVER)
        assert h1 == h2
        for name in p1.tensors:
            assert np.array_equal(p1.tensors[name], p2.tensors[name])

    def test_features_follow_the_model_lattice_mode(self, tiny_world, monkeypatch):
        ptable, fuzzy, lexicon, pairs = tiny_world
        sources = [p.source for p in pairs]
        tconf = TrainConfig(lr=1e-3, batch_size=4, epochs=2)
        calls = []
        monkeypatch.setattr(training, "featurize_sentences",
                            lambda *a: calls.append(a[:1] + a[4:]) or featurize_sentences(*a))

        def history(mode):
            return train(pairs, lexicon, ptable, fuzzy, tconf,
                         model_overrides=dict(OVER, lattice_mode=mode))[1]

        ttm, desm = history("ttm"), history("desm")
        assert calls == [(sources, OVER["m_max"], "ttm"), (sources, OVER["m_max"], "desm")]
        assert ttm != desm

    def test_seed_changes_run(self, tiny_world):
        ptable, fuzzy, lexicon, pairs = tiny_world
        h1 = train(pairs, lexicon, ptable, fuzzy,
                   TrainConfig(lr=1e-3, batch_size=4, epochs=2, seed=0),
                   model_overrides=OVER)[1]
        h2 = train(pairs, lexicon, ptable, fuzzy,
                   TrainConfig(lr=1e-3, batch_size=4, epochs=2, seed=1),
                   model_overrides=OVER)[1]
        assert h1 != h2

    def test_seed_draws_the_init(self, tiny_world, monkeypatch):
        ptable, fuzzy, lexicon, pairs = tiny_world
        seeds = []
        monkeypatch.setattr(training, "init_params", lambda cfg, chars, seed:
                            seeds.append(seed) or init_params(cfg, chars, seed))
        train(pairs, lexicon, ptable, fuzzy, TrainConfig(epochs=1, seed=5),
              model_overrides=OVER)
        assert seeds == [5]

    def test_target_loss_stops_early(self, tiny_world):
        ptable, fuzzy, lexicon, pairs = tiny_world
        tconf = TrainConfig(lr=1e-3, batch_size=4, epochs=50, target_loss=100.0)
        _, history = train(pairs, lexicon, ptable, fuzzy, tconf, model_overrides=OVER)
        assert len(history) == 1  # any real loss is under the silly target

    def test_overfits_small_corpus(self, tiny_world):
        # ten pairs, generous epochs: loss collapses and the model reproduces
        # every target, including the planted errors
        ptable, fuzzy, lexicon, _ = tiny_world
        pairs = generate_synthetic(
            lexicon, ptable, fuzzy, 10, (4, 6), NoiseSpec(error_rate=0.3, seed=7))
        tconf = TrainConfig(lr=3e-3, batch_size=10, epochs=300, seed=0,
                            target_loss=0.01)
        over = dict(d_c=16, d_w=8, layers=1, heads=2, ffn_dim=32, gate_dim=8,
                    m_max=4, max_len=16)
        params, history = train(pairs, lexicon, ptable, fuzzy, tconf,
                                model_overrides=over)
        assert history[-1] < 0.01
        from hanfix.desm import featurize_sentences
        feats = featurize_sentences([p.source for p in pairs], lexicon, ptable,
                                    fuzzy, over["m_max"], "desm")
        fixed = correct_many(params, [p.source for p in pairs], feats)
        assert fixed == [p.target for p in pairs]


# Loss histories of a seeded 2-epoch run, recorded before the training step's
# kernels were rewritten (cube by multiplication, 2-D matmul contractions,
# bincount scatter-adds).  A later speed-up that changes the math fails here.
# The high learning rate drives activations to O(1), where GELU's cubic term
# matters: moving its 0.044715 to 0.0447 shifts these losses by ~4e-4.
PINNED_HISTORIES = [
    (dict(layers=2), [1.039337324571409, 0.9055475392396305]),
    (dict(layers=1, use_copy=False), [4.494083289039072, 3.263438670763783]),
]


@pytest.mark.parametrize("over,pinned", PINNED_HISTORIES, ids=["gelu-2layer", "no-copy"])
def test_loss_history_is_pinned(over, pinned):
    bench = make_toy_benchmark(n_words=60, n_train=48, n_test=1, seed=2)
    model = dict(d_c=8, d_w=4, heads=2, ffn_dim=16, gate_dim=4, m_max=4, max_len=16, **over)
    _, history = train(bench.train_pairs, bench.lexicon, bench.ptable, bench.fuzzy,
                       TrainConfig(lr=0.1, batch_size=8, epochs=2, seed=1),
                       model_overrides=model)
    np.testing.assert_allclose(history, pinned, rtol=1e-8, atol=0)
