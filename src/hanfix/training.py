"""Training loop: vocabulary building, Adam, seeded epochs.

train featurizes its sources once, at its own ModelConfig's lattice_mode
and m_max (features depend on the lexicon and those two settings, not on
the weights), so each training step is pure numpy and no caller can hand
a model features of another mode or width.  Both settings travel in the
checkpoint, where `correct` and `evaluate` read them.
TrainConfig.seed draws the initial tensors and seeds the RNG that shuffles,
so two runs with the same configs produce byte-identical parameters.

Adam keeps the parameters and its moments in flat buffers and updates them
with one pass of each operation per step; the model's tensors become views
of the parameter buffer.  The backward kernels (hanfix.model, hanfix.encoder)
run each expression's operations in place on arrays they have spent, so a
step allocates and frees less; both keep every bit of the per-tensor and
per-operator forms they replaced.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .desm import WORD_ID_OFFSET, featurize_sentences
from .errors import SequenceTooLong
from .model import (
    CHAR_ID_OFFSET,
    ModelConfig,
    ModelParams,
    assemble_batch,
    check_fields,
    check_finite,
    init_params,
    loss_and_grads,
)

logger = logging.getLogger("hanfix.training")


def build_char_vocab(texts) -> tuple[str, ...]:
    """Sorted unique characters over all texts; model ids start at 2."""
    return tuple(sorted({c for t in texts for c in t}))


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    target_loss: float = 0.0  # >0: stop once epoch mean loss drops below

    def __post_init__(self):
        check_fields(self, {"batch_size": 1, "epochs": 1, "seed": 0}, {})
        if self.lr <= 0:
            raise ValueError(f"TrainConfig.lr must be positive, got {self.lr!r}")


# ModelConfig fields a training config file may set; vocab sizes are always
# derived from the data and lexicon.
_MODEL_KEYS = {
    f.name
    for f in fields(ModelConfig)
    if f.name not in ("char_vocab_size", "word_vocab_size")
}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}


def split_config(d: dict) -> tuple[dict, TrainConfig]:
    """Split a flat key-value config (the JSON file format) into model
    overrides and a TrainConfig; each key belongs to one side.  Unknown keys
    are hard errors."""
    model: dict = {}
    train: dict = {}
    for k, v in d.items():
        if k in _MODEL_KEYS:
            model[k] = v
        elif k in _TRAIN_KEYS:
            train[k] = v
        else:
            raise ValueError(f"unknown config key {k!r}")
    return model, TrainConfig(**train)


def _flat(tensors, buf: np.ndarray) -> dict[str, np.ndarray]:
    """Views of `buf` shaped like each of `tensors`, laid end to end in the
    dict's order."""
    views, at = {}, 0
    for k, v in tensors.items():
        views[k] = buf[at : at + v.size].reshape(v.shape)
        at += v.size
    return views


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over one flat float64 buffer.

    The constructor copies the tensors into a flat parameter buffer and
    rebinds each entry of the dict it is given to a view of it; m and v are
    dicts of views of their own flat buffers, keyed like the tensors.  A step
    concatenates the grads in tensor order and runs each operation of the
    per-tensor update once over the whole buffer, in the same order, so the
    parameters equal those of a per-tensor loop bit for bit.  The grads must
    be keyed and shaped exactly like the tensors.
    """

    def __init__(self, tensors, lr: float):
        self.lr = lr
        self.t = 0
        self._shapes = {k: np.shape(v) for k, v in tensors.items()}
        self._p = np.concatenate([np.ravel(v) for v in tensors.values()]).astype(
            np.float64, copy=False)
        self._m, self._v = np.zeros_like(self._p), np.zeros_like(self._p)
        self._scratch = np.empty_like(self._p)
        tensors.update(_flat(tensors, self._p))
        self.m, self.v = _flat(tensors, self._m), _flat(tensors, self._v)

    def step(self, tensors, grads) -> None:
        """One update of the parameter buffer, which `tensors` (the dict
        given to the constructor) views.  ValueError, before any update, when
        the grads' keys or shapes differ from the tensors' or a tensor is not
        a view of the buffer."""
        if grads.keys() != self._shapes.keys():
            raise ValueError(f"grads keys differ from the tensors': missing "
                             f"{sorted(self._shapes.keys() - grads.keys())}, extra "
                             f"{sorted(grads.keys() - self._shapes.keys())}")
        bad = [k for k, s in self._shapes.items()
               if np.shape(grads[k]) != s or tensors[k].base is not self._p]
        if bad:
            raise ValueError(f"grads shaped unlike their tensors, or tensors that are "
                             f"not views of this optimizer's parameters: {bad}")
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        g = np.concatenate([np.ravel(grads[k]) for k in self._shapes])
        m, v, s = self._m, self._v, self._scratch
        # the per-tensor update, one operation at a time:
        #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) (g g)
        #   p -= lr (m / c1) / (sqrt(v / c2) + eps)
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=s)
        v *= BETA2
        np.multiply(g, g, out=g)
        v += np.multiply(1.0 - BETA2, g, out=g)
        np.multiply(self.lr, np.divide(m, c1, out=s), out=s)
        np.sqrt(np.divide(v, c2, out=g), out=g)
        g += EPS
        self._p -= np.divide(s, g, out=s)


def train(
    pairs,
    lexicon,
    ptable,
    fuzzy,
    tconf: TrainConfig | None = None,
    model_overrides: dict | None = None,
    log=None,
) -> tuple[ModelParams, list[float]]:
    """Train a fresh model on ParallelPairs; returns (params, loss history).

    The character vocabulary is build_char_vocab over the pairs' sources
    and targets, and the sources' candidate features are always made at the
    model's own m_max and lattice_mode.  log, when given, receives one line
    per epoch.  Raises SequenceTooLong, before any featurization, when a
    source exceeds the model's max_len.
    """
    if not pairs:
        raise ValueError("empty training corpus")
    tconf = tconf or TrainConfig()
    chars = build_char_vocab([p.source for p in pairs] + [p.target for p in pairs])
    cfg = ModelConfig(
        char_vocab_size=len(chars) + CHAR_ID_OFFSET,
        word_vocab_size=len(lexicon) + WORD_ID_OFFSET,
        **(model_overrides or {}),
    )
    longest = max(len(p.source) for p in pairs)
    if longest > cfg.max_len:
        raise SequenceTooLong(longest, cfg.max_len)
    params = init_params(cfg, chars, tconf.seed)
    feats = featurize_sentences(
        [p.source for p in pairs], lexicon, ptable, fuzzy, cfg.m_max, cfg.lattice_mode,
    )
    items = [
        (params.char_to_ids(p.source), params.char_to_ids(p.target),
         feats[i][0], feats[i][1])
        for i, p in enumerate(pairs)
    ]
    opt = Adam(params.tensors, lr=tconf.lr)
    rng = np.random.default_rng(tconf.seed)
    history: list[float] = []
    for epoch in range(tconf.epochs):
        order = rng.permutation(len(items))
        nll_sum = 0.0
        pos_sum = 0.0
        for start in range(0, len(items), tconf.batch_size):
            sel = order[start : start + tconf.batch_size]
            batch = assemble_batch([items[int(k)] for k in sel])
            loss, grads = loss_and_grads(params, batch)
            opt.step(params.tensors, grads)
            npos = float(batch.char_mask.sum())
            nll_sum += loss * npos
            pos_sum += npos
        mean = nll_sum / max(pos_sum, 1.0)
        history.append(mean)
        check_finite(params)
        line = f"epoch {epoch + 1}/{tconf.epochs}: loss {mean:.6f}"
        if log:
            log(line)
        else:
            logger.info("%s", line)
        if tconf.target_loss > 0.0 and mean < tconf.target_loss:
            break
    return params, history
