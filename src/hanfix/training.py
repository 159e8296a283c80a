"""Training loop: vocabulary building, Adam, seeded epochs.

Candidate-word features are precomputed once per corpus (they depend on
the lexicon and on the model's lattice_mode and m_max, not on its weights),
so each training step is pure numpy.  Both settings live in ModelConfig and
so travel in the checkpoint, where `correct` and `evaluate` read them.
TrainConfig.seed draws the initial tensors and seeds the RNG that shuffles,
so two runs with the same configs produce byte-identical parameters.
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


class Adam:
    """Adam with bias correction, state keyed like the tensor dict."""

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


def train(
    pairs,
    lexicon,
    ptable,
    fuzzy,
    tconf: TrainConfig | None = None,
    model_overrides: dict | None = None,
    chars: tuple[str, ...] | None = None,
    feats=None,
    log=None,
) -> tuple[ModelParams, list[float]]:
    """Train a fresh model on ParallelPairs; returns (params, loss history).

    chars/feats can be passed in to reuse a vocabulary or precomputed
    sentence features (the ablation harness shares features across seeds).
    log, when given, receives one line per epoch.  Raises SequenceTooLong,
    before any featurization, when a source exceeds the model's max_len.
    """
    if not pairs:
        raise ValueError("empty training corpus")
    tconf = tconf or TrainConfig()
    if chars is None:
        chars = build_char_vocab(
            [p.source for p in pairs] + [p.target for p in pairs]
        )
    cfg = ModelConfig(
        char_vocab_size=len(chars) + CHAR_ID_OFFSET,
        word_vocab_size=len(lexicon) + WORD_ID_OFFSET,
        **(model_overrides or {}),
    )
    longest = max(len(p.source) for p in pairs)
    if longest > cfg.max_len:
        raise SequenceTooLong(longest, cfg.max_len)
    params = init_params(cfg, chars, tconf.seed)
    if feats is None:
        feats = featurize_sentences(
            [p.source for p in pairs], lexicon, ptable, fuzzy,
            cfg.m_max, cfg.lattice_mode,
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
