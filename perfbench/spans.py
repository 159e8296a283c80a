"""Span recorder for the traced run, and the per-layer metrics derived from it.

The tracer wraps hanfix's public functions where they are looked up at call
time (module attributes such as ``hanfix.model.encoder_forward`` and class
attributes such as ``Lexicon.trie_match_all``), so nothing inside ``src/``
changes.  Every wrapped call pushes a frame; on return its duration is added
to the enclosing frame, so self time = duration - time covered by children.

Coarse layers are recorded as spans (name, start, end, parent span, phase,
step/request id, child time), kept in memory and written as JSON at exit.
Leaves called several times per character (2-gram probes, fuzzy keys,
reading lookups, trie scans) are only aggregated per phase; recording each
of them would cost more memory than the work they do.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

_ns = time.perf_counter_ns

# phases whose featurization feeds the per-character lattice metrics
LATTICE_PHASES = ("train", "batch", "live")


class Tracer:
    def __init__(self):
        self.phase = "none"
        self.request = 0
        self.spans: list[tuple] = []  # (id, name, start, end, parent, phase, request, child_ns)
        self.stats: dict[tuple[str, str], list[int]] = {}  # (phase, name) -> [calls, incl_ns, self_ns]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list[int]] = []  # open frames: [child_ns, span id]
        self._next_id = 0
        self._undo: list[tuple] = []

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.phase, key)] += value

    def wrap(self, name, fn, record=True, on_return=None, new_request=False):
        stack = self._stack

        def traced(*args, **kwargs):
            if new_request:
                self.request += 1
            parent = stack[-1][1] if stack else -1
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0, span_id]
            stack.append(frame)
            start = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                key = (self.phase, name)
                st = self.stats.get(key)
                if st is None:
                    st = self.stats[key] = [0, 0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if record:
                    self.spans.append((span_id, name, start, end, parent,
                                       self.phase, self.request, frame[0]))
            if on_return is not None:
                # counting is tracing overhead, not the caller's self time
                t = _ns()
                on_return(self, result, args, kwargs)
                if stack:
                    stack[-1][0] += _ns() - t
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        raw = owner.__dict__[attr]
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, **kw)))
        else:
            setattr(owner, attr, self.wrap(name, raw, **kw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------ queries

    def _stat(self, phases, name, field):
        return sum(self.stats.get((p, name), (0, 0, 0))[field] for p in phases)

    def calls(self, phases, name) -> int:
        return self._stat(phases, name, 0)

    def incl_ns(self, phases, name) -> int:
        return self._stat(phases, name, 1)

    def self_ns(self, phases, name) -> int:
        return self._stat(phases, name, 2)

    def total(self, phases, key) -> float:
        return sum(self.counts.get((p, key), 0.0) for p in phases)

    def median_span_ms(self, name, phases=None) -> float:
        durs = [s[3] - s[2] for s in self.spans
                if s[1] == name and (phases is None or s[5] in phases)]
        return statistics.median(durs) / 1e6 if durs else 0.0

    def dump(self, path, extra: dict) -> None:
        t0 = min((s[2] for s in self.spans), default=0)
        payload = {
            **extra,
            "spans": [
                {"id": i, "name": n, "start_us": (a - t0) / 1e3, "end_us": (b - t0) / 1e3,
                 "parent": p, "phase": ph, "request": r,
                 "self_us": (b - a - c) / 1e3}
                for i, n, a, b, p, ph, r, c in self.spans
            ],
            "aggregates": [
                {"phase": ph, "name": n, "calls": c, "incl_us": i / 1e3, "self_us": s / 1e3}
                for (ph, n), (c, i, s) in sorted(self.stats.items())
            ],
            "counts": {f"{ph}/{k}": v for (ph, k), v in sorted(self.counts.items())},
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)


# ------------------------------------------------------------- counters


def _count_featurize(tr, result, args, kwargs):
    sentences = args[0]
    tr.count("featurize.sentences", len(sentences))
    tr.count("featurize.chars", sum(len(s) for s in sentences))


def _count_lattice(tr, lat, args, kwargs):
    m_max = kwargs["m_max"] if "m_max" in kwargs else (args[4] if len(args) > 4 else 5)
    tr.count("lattice.sentences")
    tr.count("lattice.chars", len(lat.sentence))
    tr.count("lattice.suspects", sum(lat.suspect))
    tr.count("lattice.candidates", sum(len(c) for c in lat.per_char))
    tr.count("lattice.full_lists", sum(len(c) >= m_max for c in lat.per_char))


def _count_probe(tr, hits, args, kwargs):
    tr.count("probe.hits", 1.0 if hits else 0.0)


def _count_padding(tr, batch, args, kwargs):
    tr.count("batch.slots", batch.char_mask.size)
    tr.count("batch.real", float(batch.char_mask.sum()))


def _count_memo_miss(tr, result, args, kwargs):
    tr.count("featurize.computed")


def install(tracer: Tracer) -> None:
    """Wrap every traced hanfix function at the place its callers look it up."""
    import hanfix.desm as desm
    import hanfix.evaluation as evaluation
    import hanfix.lexicon as lexicon
    import hanfix.model as model
    import hanfix.training as training
    from hanfix.lexicon import Lexicon
    from hanfix.pinyin import FuzzyClassTable, PinyinTable

    p = tracer.patch
    # pinyin: fuzzy keys are looked up by the lexicon's 2-gram probe
    p(lexicon, "fuzzy_key", "pinyin.fuzzy_key", record=False)
    p(PinyinTable, "get", "pinyin.table_get", record=False)
    p(PinyinTable, "from_file", "pinyin.load_table")
    p(FuzzyClassTable, "from_file", "pinyin.load_fuzzy")
    # lexicon
    p(Lexicon, "trie_match_all", "lexicon.trie_match_all", record=False)
    p(Lexicon, "pinyin_2gram_lookup", "lexicon.pinyin_2gram_lookup", record=False,
      on_return=_count_probe)
    p(lexicon, "lexicon_from_words", "lexicon.build")
    p(Lexicon, "save", "lexicon.save")
    p(Lexicon, "load", "lexicon.load")
    # desm
    for site in (training, desm):
        p(site, "featurize_sentences", "desm.featurize", on_return=_count_featurize)
    p(desm, "sentence_features", "desm.sentence_features", on_return=_count_memo_miss)
    p(desm, "build_lattice", "desm.build_lattice", on_return=_count_lattice)
    p(desm, "lattice_to_feature_ids", "desm.lattice_to_feature_ids")
    # encoder, model, training
    p(model, "encoder_forward", "encoder.forward")
    p(model, "encoder_backward", "encoder.backward")
    for site in (training, model):
        p(site, "assemble_batch", "model.assemble_batch", on_return=_count_padding)
    p(training, "loss_and_grads", "model.loss_and_grads", new_request=True)
    p(model, "forward_batch", "model.forward_batch")
    p(model, "correct_many", "model.correct_many")
    p(model, "save_checkpoint", "model.save_checkpoint")
    p(model, "load_checkpoint", "model.load_checkpoint")
    p(training.Adam, "step", "training.adam_step")
    p(training, "train", "training.train")
    p(evaluation, "score", "evaluation.score")


# ------------------------------------------------------- per-layer metrics

_LATTICE_LAYERS = ("desm.", "lexicon.", "pinyin.")
_MODEL_LAYERS = ("encoder.", "model.", "training.adam_step")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_shares(tr: Tracer, wall_ns: float) -> dict[str, float]:
    """Self time of the lattice layers and of the model layers, each as a
    share of the wall time of the measured phases."""
    lattice = model = 0
    for (phase, name), (_, _, self_ns) in tr.stats.items():
        if phase not in LATTICE_PHASES:
            continue
        if name.startswith(_LATTICE_LAYERS):
            lattice += self_ns
        elif name.startswith(_MODEL_LAYERS):
            model += self_ns
    return {"lattice": _ratio(lattice, wall_ns), "model": _ratio(model, wall_ns)}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics from a traced pass (see run.py for the phases)."""
    L = LATTICE_PHASES
    chars = tr.total(L, "lattice.chars")
    probes = tr.calls(L, "lexicon.pinyin_2gram_lookup")
    steps = tr.calls(("train",), "model.loss_and_grads")

    def per_char_us(name, own=False):
        ns = tr.self_ns(L, name) if own else tr.incl_ns(L, name)
        return _ratio(ns / 1e3, chars)

    def per_step_ms(name, own=False):
        ns = tr.self_ns(("train",), name) if own else tr.incl_ns(("train",), name)
        return _ratio(ns / 1e6, steps)

    def per_call(phase, name, scale, own=False):
        ns = tr.self_ns((phase,), name) if own else tr.incl_ns((phase,), name)
        return _ratio(ns / scale, tr.calls((phase,), name))

    return {
        "desm.featurize.us_per_char": _ratio(
            tr.incl_ns(L, "desm.featurize") / 1e3, tr.total(L, "featurize.chars")),
        "desm.build_lattice.self_us_per_char": per_char_us("desm.build_lattice", own=True),
        "desm.lattice_to_feature_ids.us_per_char": per_char_us("desm.lattice_to_feature_ids"),
        "desm.suspect_rate": _ratio(tr.total(L, "lattice.suspects"), chars),
        "desm.candidates_per_char": _ratio(tr.total(L, "lattice.candidates"), chars),
        "desm.full_lists_frac": _ratio(tr.total(L, "lattice.full_lists"), chars),
        "desm.memo_hit_ratio": 1.0 - _ratio(
            tr.total(L, "featurize.computed"), tr.total(L, "featurize.sentences")),
        "lexicon.trie_match_all.calls_per_sentence": _ratio(
            tr.calls(L, "lexicon.trie_match_all"), tr.total(L, "lattice.sentences")),
        "lexicon.trie_match_all.us_per_char": per_char_us("lexicon.trie_match_all"),
        "lexicon.pinyin_2gram_lookup.calls_per_char": _ratio(probes, chars),
        "lexicon.pinyin_2gram_lookup.us_per_call": _ratio(
            tr.incl_ns(L, "lexicon.pinyin_2gram_lookup") / 1e3, probes),
        "lexicon.probe_hit_ratio": _ratio(tr.total(L, "probe.hits"), probes),
        "lexicon.build_ms": tr.median_span_ms("lexicon.build", ("setup",)),
        "lexicon.load_ms": tr.median_span_ms("lexicon.load", ("setup",)),
        "pinyin.fuzzy_key.calls_per_char": _ratio(tr.calls(L, "pinyin.fuzzy_key"), chars),
        "pinyin.fuzzy_key.self_us_per_char": per_char_us("pinyin.fuzzy_key", own=True),
        "pinyin.table_get.calls_per_char": _ratio(tr.calls(L, "pinyin.table_get"), chars),
        "encoder.forward.ms_per_step": per_step_ms("encoder.forward"),
        "encoder.backward.ms_per_step": per_step_ms("encoder.backward"),
        # fusion and head, forward and backward: everything in a training
        # step's loss_and_grads except the encoder
        "model.loss_and_grads.self_ms_per_step": (
            per_step_ms("model.loss_and_grads", own=True)
            + per_step_ms("model.forward_batch", own=True)),
        "model.forward_batch.self_ms_per_step": per_call(
            "batch", "model.forward_batch", 1e6, own=True),
        "model.correct_many.us_per_call": per_call("live", "model.correct_many", 1e3),
        "model.assemble_batch.us_per_call": per_call("live", "model.assemble_batch", 1e3),
        "model.padding_frac": 1.0 - _ratio(
            tr.total(("train",), "batch.real"), tr.total(("train",), "batch.slots")),
        "model.load_checkpoint_ms": tr.median_span_ms("model.load_checkpoint"),
        "training.adam_step.ms_per_step": per_step_ms("training.adam_step"),
        "training.featurize_frac": _ratio(
            tr.incl_ns(("train",), "desm.featurize"), tr.incl_ns(("train",), "training.train")),
        "evaluation.score_ms": per_call("score", "evaluation.score", 1e6),
    }
