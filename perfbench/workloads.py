"""Workload inputs and one measured pass over them.

Every workload runs the same pipeline, in the order a user meets it:

  train  -- ``training.train`` at the test_06 model config, featurization
            included (the fixture model of the correct_* workloads is trained
            here too, before set-up, because set-up loads its checkpoint);
  setup  -- load the pinyin and fuzzy tables from files, ``lexicon_from_words``,
            ``Lexicon.save`` then ``Lexicon.load``, and ``load_checkpoint`` when
            a fixture exists; repeated, the median is ``setup_s``;
  batch  -- ``featurize_sentences`` + ``correct_many`` on chunks of 64;
  live   -- a closed loop with one caller: one sentence per
            ``featurize_sentences`` + ``correct_many`` call, no think time;
  score  -- ``evaluation.score`` on the batch predictions.

Workloads differ in how much of each phase they do, so each one stresses a
different layer (see ``plan``).  All inputs come from hanfix's own toy
generators and depend only on the seed.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hanfix.desm as desm
import hanfix.evaluation as evaluation
import hanfix.lexicon as lexicon
import hanfix.model as model
import hanfix.training as training
from hanfix.corpus import (
    NoiseSpec,
    generate_synthetic,
    make_toy_benchmark,
    make_toy_inventory,
    make_toy_words,
)
from hanfix.pinyin import FuzzyClassTable, PinyinTable

from checks import lattice_problems, output_problems

# the model and optimizer of acceptance test_06
MODEL = dict(d_c=16, d_w=16, layers=1, heads=2, ffn_dim=32, gate_dim=16,
             m_max=8, max_len=64, gate_bias_init=0.0)
LR = 2e-3
BATCH = 64

SETUP_REPEATS = 9
LIVE_REQUESTS = 1000  # p99 then has 10 samples beyond it
LIVE_SLICE = 32  # live requests between two speed probes
NLL_SENTENCES = 512
ORACLE_SENTENCES = 32

_perf = time.perf_counter

# ------------------------------------------------------------ machine speed
# The CPU speed of a shared sandbox drifts by up to ~1.9x over seconds to
# minutes as other tenants come and go, which swamps run-to-run comparisons.
# So a fixed probe runs between measured slices (at most ~0.1 s, or one
# training epoch), and each measured time is multiplied by the probe's
# nominal time over its current time, averaged over the probes before and
# after the slice: reported times read as times at one nominal machine speed.
# Interpreter-bound and array-bound code slow down by different factors
# (~1.9x and ~1.5x here), so correction and set-up are scaled by a probe of
# dict work plus tiny numpy ops, and training by a probe of numpy ops on
# arrays of a training batch's size.  The probes never run hanfix code, so a
# slower program still reads slower.  Raw times go to the result file too.
_RNG = np.random.default_rng(0)
_SMALL = _RNG.normal(size=(32, 32))
_BATCH_X = _RNG.normal(size=(BATCH, 12, 32))
_BATCH_W = _RNG.normal(size=(32, 64))


def _interpreter_probe():
    d = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0) + i
    x = _SMALL
    for _ in range(10):
        x = np.tanh(x @ _SMALL * 0.1)


def _array_probe():
    h = np.tanh(_BATCH_X @ _BATCH_W)
    y = h @ _BATCH_W.T
    z = np.exp(-np.abs(y))
    z /= z.sum(axis=-1, keepdims=True)


# probe -> its best-of-3 time in ms inside a benchmark run on an unloaded
# 2-core x86 sandbox
PROBE_NOMINAL_MS = {_interpreter_probe: 0.25, _array_probe: 0.45}


def speed_scale(probe=_interpreter_probe, readings: int = 1) -> float:
    """Nominal over measured probe time, the median of `readings` best-of-3
    timings; more readings cover a longer stretch, for slices of seconds."""
    times = []
    for _ in range(readings):
        best = math.inf
        for _ in range(3):
            t0 = _perf()
            probe()
            best = min(best, _perf() - t0)
        times.append(best * 1e3)
    return PROBE_NOMINAL_MS[probe] / statistics.median(times)


@dataclass
class Inputs:
    seed: int
    inventory: list          # (char, toneless reading)
    words: list              # (surface, frequency)
    train_pairs: list
    epochs: int
    heldout: list            # pairs scored by heldout_nll
    batch: list              # pairs corrected 64 at a time
    live: list               # pairs corrected one per call
    fixture: tuple | None    # (lexicon, ptable, fuzzy) to train before set-up


def _unique_sources(pairs, exclude=()):
    seen = set(exclude)
    out = []
    for p in pairs:
        if p.source not in seen:
            seen.add(p.source)
            out.append(p)
    return out


def _cycle(pairs, n):
    return [pairs[k % len(pairs)] for k in range(n)]


def plan(workload: str, seed: int, seconds: float, tiny: bool) -> Inputs:
    """Generate a workload's inputs.  Sizes are set for a 10 s run on one
    core of a 2-core x86 box and scale with ``seconds``; ``tiny`` shrinks
    everything for the smoke test."""
    scale = seconds / 10.0
    fuzzy = FuzzyClassTable.default()
    inventory = make_toy_inventory(fuzzy=fuzzy)
    live_n = 16 if tiny else LIVE_REQUESTS

    if workload == "train":
        # model-heavy: make_toy_benchmark defaults; featurization runs once
        bench = make_toy_benchmark(n_train=200 if tiny else 5000,
                                   n_test=32 if tiny else 500, seed=seed)
        held = list(bench.test_pairs)
        return Inputs(
            seed, inventory,
            words=[(e.surface, e.frequency) for e in bench.lexicon.entries],
            train_pairs=list(bench.train_pairs),
            epochs=1 if tiny else max(1, round(4 * scale)),
            heldout=held, batch=held * (1 if tiny else 4), live=_cycle(held, 2 * live_n),
            fixture=None,
        )

    if workload == "correct_batch":
        # lattice-heavy: up to 16 words per fuzzy 2-gram bucket, so candidate
        # lists overflow m_max=8; long unique inputs at a 30% error rate
        ptable = PinyinTable.from_pairs(inventory)
        s_words, s_fix, s_in = (int(s) for s in np.random.SeedSequence(seed).generate_state(3))
        words = make_toy_words(inventory, n_words=2000, word_len=2, seed=s_words,
                               fuzzy=fuzzy, bucket_cap=16)
        lex = lexicon.lexicon_from_words(words, ptable, fuzzy)

        def corpus(n, noise_seed):
            return generate_synthetic(lex, ptable, fuzzy, n, (24, 60),
                                      NoiseSpec(0.3, 0.5, seed=noise_seed), filler_rate=0.2)

        fixture = corpus(24 if tiny else 160, s_fix)
        n = 24 if tiny else max(BATCH, round(1800 * scale))
        batch = _unique_sources(corpus(n, s_in), exclude={p.source for p in fixture})
        return Inputs(
            seed, inventory, words, train_pairs=fixture, epochs=1 if tiny else 4,
            heldout=batch[:NLL_SENTENCES], batch=batch, live=_cycle(batch, 3 * live_n // 2),
            fixture=(lex, ptable, fuzzy),
        )

    if workload == "correct_interactive":
        # short utterances in the default toy world, one per call
        n = 64 if tiny else max(LIVE_REQUESTS, round(11000 * scale))
        bench = make_toy_benchmark(n_train=64 if tiny else 800, n_test=n, seed=seed)
        live = list(bench.test_pairs)
        return Inputs(
            seed, inventory,
            words=[(e.surface, e.frequency) for e in bench.lexicon.entries],
            train_pairs=list(bench.train_pairs), epochs=1 if tiny else 4,
            heldout=live[:NLL_SENTENCES], batch=live[:2000], live=live,
            fixture=(bench.lexicon, bench.ptable, bench.fuzzy),
        )

    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Files:
    pinyin: Path
    fuzzy: Path
    lexicon: Path
    checkpoint: Path


def write_files(inp: Inputs, work: Path) -> Files:
    files = Files(work / "pinyin.tsv", work / "fuzzy.txt", work / "words.lexicon",
                  work / "model.ckpt")
    files.pinyin.write_text("".join(f"{c}\t{r}\n" for c, r in inp.inventory), encoding="utf-8")
    files.fuzzy.write_text(
        "".join(" ".join(cls) + "\n" for cls in FuzzyClassTable.DEFAULT_CLASSES),
        encoding="utf-8")
    return files


# ------------------------------------------------------------------ one pass


@dataclass
class PassResult:
    scales: list = field(default_factory=list)  # speed_scale() readings in time order
    # timings are (raw, index of the scale reading taken just before)
    setup_s: list = field(default_factory=list)
    batch_s: list = field(default_factory=list)  # per call of up to 64 sentences
    batch_sizes: list = field(default_factory=list)
    live_ms: list = field(default_factory=list)
    train_s: tuple = (0.0, 0.0)  # (raw, scaled)
    sentence_epochs: int = 0
    heldout_nll: float = math.nan
    det_f1: float = 0.0
    corr_f1: float = 0.0
    phase_ns: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed: {problems[:3]}", file=sys.stderr)

    def probe(self) -> int:
        self.scales.append(speed_scale())
        return len(self.scales) - 1

    def scaled(self, raw: float, i: int) -> float:
        after = self.scales[i + 1] if i + 1 < len(self.scales) else self.scales[i]
        return raw * (self.scales[i] + after) / 2

    def measured_ns(self) -> int:
        return sum(self.phase_ns.get(p, 0) for p in ("train", "batch", "live"))

    def scaled_measured_s(self) -> float:
        """Training, batch and live time at nominal machine speed."""
        return (self.train_s[1] + sum(self.scaled(*x) for x in self.batch_s)
                + sum(self.scaled(*x) for x in self.live_ms) / 1e3)


def _train(inp: Inputs, lex, ptable, fuzzy, res: PassResult):
    tconf = training.TrainConfig(lr=LR, batch_size=BATCH, epochs=inp.epochs, seed=inp.seed)
    marks = []  # (probe start, probe end, scale) before training and after each epoch

    def mark(_line=None):
        t = _perf()
        scale = speed_scale(_array_probe, readings=16)
        marks.append((t, _perf(), scale))

    mark()
    params, history = training.train(inp.train_pairs, lex, ptable, fuzzy, tconf, dict(MODEL),
                                      log=mark)
    end = _perf()
    raw = scaled = 0.0
    for (_, start, s0), (stop, _, s1) in zip(marks, marks[1:] + [(end, end, marks[-1][2])]):
        raw += stop - start
        scaled += (stop - start) * (s0 + s1) / 2
    res.train_s = (raw, scaled)
    res.sentence_epochs = len(inp.train_pairs) * len(history)
    res.record([] if all(math.isfinite(h) for h in history) else [f"loss {history}"])
    return params


def _setup(files: Files, words, with_checkpoint: bool):
    ptable = PinyinTable.from_file(files.pinyin)
    fuzzy = FuzzyClassTable.from_file(files.fuzzy)
    lexicon.lexicon_from_words(words, ptable, fuzzy).save(files.lexicon)
    lex = lexicon.Lexicon.load(files.lexicon)
    params = model.load_checkpoint(files.checkpoint) if with_checkpoint else None
    return lex, ptable, fuzzy, params


def _correct(params, sentences, lex, ptable, fuzzy):
    feats = desm.featurize_sentences(sentences, lex, ptable, fuzzy, params.config.m_max)
    return model.correct_many(params, sentences, feats, batch_size=BATCH)


def _heldout_nll(params, pairs, lex, ptable, fuzzy) -> float:
    total = count = 0.0
    for lo in range(0, len(pairs), BATCH):
        chunk = pairs[lo:lo + BATCH]
        feats = desm.featurize_sentences([p.source for p in chunk], lex, ptable, fuzzy,
                                         params.config.m_max)
        batch = model.assemble_batch([
            (params.char_to_ids(p.source), params.char_to_ids(p.target), w, m)
            for p, (w, m) in zip(chunk, feats)
        ])
        out, _ = model.forward_batch(params, batch)
        n = float(batch.char_mask.sum())
        total += model.nll_loss(out.p_out, batch.gold_ids, batch.char_mask) * n
        count += n
    return total / count


def run_pass(inp: Inputs, files: Files, tracer=None) -> PassResult:
    """All phases of one workload.  With a tracer installed, each phase is
    tagged so that per-layer metrics can be read per phase."""
    res = PassResult()

    @contextmanager
    def phase(name):
        if tracer is not None:
            tracer.phase = name
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            res.phase_ns[name] = res.phase_ns.get(name, 0) + time.perf_counter_ns() - t0

    if inp.fixture is not None:
        with phase("train"):
            params = _train(inp, *inp.fixture, res)
        with phase("checkpoint"):
            model.save_checkpoint(params, files.checkpoint)
    with phase("setup"):
        for _ in range(SETUP_REPEATS):
            mark = res.probe()
            t0 = _perf()
            lex, ptable, fuzzy, loaded = _setup(files, inp.words, inp.fixture is not None)
            res.setup_s.append((_perf() - t0, mark))
        res.probe()
    if inp.fixture is not None:
        params = loaded
    else:
        with phase("train"):
            params = _train(inp, lex, ptable, fuzzy, res)
        with phase("checkpoint"):
            model.save_checkpoint(params, files.checkpoint)
            params = model.load_checkpoint(files.checkpoint)

    # batch chunks and slices of live requests alternate, so that both see
    # the same stretch of machine speed across the run
    chunks = [inp.batch[lo:lo + BATCH] for lo in range(0, len(inp.batch), BATCH)]
    slices = [range(lo, min(lo + LIVE_SLICE, len(inp.live)))
              for lo in range(0, len(inp.live), LIVE_SLICE)]
    preds = []
    for k, chunk in enumerate(chunks):
        mark = res.probe()
        with phase("batch"):
            sources = [p.source for p in chunk]
            if tracer is not None:
                tracer.request = k
            t0 = _perf()
            try:
                out = _correct(params, sources, lex, ptable, fuzzy)
            except Exception:
                traceback.print_exc()
                out = [None] * len(sources)
            res.batch_s.append((_perf() - t0, mark))
            res.batch_sizes.append(len(sources))
            for s, o in zip(sources, out):
                res.record(output_problems(s, o))
            preds.extend(out)
        for live_slice in slices[k * len(slices) // len(chunks):
                                 (k + 1) * len(slices) // len(chunks)]:
            mark = res.probe()
            with phase("live"):
                for i in live_slice:
                    p = inp.live[i]
                    if tracer is not None:
                        tracer.request = i
                    t0 = _perf()
                    try:
                        out = _correct(params, [p.source], lex, ptable, fuzzy)[0]
                    except Exception:
                        traceback.print_exc()
                        out = None
                    res.live_ms.append(((_perf() - t0) * 1e3, mark))
                    res.record(output_problems(p.source, out))
    res.probe()

    with phase("score"):
        report = evaluation.score([(p.source, p.target, o)
                                   for p, o in zip(inp.batch, preds) if o is not None])
    res.det_f1, res.corr_f1 = report.detection[2], report.correction[2]

    with phase("nll"):
        res.heldout_nll = _heldout_nll(params, inp.heldout, lex, ptable, fuzzy)
    res.record([] if math.isfinite(res.heldout_nll) else [f"heldout nll {res.heldout_nll}"])

    with phase("oracle"):
        rng = np.random.default_rng(inp.seed)
        pool = sorted({p.source for p in inp.batch + inp.live + inp.train_pairs})
        surfaces = [e.surface for e in lex.entries]
        m_max = params.config.m_max
        for i in rng.choice(len(pool), size=min(ORACLE_SENTENCES, len(pool)), replace=False):
            lat = desm.build_lattice(lex, ptable, fuzzy, pool[int(i)], m_max=m_max)
            res.record(lattice_problems(lat, surfaces, m_max, params.config.word_vocab_size))
    return res


def e2e_metrics(res: PassResult, peak_rss_mb: float, scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics; with scaled=False, the raw times instead."""
    def t(sample):
        return res.scaled(*sample) if scaled else sample[0]

    q = statistics.quantiles([t(x) for x in res.live_ms], n=100)
    # median over full chunks of 64; a short last chunk is not comparable
    full = BATCH if BATCH in res.batch_sizes else max(res.batch_sizes)
    rates = [n / t(x) for n, x in zip(res.batch_sizes, res.batch_s) if n == full]
    return {
        "setup_s": statistics.median(t(x) for x in res.setup_s),
        "train_sents_per_s": res.sentence_epochs / res.train_s[1 if scaled else 0],
        "heldout_nll": res.heldout_nll,
        "correct_sents_per_s": statistics.median(rates),
        "latency_p50_ms": q[49],
        "latency_p99_ms": q[98],
        "peak_rss_mb": peak_rss_mb,
    }
