"""Acceptance gate: every shipping criterion, one test each, in order.

These are end-to-end checks at pinned tolerances; the per-module suites
cover the fine-grained behavior.  Some take tens of seconds (the ablation
several minutes), so this module is the slow tail of the test run.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from hanfix import data as bundled
from hanfix.cli import main
from hanfix.corpus import (
    NoiseSpec,
    generate_synthetic,
    make_toy_benchmark,
    make_toy_inventory,
    make_toy_words,
)
from hanfix.desm import (
    WORD_ID_OFFSET,
    WORD_PAD_ID,
    build_lattice,
    featurize_sentences,
    lattice_to_feature_ids,
)
from hanfix.evaluation import DEFAULT_VARIANTS, run_ablation, score
from hanfix.lexicon import build_lexicon, lexicon_from_words
from hanfix.model import (
    Batch,
    ModelConfig,
    correct_many,
    forward_batch,
    init_params,
    loss_and_grads,
)
from hanfix.pinyin import FuzzyClassTable, PinyinTable, fuzzy_key
from hanfix.training import TrainConfig, train

RNG = np.random.default_rng(20240817)


# ---------------------------------------------------------------- references


def reference_matches(entries, sentence):
    """Spans by direct string comparison against every entry."""
    out = []
    for start in range(len(sentence)):
        for e in entries:
            if sentence.startswith(e.surface, start):
                out.append((start, start + len(e.surface) - 1, e.word_id))
    out.sort()
    return out


_PROV = {"EXACT": 0, "PINYIN_EXACT": 1, "PINYIN_FUZZY": 2}
_DIR = {"NONE": 0, "FORWARD": 1, "BACKWARD": 2}


def reference_lattice(lex, ptable, fuzzy, sentence, m_max):
    """Candidate lists built without the trie or the 2-gram index."""
    n = len(sentence)
    entries = lex.entries
    raw: list[set] = [set() for _ in range(n)]
    matches = reference_matches(entries, sentence)
    covered = [False] * n
    for s, e, wid in matches:
        for i in range(s, e + 1):
            raw[i].add((wid, (s, e), "EXACT", "NONE"))
            if e > s:
                covered[i] = True
    suspects = [not c for c in covered]

    def keyset(readings):
        return frozenset(fuzzy_key(r, fuzzy) for r in readings)

    two_char = [
        (e.word_id, keyset(e.readings[0]), keyset(e.readings[1]),
         set(e.readings[0]), set(e.readings[1]))
        for e in entries
        if len(e.surface) == 2
    ]
    sent_readings = [ptable.get(ch) for ch in sentence]
    sent_keys = [keyset(r) for r in sent_readings]

    def probe(lo, hi, direction):
        if not sent_readings[lo] or not sent_readings[hi]:
            return
        for wid, ka, kb, ra, rb in two_char:
            if (sent_keys[lo] & ka) and (sent_keys[hi] & kb):
                exact = bool(set(sent_readings[lo]) & ra) and bool(
                    set(sent_readings[hi]) & rb
                )
                prov = "PINYIN_EXACT" if exact else "PINYIN_FUZZY"
                raw[lo].add((wid, (lo, hi), prov, direction))
                raw[hi].add((wid, (lo, hi), prov, direction))

    for i in range(n):
        if not suspects[i]:
            continue
        if i + 1 < n:
            probe(i, i + 1, "FORWARD")
        if i - 1 >= 0:
            probe(i - 1, i, "BACKWARD")

    ranked = []
    for cands in raw:
        order = sorted(
            cands,
            key=lambda t: (_PROV[t[2]], -entries[t[0]].frequency, t[0],
                           _DIR[t[3]], t[1]),
        )
        seen: set[int] = set()
        best = []
        for t in order:
            if t[0] in seen:
                continue
            seen.add(t[0])
            best.append(t)
            if len(best) == m_max:
                break
        ranked.append(best)
    return ranked, suspects


def random_matching_world(rng, inv, syllables):
    chars = [c for c, _ in inv]
    pairs = list(inv)
    for _ in range(10):  # sprinkle polyphones
        pairs.append((chars[int(rng.integers(len(chars)))],
                      syllables[int(rng.integers(len(syllables)))]))
    ptable = PinyinTable.from_pairs(pairs)
    fuzzy = FuzzyClassTable.default()
    n_words = int(rng.integers(5, 201))
    words = []
    for _ in range(n_words):
        length = int(rng.choice([1, 2, 3, 4], p=[0.15, 0.6, 0.15, 0.1]))
        surface = "".join(
            chars[int(rng.integers(len(chars)))] for _ in range(length))
        words.append((surface, int(rng.integers(1, 50))))
    lex = lexicon_from_words(words, ptable, fuzzy)
    return lex, ptable, fuzzy, chars


def random_matching_sentence(rng, lex, chars, max_len=30):
    target = int(rng.integers(0, max_len + 1))
    parts: list[str] = []
    total = 0
    while total < target:
        roll = rng.random()
        if roll < 0.5:
            piece = lex.entries[int(rng.integers(len(lex.entries)))].surface
        elif roll < 0.9:
            piece = "".join(chars[int(rng.integers(len(chars)))]
                            for _ in range(int(rng.integers(1, 3))))
        else:
            piece = "?Z"[int(rng.integers(2))]  # characters with no reading
        parts.append(piece)
        total += len(piece)
    return "".join(parts)[:max_len]


def test_01_matching_equals_reference_on_random_instances():
    t0 = time.monotonic()
    inv = make_toy_inventory(homophones=2)
    syllables = sorted({r for _, r in inv})
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(25):
        lex, ptable, fuzzy, chars = random_matching_world(rng, inv, syllables)
        for _ in range(40):
            sentence = random_matching_sentence(rng, lex, chars)
            m_max = int(rng.integers(1, 7))
            assert lex.trie_match_all(sentence) == reference_matches(
                lex.entries, sentence)
            lat = build_lattice(lex, ptable, fuzzy, sentence, m_max=m_max)
            got = [
                [(c.word_id, c.span, c.provenance.value, c.direction.value)
                 for c in cands]
                for cands in lat.per_char
            ]
            want, suspects = reference_lattice(lex, ptable, fuzzy, sentence, m_max)
            assert got == want, sentence
            assert lat.suspect == suspects, sentence
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 1000
    assert elapsed < 60.0, f"matching reference sweep took {elapsed:.1f}s"
    print(f"PASS 1: 1000 random matching instances equal reference ({elapsed:.1f}s)")


def test_01b_matching_equals_reference_in_a_dense_world():
    # fuzzy buckets of up to 16 words overflow every m_max here, so most
    # lists are truncated and ties in the ranking decide what survives
    t0 = time.monotonic()
    fuzzy = FuzzyClassTable.default()
    inv = make_toy_inventory(fuzzy=fuzzy)
    ptable = PinyinTable.from_pairs(inv)
    words = make_toy_words(inv, n_words=2000, word_len=2, seed=7, fuzzy=fuzzy,
                           bucket_cap=16)
    lex = lexicon_from_words(words, ptable, fuzzy)
    pairs = generate_synthetic(lex, ptable, fuzzy, 12, (24, 60),
                               NoiseSpec(0.3, 0.5, seed=8), filler_rate=0.2)
    full = total = 0
    for m_max in (1, 3, 8):
        for pair in pairs:
            lat = build_lattice(lex, ptable, fuzzy, pair.source, m_max=m_max)
            ids, mask = lattice_to_feature_ids(lat)
            got = [
                [(c.word_id, c.span, c.provenance.value, c.direction.value)
                 for c in cands]
                for cands in lat.per_char
            ]
            want, suspects = reference_lattice(lex, ptable, fuzzy, pair.source, m_max)
            assert got == want, (pair.source, m_max)
            assert lat.suspect == suspects, pair.source
            assert ids.tolist() == [
                [c.word_id + WORD_ID_OFFSET for c in cands]
                + [WORD_PAD_ID] * (m_max - len(cands))
                for cands in lat.per_char
            ], (pair.source, m_max)
            assert mask.tolist() == (ids >= WORD_ID_OFFSET).tolist()
            full += sum(len(cands) == m_max for cands in got)
            total += len(got)
    assert full > total / 2
    elapsed = time.monotonic() - t0
    print(f"PASS 1b: {len(pairs)} dense-world sentences x 3 m_max equal reference "
          f"({elapsed:.1f}s, {full / total:.0%} of lists full)")


def test_02_running_example_canjia():
    ptable = PinyinTable.from_file(bundled.demo_pinyin_path())
    fuzzy = FuzzyClassTable.from_file(bundled.demo_fuzzy_path())
    lex = build_lexicon(bundled.demo_words_path(), ptable, fuzzy)
    lat = build_lattice(lex, ptable, fuzzy, "参家", m_max=5)
    at0 = {lex.surfaces[c.word_id] for c in lat.per_char[0]}
    at1 = {lex.surfaces[c.word_id] for c in lat.per_char[1]}
    assert "参加" in at0
    assert {"参加", "禅家"} <= at1
    print("PASS 2: 参家 -> 参加 at position 0; 参加 and 禅家 at position 1")


def test_03_fusion_and_head_laws_hold_over_10k_passes():
    rng = np.random.default_rng(303)
    passes = 0
    for _ in range(50):
        heads = int(rng.choice([1, 2]))
        d_c = int(rng.choice([4, 8, 16]))
        cfg = ModelConfig(
            char_vocab_size=int(rng.integers(5, 30)),
            word_vocab_size=int(rng.integers(3, 20)),
            d_c=d_c, d_w=int(rng.integers(2, 9)), layers=int(rng.integers(1, 3)),
            heads=heads, ffn_dim=int(rng.integers(4, 33)),
            gate_dim=int(rng.integers(2, 9)), m_max=int(rng.integers(1, 5)),
            max_len=16, use_copy=bool(rng.integers(2)),
        )
        params = init_params(cfg, [chr(0x4E00 + i) for i in range(cfg.char_vocab_size - 2)])
        scale = float(rng.uniform(0.05, 0.8))
        for arr in params.tensors.values():
            arr[...] = rng.normal(0.0, scale, arr.shape)
        # w2 = 0 and b2 = 1000 saturate the copy gate: omega is exactly 1.0
        clamped = replace(params, tensors={
            **params.tensors, "gate.w2": np.zeros_like(params.tensors["gate.w2"]),
            "gate.b2": np.full_like(params.tensors["gate.b2"], 1000.0)})
        for _ in range(10):
            B, n = 20, int(rng.integers(1, 13))
            char_ids = rng.integers(2, cfg.char_vocab_size, size=(B, n))
            char_mask = np.ones((B, n))
            if n > 1:
                cut = int(rng.integers(1, n))
                char_mask[0, cut:] = 0.0
            word_ids = rng.integers(0, cfg.word_vocab_size, size=(B, n, cfg.m_max))
            word_mask = (rng.random((B, n, cfg.m_max)) < 0.5).astype(float)
            word_mask[0, 0, :] = 0.0  # guarantee a no-candidate position
            batch = Batch(char_ids, char_mask, word_ids, word_mask)
            out, _ = forward_batch(params, batch)
            assert np.allclose(out.p_out.sum(-1), 1.0, atol=1e-6)
            has_cand = word_mask.sum(-1) > 0
            assert np.allclose(out.attn.sum(-1)[has_cand], 1.0, atol=1e-6)
            assert (out.attn.sum(-1)[~has_cand] == 0.0).all()
            assert ((out.omega >= 0.0) & (out.omega <= 1.0)).all()
            assert np.array_equal(out.h_fused[~has_cand], out.h[~has_cand])
            if cfg.use_copy:
                copied, _ = forward_batch(clamped, batch)
                assert (copied.omega == 1.0).all()
                assert np.array_equal(copied.p_out.argmax(-1), char_ids)
            passes += B
    assert passes == 10_000
    print("PASS 3: fusion/head laws hold over 10,000 random forward passes")


def test_04_gradients_match_central_differences():
    t0 = time.monotonic()
    cfg = ModelConfig(char_vocab_size=20, word_vocab_size=10, d_c=8, d_w=8,
                      layers=1, heads=2, ffn_dim=16, gate_dim=8, m_max=3,
                      max_len=8)
    params = init_params(cfg, [chr(0x4E00 + i) for i in range(18)])
    rng = np.random.default_rng(404)
    # fresh init keeps several tensors near zero; finite differences need
    # every path carrying gradient well above the h^2 noise floor
    for arr in params.tensors.values():
        arr[...] = rng.normal(0.0, 0.35, arr.shape)
    n = 5
    char_ids = rng.integers(2, cfg.char_vocab_size, size=(2, n))
    char_mask = np.ones((2, n))
    char_mask[1, 3:] = 0.0
    gold = char_ids.copy()
    gold[0, 1] = 2
    gold[1, 2] = 3
    word_ids = rng.integers(0, cfg.word_vocab_size, size=(2, n, 3))
    word_mask = (rng.random((2, n, 3)) < 0.6).astype(float)
    batch = Batch(char_ids, char_mask, word_ids, word_mask, gold)
    _, grads = loss_and_grads(params, batch)

    h = 1e-5
    checked = 0
    worst = 0.0
    for name, arr in params.tensors.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grads(params, batch)
            flat[i] = orig - h
            lm, _ = loss_and_grads(params, batch)
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            rel = abs(num - gflat[i]) / max(abs(num), abs(gflat[i]), 1e-7)
            worst = max(worst, rel)
            assert rel < 1e-4, f"{name}[{i}]: rel {rel:.2e}"
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 50
    assert {"W_attn", "W_w", "E_w"} <= set(params.tensors)
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    print(f"PASS 4: {checked} sampled gradients within 1e-4 "
          f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_05_overfits_ten_pairs_within_500_steps():
    t0 = time.monotonic()
    inv = make_toy_inventory(homophones=2)
    ptable = PinyinTable.from_pairs(inv)
    fuzzy = FuzzyClassTable.default()
    from hanfix.corpus import make_toy_words

    words = make_toy_words(inv, n_words=40, seed=5)
    lex = lexicon_from_words(words, ptable, fuzzy)
    pairs = generate_synthetic(
        lex, ptable, fuzzy, 10, (4, 6), NoiseSpec(error_rate=0.3, seed=7))
    # batch_size = corpus size, so optimizer steps == epochs run
    tconf = TrainConfig(lr=3e-3, batch_size=10, epochs=500, seed=0,
                        target_loss=0.01)
    over = dict(d_c=16, d_w=8, layers=1, heads=2, ffn_dim=32, gate_dim=8,
                m_max=4, max_len=16)
    params, history = train(pairs, lex, ptable, fuzzy, tconf,
                            model_overrides=over)
    steps = len(history)
    assert steps <= 500
    assert history[-1] < 0.01
    feats = featurize_sentences([p.source for p in pairs], lex, ptable, fuzzy,
                                over["m_max"], "desm")
    fixed = correct_many(params, [p.source for p in pairs], feats)
    assert fixed == [p.target for p in pairs]
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"overfit run took {elapsed:.1f}s"
    print(f"PASS 5: loss {history[-1]:.4f} and 10/10 corrections "
          f"after {steps} steps ({elapsed:.1f}s)")


@pytest.mark.slow
def test_06_ablation_orders_the_variants():
    t0 = time.monotonic()
    bench = make_toy_benchmark(n_words=500, n_train=5000, n_test=500,
                               error_rate=0.15, seed=0,
                               fuzzy_confusion_prob=0.5, filler_rate=0.2)
    # gate_bias_init=0 gives the generator gradient from clean positions
    # from step one; with the copy-dominant default the gated variants
    # under-train at this scale and the comparison is no longer about the
    # candidate lattice
    over = dict(d_c=16, d_w=16, layers=1, heads=2, ffn_dim=32, gate_dim=16,
                m_max=8, max_len=64, gate_bias_init=0.0)
    tconf = TrainConfig(lr=2e-3, batch_size=64, epochs=20)
    rows = run_ablation(
        DEFAULT_VARIANTS, list(bench.train_pairs), list(bench.test_pairs),
        bench.lexicon, bench.ptable, bench.fuzzy,
        seeds=(0, 1, 2), tconf=tconf, model_overrides=over,
    )
    assert not any(r.error for r in rows), [r.error for r in rows]
    by_name = {r.variant.name: r for r in rows}
    det = {k: v.mean_detection[2] for k, v in by_name.items()}
    cor = {k: v.mean_correction[2] for k, v in by_name.items()}
    for f in (det, cor):
        assert f["desm+copy"] > f["ttm+copy"] > f["copy"] > f["plain"], f
    assert det["desm+copy"] - det["ttm+copy"] >= 0.01
    assert cor["desm+copy"] - cor["ttm+copy"] >= 0.01
    elapsed = time.monotonic() - t0
    assert elapsed < 1200.0, f"ablation took {elapsed:.1f}s"
    print(
        "PASS 6: detection-F "
        + " > ".join(f"{n} {det[n]:.3f}" for n in
                     ("desm+copy", "ttm+copy", "copy", "plain"))
        + "; correction-F "
        + " > ".join(f"{n} {cor[n]:.3f}" for n in
                     ("desm+copy", "ttm+copy", "copy", "plain"))
        + f" ({elapsed / 60:.1f} min)"
    )


def test_07_metrics_match_hand_scores():
    triples = [
        ("AB", "AC", "AC"),  # detected and corrected
        ("DE", "DE", "XE"),  # false alarm
        ("FG", "HG", "FG"),  # miss
    ]
    report = score(triples)
    assert report.detection == (0.5, 0.5, 0.5)
    assert report.correction[0] == 1.0
    assert report.correction[1] == 0.5
    assert abs(report.correction[2] - 0.666667) < 5e-7

    # whenever every detected true error lands on the gold character, the
    # conditioned correction precision cannot fall below detection precision
    rng = np.random.default_rng(707)
    alphabet = "abcdefg"
    for _ in range(200):
        batch = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 12))
            src = "".join(rng.choice(list(alphabet), size=n))
            gold = "".join(
                c if rng.random() > 0.3 else
                alphabet[(alphabet.index(c) + 1) % len(alphabet)]
                for c in src
            )
            pred = []
            for s, g in zip(src, gold):
                if g != s:
                    pred.append(g if rng.random() < 0.6 else s)
                else:
                    pred.append(s if rng.random() > 0.15 else
                                alphabet[(alphabet.index(s) + 2) % len(alphabet)])
            batch.append((src, gold, "".join(pred)))
        rep = score(batch)
        assert rep.correction[0] >= rep.detection[0] - 1e-12
    print("PASS 7: score() matches hand-computed P/R/F; conditioned "
          "correction precision dominates detection precision")


def test_08_every_subcommand_is_bit_deterministic(tmp_path):
    cfg = {
        "d_c": 8, "d_w": 4, "layers": 1, "heads": 2, "ffn_dim": 16,
        "gate_dim": 4, "m_max": 3, "max_len": 32,
        "lr": 0.001, "batch_size": 8, "epochs": 2, "seed": 0,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    # ablate takes its seeds from --seeds only
    ablate_cfg = tmp_path / "ablate-config.json"
    ablate_cfg.write_text(json.dumps({k: v for k, v in cfg.items() if k != "seed"}),
                          encoding="utf-8")

    def twice(name, argv_fn):
        outs = []
        for k in (0, 1):
            out = tmp_path / f"{name}.{k}"
            assert main(argv_fn(str(out))) == 0, name
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{name} output differs between runs"

    words = str(bundled.demo_words_path())
    twice("lexicon", lambda o: ["build-lexicon", "--words", words, "--out", o])
    lex = str(tmp_path / "lexicon.0")

    twice("match", lambda o: ["match", "参家", "会义", "--lexicon", lex,
                              "--format", "json", "--out", o])
    twice("gen", lambda o: ["gen-data", "--n", "20", "--seed", "5",
                            "--lexicon", lex, "--out", o])
    corpus = str(tmp_path / "gen.0")

    twice("train", lambda o: ["train", "--corpus", corpus, "--lexicon", lex,
                              "--config", str(cfg_path), "--out", o])
    ckpt = str(tmp_path / "train.0")

    twice("correct", lambda o: ["correct", "参家", "--checkpoint", ckpt,
                                "--lexicon", lex, "--out", o])
    twice("evaluate", lambda o: ["evaluate", "--checkpoint", ckpt,
                                 "--lexicon", lex, "--test", corpus,
                                 "--format", "json",
                                 "--allow-zero-denominators", "--out", o])
    twice("ablate", lambda o: ["ablate", "--train-corpus", corpus,
                               "--test-corpus", corpus, "--lexicon", lex,
                               "--config", str(ablate_cfg), "--seeds", "0",
                               "--variants", "desm+copy", "--format", "json",
                               "--out", o])
    print("PASS 8: all seven subcommands bit-reproduce their outputs")
