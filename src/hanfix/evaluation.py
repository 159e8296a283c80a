"""Character-level detection/correction metrics and the ablation harness.

Detection asks "did the model edit exactly the positions that were wrong";
correction asks "did the edits produce the gold character".  Correction
precision is conditioned on true detections (hits / correctly-detected
positions), so it can legitimately exceed detection precision.  All metrics
are micro-averaged over characters across the corpus.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .desm import WORD_ID_OFFSET, featurize_sentences
from .errors import LengthMismatch
from .model import CHAR_ID_OFFSET, ModelConfig, correct_many
from .training import TrainConfig, train

logger = logging.getLogger("hanfix.evaluation")


def f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


@dataclass(frozen=True)
class EvalReport:
    tag: str
    detection: tuple[float, float, float]  # precision, recall, F1
    correction: tuple[float, float, float]
    counts: dict
    flags: tuple[str, ...] = ()  # metrics whose denominator was zero

    def to_dict(self) -> dict:
        d, c = self.detection, self.correction
        return {
            "tag": self.tag,
            "detection": {"precision": d[0], "recall": d[1], "f1": d[2]},
            "correction": {"precision": c[0], "recall": c[1], "f1": c[2]},
            "counts": dict(self.counts),
            "flags": list(self.flags),
        }


def _rate(num: int, den: int, name: str, flags: list) -> float:
    if den == 0:
        flags.append(name)
        return 0.0
    return num / den


def score(triples, tag: str = "") -> EvalReport:
    """Metrics over (source, gold, prediction) triples.

    Detection: predicted-positive where prediction != source, actual-positive
    where gold != source.  Correction hits are positions where the prediction
    matches a gold that differs from the source.  Zero denominators score 0
    and are listed in flags.
    """
    det_tp = det_pp = det_ap = hits = 0
    for k, (src, gold, pred) in enumerate(triples):
        if not (len(src) == len(gold) == len(pred)):
            raise LengthMismatch(
                f"triple #{k}: lengths {len(src)}/{len(gold)}/{len(pred)} differ"
            )
        for x, y, yh in zip(src, gold, pred):
            changed = yh != x
            actual = y != x
            det_pp += changed
            det_ap += actual
            det_tp += changed and actual
            hits += actual and yh == y
    flags: list[str] = []
    det_p = _rate(det_tp, det_pp, "detection_precision", flags)
    det_r = _rate(det_tp, det_ap, "detection_recall", flags)
    corr_p = _rate(hits, det_tp, "correction_precision", flags)
    corr_r = _rate(hits, det_ap, "correction_recall", flags)
    counts = {
        "detection_tp": det_tp,
        "detection_fp": det_pp - det_tp,
        "detection_fn": det_ap - det_tp,
        "correction_hits": hits,
        "correction_precision_denominator": det_tp,
        "correction_recall_denominator": det_ap,
    }
    return EvalReport(
        tag=tag,
        detection=(det_p, det_r, f1(det_p, det_r)),
        correction=(corr_p, corr_r, f1(corr_p, corr_r)),
        counts=counts,
        flags=tuple(flags),
    )


def format_report(report: EvalReport) -> str:
    lines = []
    if report.tag:
        lines.append(f"[{report.tag}]")
    for label, (p, r, f) in (
        ("detection ", report.detection),
        ("correction", report.correction),
    ):
        lines.append(f"{label}  P {p:.4f}  R {r:.4f}  F1 {f:.4f}")
    c = report.counts
    lines.append(
        f"counts      TP {c['detection_tp']}  FP {c['detection_fp']}  "
        f"FN {c['detection_fn']}  corrected {c['correction_hits']}"
    )
    if report.flags:
        lines.append(f"flags       zero denominator: {', '.join(report.flags)}")
    return "\n".join(lines)


# ------------------------------------------------------------------ ablation


@dataclass(frozen=True)
class AblationVariant:
    name: str
    use_copy: bool
    lattice_mode: str  # "desm" | "ttm" | "none"


DEFAULT_VARIANTS = (
    AblationVariant("plain", use_copy=False, lattice_mode="none"),
    AblationVariant("copy", use_copy=True, lattice_mode="none"),
    AblationVariant("ttm+copy", use_copy=True, lattice_mode="ttm"),
    AblationVariant("desm+copy", use_copy=True, lattice_mode="desm"),
)


@dataclass
class AblationRow:
    variant: AblationVariant
    reports: list  # one EvalReport per seed
    mean_detection: tuple[float, float, float] | None = None
    mean_correction: tuple[float, float, float] | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.name,
            "use_copy": self.variant.use_copy,
            "lattice_mode": self.variant.lattice_mode,
            "reports": [r.to_dict() for r in self.reports],
            "mean_detection": list(self.mean_detection) if self.mean_detection else None,
            "mean_correction": list(self.mean_correction) if self.mean_correction else None,
            "error": self.error,
        }


def _mean3(tuples) -> tuple[float, float, float]:
    n = len(tuples)
    return tuple(sum(t[i] for t in tuples) / n for i in range(3))


def run_ablation(
    variants,
    train_pairs,
    test_pairs,
    lexicon,
    ptable,
    fuzzy,
    seeds=(0,),
    tconf: TrainConfig | None = None,
    model_overrides: dict | None = None,
    log=None,
) -> list[AblationRow]:
    """Train/evaluate every variant over every seed.

    Each model is what train() makes of train_pairs at that seed, and all
    variants share the per-mode candidate features, so the only differences
    are the toggled components and the seed.  A variant that raises keeps
    its error message in its row instead of aborting the others.  The model
    overrides other than use_copy and lattice_mode, which each variant sets,
    are every variant's: a bad one (m_max among them, which the features
    share) raises ValueError once, before any variant runs.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    tconf = tconf or TrainConfig()
    base_over = dict(model_overrides or {})
    shared = {k: v for k, v in base_over.items() if k not in ("use_copy", "lattice_mode")}
    m_max = ModelConfig(char_vocab_size=CHAR_ID_OFFSET, word_vocab_size=WORD_ID_OFFSET,
                        **shared).m_max
    test_sources = [p.source for p in test_pairs]
    train_sources = [p.source for p in train_pairs]

    # featurization is shared across variants and seeds but computed lazily,
    # so a bad lattice mode fails only its own variant
    feats_cache: dict = {}

    def feats_for(mode: str, which: str):
        key = (mode, which)
        if key not in feats_cache:
            sentences = train_sources if which == "train" else test_sources
            feats_cache[key] = featurize_sentences(
                sentences, lexicon, ptable, fuzzy, m_max, mode
            )
        return feats_cache[key]

    rows: list[AblationRow] = []
    for var in variants:
        try:
            reports = []
            over = dict(base_over, use_copy=var.use_copy, lattice_mode=var.lattice_mode)
            for seed in seeds:
                params, _ = train(
                    train_pairs, lexicon, ptable, fuzzy,
                    tconf=replace(tconf, seed=seed), model_overrides=over,
                    feats=feats_for(var.lattice_mode, "train"),
                )
                preds = correct_many(
                    params, test_sources, feats_for(var.lattice_mode, "test")
                )
                rep = score(
                    [(p.source, p.target, yh) for p, yh in zip(test_pairs, preds)],
                    tag=f"{var.name}/seed{seed}",
                )
                reports.append(rep)
                if log:
                    log(
                        f"{var.name} seed {seed}: det F1 {rep.detection[2]:.4f} "
                        f"corr F1 {rep.correction[2]:.4f}"
                    )
            rows.append(
                AblationRow(
                    variant=var,
                    reports=reports,
                    mean_detection=_mean3([r.detection for r in reports]),
                    mean_correction=_mean3([r.correction for r in reports]),
                )
            )
        except Exception as e:  # keep other variants running
            logger.exception("variant %s failed", var.name)
            rows.append(
                AblationRow(variant=var, reports=[], error=f"{type(e).__name__}: {e}")
            )
    return rows


def format_ablation(rows) -> str:
    header = f"{'variant':<12} {'det P':>7} {'det R':>7} {'det F1':>7} {'corr P':>7} {'corr R':>7} {'corr F1':>7}"
    lines = [header, "-" * len(header)]
    for row in rows:
        if row.error:
            lines.append(f"{row.variant.name:<12} FAILED: {row.error}")
            continue
        d, c = row.mean_detection, row.mean_correction
        lines.append(
            f"{row.variant.name:<12} {d[0]:>7.4f} {d[1]:>7.4f} {d[2]:>7.4f} "
            f"{c[0]:>7.4f} {c[1]:>7.4f} {c[2]:>7.4f}"
        )
    return "\n".join(lines)
