"""Command line interface.

Subcommands: build-lexicon, match, gen-data, train, correct, evaluate,
ablate.  Exit codes: 0 success, 1 usage error, 2 data/config error, 3
degenerate evaluation (a metric denominator was zero and
--allow-zero-denominators was not given).

The pinyin table and fuzzy class file default to the bundled demo
resources; --lexicon defaults to building one from the bundled word list
where that makes sense (match, gen-data).  Set HANFIX_LOG=info|debug for
progress logging on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import data as _data
from .corpus import (
    NoiseSpec,
    corpus_stats,
    generate_synthetic,
    load_parallel_tsv,
    save_parallel_tsv,
)
from .desm import LATTICE_MODES, build_lattice, featurize_sentences, lattice_records
from .errors import HanfixError
from .evaluation import (
    DEFAULT_VARIANTS,
    format_ablation,
    format_report,
    run_ablation,
    score,
)
from .lexicon import Lexicon, build_lexicon, lexicon_fingerprint
from .model import correct_many, load_checkpoint, save_checkpoint
from .pinyin import FuzzyClassTable, PinyinTable
from .training import TrainConfig, split_config, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _setup_logging() -> None:
    name = os.environ.get("HANFIX_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _add_table_flags(p) -> None:
    p.add_argument("--pinyin-table", metavar="TSV",
                   help="char<TAB>reading table (default: bundled demo table)")
    p.add_argument("--fuzzy-table", metavar="FILE",
                   help="fuzzy class file, one class per line (default: bundled)")


def _load_tables(args) -> tuple[PinyinTable, FuzzyClassTable]:
    ptable = PinyinTable.from_file(args.pinyin_table or _data.demo_pinyin_path())
    fuzzy = FuzzyClassTable.from_file(args.fuzzy_table or _data.demo_fuzzy_path())
    return ptable, fuzzy


def _load_lexicon(args, ptable, fuzzy, allow_default: bool) -> Lexicon:
    if args.lexicon:
        return Lexicon.load(args.lexicon)
    if not allow_default:
        raise HanfixError("--lexicon is required for this subcommand")
    logging.getLogger("hanfix.cli").info("no --lexicon given, using bundled demo words")
    return build_lexicon(_data.demo_words_path(), ptable, fuzzy)


def _read_sentences(args) -> list[str]:
    if args.sentences:
        return list(args.sentences)
    return [line.rstrip("\n") for line in sys.stdin]


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# ------------------------------------------------------------- subcommands


def cmd_build_lexicon(args) -> int:
    ptable, fuzzy = _load_tables(args)
    lex = build_lexicon(args.words, ptable, fuzzy)
    lex.save(args.out)
    print(f"{len(lex)} words -> {args.out} (fingerprint {lexicon_fingerprint(lex)})")
    return EXIT_OK


def cmd_match(args) -> int:
    ptable, fuzzy = _load_tables(args)
    lex = _load_lexicon(args, ptable, fuzzy, allow_default=True)
    sentences = _read_sentences(args)
    results = []
    for s in sentences:
        lat = build_lattice(
            lex, ptable, fuzzy, s, m_max=args.m_max,
            include_pinyin=not args.ttm_only,
        )
        results.append({"sentence": s, "positions": lattice_records(lat, lex)})
    if args.format == "json":
        _emit(json.dumps(results, ensure_ascii=False, indent=2), args.out)
        return EXIT_OK
    lines = []
    for r in results:
        lines.append(f"# {r['sentence']}")
        for rec in r["positions"]:
            mark = "!" if rec["suspect"] else " "
            cands = "  ".join(
                f"{c['word']}[{c['span'][0]}..{c['span'][1]}]"
                f"({c['provenance']}{'/' + c['direction'] if c['direction'] != 'NONE' else ''})"
                for c in rec["candidates"]
            ) or "-"
            lines.append(f"{rec['pos']:>3}{mark} {rec['char']}  {cands}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_gen_data(args) -> int:
    ptable, fuzzy = _load_tables(args)
    lex = _load_lexicon(args, ptable, fuzzy, allow_default=True)
    noise = NoiseSpec(
        error_rate=args.error_rate,
        fuzzy_confusion_prob=args.fuzzy_prob,
        seed=args.seed,
    )
    pairs = generate_synthetic(
        lex, ptable, fuzzy, args.n, (args.min_len, args.max_len), noise,
        filler_rate=args.filler_rate,
    )
    save_parallel_tsv(pairs, args.out)
    n_sent, n_err = corpus_stats(pairs)
    print(f"{n_sent} pairs, {n_err} error chars -> {args.out}")
    return EXIT_OK


def _load_train_config(path: str | None) -> tuple[dict, TrainConfig]:
    if not path:
        return {}, TrainConfig()
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise HanfixError(f"{path}: training config must be a JSON object")
    try:
        return split_config(raw)
    except (TypeError, ValueError) as e:
        raise HanfixError(f"{path}: {e}") from e


def cmd_train(args) -> int:
    ptable, fuzzy = _load_tables(args)
    lex = _load_lexicon(args, ptable, fuzzy, allow_default=False)
    pairs = load_parallel_tsv(args.corpus)
    overrides, tconf = _load_train_config(args.config)
    if args.seed is not None:
        tconf = replace(tconf, seed=args.seed)
        overrides["seed"] = args.seed
    if args.lattice:
        tconf = replace(tconf, lattice_mode=args.lattice)
    params, history = train(
        pairs, lex, ptable, fuzzy, tconf=tconf, model_overrides=overrides,
        log=lambda line: print(line, file=sys.stderr),
    )
    save_checkpoint(params, args.out)
    print(f"trained {len(history)} epochs, final loss {history[-1]:.6f} -> {args.out}")
    return EXIT_OK


def cmd_correct(args) -> int:
    ptable, fuzzy = _load_tables(args)
    lex = _load_lexicon(args, ptable, fuzzy, allow_default=False)
    params = load_checkpoint(args.checkpoint)
    sentences = _read_sentences(args)
    feats = featurize_sentences(
        sentences, lex, ptable, fuzzy, params.config.m_max, args.lattice
    )
    outputs = correct_many(params, sentences, feats)
    if args.format == "json":
        payload = [{"input": s, "output": o} for s, o in zip(sentences, outputs)]
        _emit(json.dumps(payload, ensure_ascii=False, indent=2), args.out)
    else:
        _emit("\n".join(outputs), args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    ptable, fuzzy = _load_tables(args)
    lex = _load_lexicon(args, ptable, fuzzy, allow_default=False)
    params = load_checkpoint(args.checkpoint)
    pairs = load_parallel_tsv(args.test)
    sources = [p.source for p in pairs]
    feats = featurize_sentences(
        sources, lex, ptable, fuzzy, params.config.m_max, args.lattice
    )
    preds = correct_many(params, sources, feats)
    report = score(
        [(p.source, p.target, yh) for p, yh in zip(pairs, preds)],
        tag=Path(args.test).name,
    )
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), ensure_ascii=False, indent=2), args.out)
    else:
        _emit(format_report(report), args.out)
    if report.flags and not args.allow_zero_denominators:
        print(
            f"degenerate evaluation: zero denominator for {', '.join(report.flags)}",
            file=sys.stderr,
        )
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_ablate(args) -> int:
    ptable, fuzzy = _load_tables(args)
    lex = _load_lexicon(args, ptable, fuzzy, allow_default=False)
    train_pairs = load_parallel_tsv(args.train_corpus)
    test_pairs = load_parallel_tsv(args.test_corpus)
    overrides, tconf = _load_train_config(args.config)
    seeds = tuple(int(s) for s in args.seeds.split(","))
    by_name = {v.name: v for v in DEFAULT_VARIANTS}
    names = args.variants.split(",") if args.variants else [v.name for v in DEFAULT_VARIANTS]
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise HanfixError(
            f"unknown variants {unknown}; available: {sorted(by_name)}"
        )
    variants = [by_name[n] for n in names]
    rows = run_ablation(
        variants, train_pairs, test_pairs, lex, ptable, fuzzy,
        seeds=seeds, tconf=tconf, model_overrides=overrides,
        log=lambda line: print(line, file=sys.stderr),
    )
    if args.format == "json":
        _emit(json.dumps([r.to_dict() for r in rows], ensure_ascii=False, indent=2),
              args.out)
    else:
        _emit(format_ablation(rows), args.out)
    return EXIT_DATA if any(r.error for r in rows) else EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hanfix", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("build-lexicon", help="compile a word list into a lexicon file")
    p.add_argument("--words", required=True, metavar="TSV", help="surface<TAB>frequency lines")
    _add_table_flags(p)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_build_lexicon)

    p = sub.add_parser("match", help="show the candidate lattice for sentences")
    p.add_argument("sentences", nargs="*", help="sentences (stdin lines when omitted)")
    p.add_argument("--lexicon", metavar="FILE", help="lexicon file (default: bundled demo words)")
    _add_table_flags(p)
    p.add_argument("--m-max", type=int, default=5, help="candidates kept per position")
    p.add_argument("--ttm-only", action="store_true", help="exact trie matches only, no pinyin probes")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("gen-data", help="generate a synthetic parallel corpus")
    p.add_argument("--lexicon", metavar="FILE", help="lexicon file (default: bundled demo words)")
    _add_table_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of sentence pairs")
    p.add_argument("--min-len", type=int, default=4)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--error-rate", type=float, default=0.15)
    p.add_argument("--fuzzy-prob", type=float, default=0.5,
                   help="fraction of errors drawn from fuzzy (vs exact) homophones")
    p.add_argument("--filler-rate", type=float, default=0.0,
                   help="fraction of slots filled with a stray single char instead of a word")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="TSV")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a corrector checkpoint")
    p.add_argument("--corpus", required=True, metavar="TSV", help="source<TAB>target pairs")
    p.add_argument("--lexicon", required=False, metavar="FILE")
    _add_table_flags(p)
    p.add_argument("--config", metavar="JSON", help="flat key-value training config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--lattice", choices=LATTICE_MODES, help="override the lattice mode")
    p.add_argument("--out", required=True, metavar="FILE", help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("correct", help="correct text with a trained checkpoint")
    p.add_argument("sentences", nargs="*", help="sentences (stdin lines when omitted)")
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--lexicon", required=False, metavar="FILE")
    _add_table_flags(p)
    p.add_argument("--lattice", choices=LATTICE_MODES, default="desm")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("evaluate", help="score a checkpoint on a test TSV")
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--lexicon", required=False, metavar="FILE")
    _add_table_flags(p)
    p.add_argument("--test", required=True, metavar="TSV")
    p.add_argument("--lattice", choices=LATTICE_MODES, default="desm")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p.add_argument("--allow-zero-denominators", action="store_true",
                   help="exit 0 even when a metric denominator is zero")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and score the component ablation matrix")
    p.add_argument("--train-corpus", required=True, metavar="TSV")
    p.add_argument("--test-corpus", required=True, metavar="TSV")
    p.add_argument("--lexicon", required=False, metavar="FILE")
    _add_table_flags(p)
    p.add_argument("--config", metavar="JSON", help="flat key-value training config")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--variants", metavar="NAMES",
                   help=f"comma-separated subset of: {', '.join(v.name for v in DEFAULT_VARIANTS)}")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except HanfixError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
