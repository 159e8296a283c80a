"""hanfix benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run from anywhere; it imports hanfix from ``src/`` next to this directory
and exits 2 when that is missing.  BLAS is pinned to one thread before numpy
loads.  Workloads (why each exists is in BENCHMARK.json):

  train                test_06 model trained on make_toy_benchmark defaults
  correct_batch        dense lexicon, long unique inputs, batch-64 correction
  correct_interactive  short utterances, one sentence per call, one caller

Every workload runs every phase (see workloads.py), so every metric exists
on each; the phase a workload exists for gets most of the run.

--trace 0 measures the end-to-end metrics with no tracing.  Their times are
scaled to a nominal machine speed by probes run beside each measured slice
(see speed_scale in workloads.py); the unscaled values go to the result
file.  --trace 1 runs the same pass untraced, traced (spans around hanfix's
public functions, see spans.py) and untraced again, and reports per-layer
metrics from the traced pass plus the tracing overhead: scaled traced time
over the mean scaled untraced time, minus 1.  Per-layer metrics are read
from the phase they explain:

  desm.*, lexicon.* (but build/load), pinyin.*   featurization in train, batch, live
  encoder.*, model.loss_and_grads, model.padding_frac, training.*   train
  model.forward_batch                            batch
  model.correct_many, model.assemble_batch       live
  lexicon.build_ms, lexicon.load_ms              setup
  evaluation.*                                   score of the batch predictions

The last line of stdout is the result JSON; the lines before it are for
people.  Full results, the environment and the span dump go to
``.perfbench_out/`` in the checkout.  ``--tiny`` shrinks every input for
the smoke test (perfbench/smoke.py).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (smoke test)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "hanfix" / "__init__.py").is_file():
        print(f"error: hanfix sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))

    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        inp = workloads.plan(args.workload, args.seed, args.seconds, args.tiny)
        files = workloads.write_files(inp, work)
        res = workloads.run_pass(inp, files)
        attempted, failed = res.attempted, res.failed
        detail = {"samples": {"setups": len(res.setup_s), "live_requests": len(res.live_ms),
                              "batch_calls": len(res.batch_s),
                              "train_sentence_epochs": res.sentence_epochs},
                  "phase_s": {k: v / 1e9 for k, v in res.phase_ns.items()},
                  "det_f1": res.det_f1, "corr_f1": res.corr_f1}
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
            try:
                traced = workloads.run_pass(inp, files, tracer)
            finally:
                tracer.uninstall()
            # untraced passes on both sides of the traced one, so that a
            # drift in machine speed does not read as tracing overhead
            after = workloads.run_pass(inp, files)
            attempted += traced.attempted + after.attempted
            failed += traced.failed + after.failed
            values = spans.layer_metrics(tracer)
            values["evaluation.det_f1"] = traced.det_f1
            values["evaluation.corr_f1"] = traced.corr_f1
            untraced_s = (res.scaled_measured_s() + after.scaled_measured_s()) / 2
            values["trace.overhead_frac"] = traced.scaled_measured_s() / untraced_s - 1.0
            detail["self_time_share"] = spans.layer_shares(tracer, traced.measured_ns())
            detail["traced_phase_s"] = {k: v / 1e9 for k, v in traced.phase_ns.items()}
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                        {"workload": args.workload, "seed": args.seed})
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = workloads.e2e_metrics(res, rss_mb)
            detail["unscaled_metrics"] = workloads.e2e_metrics(res, rss_mb, scaled=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    env = environment()
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "tiny": args.tiny, "env": env, **detail, **result}, indent=1),
        encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {failed / max(attempted, 1):14.6g} "
          f"({failed}/{attempted} operations)")
    if args.trace:
        share = detail["self_time_share"]
        print(f"  self time over measured wall: lattice layers {share['lattice']:.1%}, "
              f"model layers {share['model']:.1%}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
