"""Smoke test of the benchmark itself:

    python3 perfbench/smoke.py

Runs every workload at tiny sizes in both modes and checks that each metric
declared in BENCHMARK.json appears with its unit and that no operation
failed.  Then feeds the checkers a length-changed output and a lattice with
an out-of-range word id, and checks that both are reported.  Exits non-zero
on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(ok, message) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {message}")


def run_tiny(workload: str, trace: int, spec: dict) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=False)
    expect(proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{workload} trace {trace}: metrics {got} != {want}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], float), (name, m))
    print(f"ok  {workload:20s} trace {trace}: {len(got)} metrics, "
          f"{result['attempted']} operations")


def check_checkers() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from checks import lattice_problems, output_problems
    from hanfix.corpus import make_toy_benchmark
    from hanfix.desm import CharWordLattice, Direction, MatchCandidate, Provenance, build_lattice

    expect(output_problems("参家会义", "参加会议") == [], "a same-length output passes")
    expect(output_problems("参家会义", "参加会") != [], "a length-changed output fails")
    expect(output_problems("参家会义", None) != [], "a missing output fails")

    bench = make_toy_benchmark(n_words=50, n_train=4, n_test=1, seed=3)
    lex, sentence = bench.lexicon, bench.train_pairs[0].target
    surfaces = [e.surface for e in lex.entries]
    vocab = len(lex) + 2
    lat = build_lattice(lex, bench.ptable, bench.fuzzy, sentence, m_max=8)
    expect(lattice_problems(lat, surfaces, 8, vocab) == [], "a built lattice passes")

    bad = MatchCandidate(len(lex) + 5, (0, 0), Provenance.PINYIN_FUZZY, Direction.FORWARD)
    broken = CharWordLattice(sentence, [list(c) for c in lat.per_char], list(lat.suspect))
    broken.per_char[0].append(bad)
    expect(any("out of range" in p for p in lattice_problems(broken, surfaces, 8, vocab)),
           "an out-of-range word id fails")

    flipped = CharWordLattice(sentence, lat.per_char, [not s for s in lat.suspect])
    expect(lattice_problems(flipped, surfaces, 8, vocab) != [], "flipped suspect flags fail")
    expect(lattice_problems(lat, surfaces, 1, vocab) != [] or all(
        len(c) <= 1 for c in lat.per_char), "more than m_max candidates fail")
    print("ok  checkers report a length-changed output and an out-of-range word id")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        for trace in (0, 1):
            run_tiny(w["name"], trace, spec)
    check_checkers()
    return 0


if __name__ == "__main__":
    sys.exit(main())
