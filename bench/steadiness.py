#!/usr/bin/env python3
"""How steady the benchmark is: sets of runs of the same code, compared.

    python3 bench/steadiness.py --sets 2 --runs 10

Runs ``bench/run.py`` ``--runs`` times per set and workload of
``BENCHMARK.json``, one run at a time, at its ``run_seconds``. Run ``j``
of set ``k`` has the seed ``k * runs + j``, and the sets take turns run
by run, so a change in the host's load falls on every set alike. For
each workload and end-to-end metric it prints every set's median and
spread (the distance between the first and third quartile as a share of
the median) and how far apart the set medians lie, ``|m_k - m_0|`` over
the smaller of the two, next to the metric's bound. A metric passes when
every spread, ``setup_s``'s too, and every distance between medians is
within its bound. All runs must be correct, with the same share of failed
operations in every set. Raw results go to
``bench/out/steadiness-<time>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in workloads}
    for j in range(args.runs):
        for k in range(args.sets):
            seed = k * args.runs + j
            for w in workloads:
                res = run_once(w, seed, spec["run_seconds"])
                results[w][k].append(res)
                summary = " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items())
                print(f"set {k} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {summary}", file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':<16} {'metric':<19} {'bound':>6} {'medians':>28} {'spreads':>16} {'apart':>6}  verdict")
    for w in workloads:
        sets = results[w]
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) > 1 or not all(r["correct"] for runs in sets for r in runs):
            print(f"{w}: incorrect runs or unequal failed shares {sorted(shares)}")
            ok = False
        for name in [n for n in bounds if n in sets[0][0]["metrics"]]:
            metric = bounds[name]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            apart = max((abs(m - medians[0]) / min(m, medians[0]) for m in medians[1:]), default=0.0)
            passed = apart <= metric["bound"] and all(s <= metric["bound"] for s in spreads)
            ok &= passed
            print(
                f"{w:<16} {name:<19} {metric['bound']:>6.3f} "
                f"{' '.join(f'{m:.5g}' for m in medians):>28} "
                f"{' '.join(f'{s:.3f}' for s in spreads):>16} {apart:>6.3f}  {'ok' if passed else 'FAIL'}"
            )
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"args": vars(args), "results": results}, indent=1))
    print(f"raw results: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
