#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload desk_experiment --seed 0 --seconds 20 --trace 0

The workload's inputs are made from ``--seed`` and set up three times;
``setup_s`` is the import time plus the median set-up. Whole rounds of
the workload's operations then run until ``--seconds`` have passed on
the wall clock, and at least the workload's ``min_rounds``; every output
is checked. Every time figure is CPU seconds of this process, which
other processes on the machine do not inflate. With ``--trace 0`` the
last line of standard output carries the end-to-end metrics; with
``--trace 1`` rounds alternate untraced and traced on the same inputs,
and it carries the per-layer metrics, with spans written to
``bench/out/``. Progress and problems go to standard error.

BLAS is pinned to one thread before numpy loads: outputs do not depend
on the thread count, and the second core stays free for the system.
"""

import os
import sys
import time

_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("desk_experiment", "paper_width_cli", "fusion_dense")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def import_program():
    """Import proxydet from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "proxydet" / "__init__.py").is_file():
        raise SystemExit(f"error: no proxydet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import proxydet

    if not Path(proxydet.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: proxydet was imported from {proxydet.__file__}, not {SRC}")


def run(args) -> dict:
    import_program()
    import tracing
    import workloads

    import_s = time.process_time()  # CPU time since the process started
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed, tiny=args.tiny)
        tracer = tracing.Tracer() if args.trace else None

        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.process_time()
            if tracer:
                tracer.install()
            try:
                workload.set_up()
            finally:
                if tracer:
                    tracer.uninstall()
            workload.warm_up()
            setup_times.append(time.process_time() - start)
        setup_spans = len(tracer.names) if tracer else 0
        if tracer:  # every layer, also those the rounds never call
            tracer.install()
            try:
                workloads.cover_every_layer(workdir, args.seed)
            finally:
                tracer.uninstall()
        cover_spans = len(tracer.names) if tracer else 0
        workload.prepare_checks()

        totals = workloads.Totals()
        plain, traced = [], []
        start = time.perf_counter()
        index = 0
        while index < workload.min_rounds or time.perf_counter() - start < args.seconds:
            trace_round = tracer is not None and index % 2 == 1
            if trace_round:
                tracer.install()
            try:
                seconds = workload.run_round(index // 2 if tracer else index, totals)
            finally:
                if trace_round:
                    tracer.uninstall()
            (traced if trace_round else plain).append(seconds)
            print(f"round {index}{' traced' if trace_round else ''}: {seconds:.3f} CPU s", file=sys.stderr)
            index += 1
        run_problems = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in totals.problems + run_problems:
        print(f"problem: {problem}", file=sys.stderr)
    if hasattr(workload, "ordering_counts"):
        loc_beats_mil, helps, n = workload.ordering_counts()
        print(f"orderings: loc > mil {loc_beats_mil}/{n}, fusion helps {helps} of {n}", file=sys.stderr)
        for key, value in sorted(workload.maps.items()):
            print(f"mAP {key}: {value:.6f}", file=sys.stderr)

    metrics = {}
    if tracer is None:
        metrics["setup_s"] = (import_s + statistics.median(setup_times), "s")
        metrics["run_s"] = (statistics.median(plain), "s")
        metrics["infer_images_per_s"] = (statistics.median(totals.rates["infer"]), "images/s")
        metrics["eval_images_per_s"] = (statistics.median(totals.rates["eval"]), "images/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    else:
        end = len(tracer.names)
        # a layer's figures come from the rounds, else from set-up, else from the cover chain
        metrics.update(tracing.layer_metrics(tracer.spans(setup_spans, cover_spans)))
        metrics.update(tracing.layer_metrics(tracer.spans(0, setup_spans)))
        metrics.update(tracing.layer_metrics(tracer.spans(cover_spans, end)))
        for label in ("fused", "unfused"):
            if totals.maps[label]:
                metrics[f"evaluation.map_{label}"] = (statistics.fmean(totals.maps[label]), "mAP")
        # each traced round repeats the untraced round before it
        overhead = statistics.median(t - p for t, p in zip(traced, plain))
        metrics["trace.overhead_s"] = (overhead, "s")
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, _START)
        print(f"spans: {end} written to {trace_path}", file=sys.stderr)

    return {
        "correct": not run_problems,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    result = run(parse_args(argv))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
