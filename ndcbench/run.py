"""Closed-loop benchmark of the ndcmesh pipeline.

Usage, from the repository root:

  python3 ndcbench/run.py --workload classic --seed 1 --seconds 15 --trace 0

One client runs one workload in this process: set-up, one warm-up
operation, then the whole rounds of operations whose end lies nearest
to --seconds (at least one round), each operation starting when the
previous one has returned. Every output
is checked afterwards. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1 (see README.md).
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: steadier timings on a shared two-core machine. Set
# before numpy is imported, which is when OpenBLAS reads it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3


def _fail(message: str) -> None:
    print(f"ndcbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def main(argv=None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ndcmesh", "__init__.py")):
        _fail(f"no ndcmesh sources under {SRC}; run from a full checkout")
    sys.path[:0] = [SRC, BENCH_DIR]

    import json
    import resource
    import shutil
    import statistics
    import traceback

    import workloads
    from ndcmesh.errors import NdcMeshError
    from oracles import CheckFailed
    from tracing import NullTracer, Tracer

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - PROCESS_START

    out_dir = os.path.join(BENCH_DIR, "out")
    work = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    tracer = Tracer() if args.trace else NullTracer()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work, tracer)
        if args.trace:
            wl.trace_hooks(tracer)

        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.make_inputs()
            setups.append(time.perf_counter() - t)
        t = time.perf_counter()
        wl.warm_up()
        warm_s = time.perf_counter() - t
        setup_s = import_s + statistics.median(setups) + warm_s

        tracer.phase = "timed"
        op_times, attempted, failed = [], 0, 0
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            try:
                wl.op(attempted)
                op_times.append(time.perf_counter() - t)
            except (workloads.OpFailed, CheckFailed, NdcMeshError, ArithmeticError,
                    ValueError, OSError) as exc:
                failed += 1
                print(f"ndcbench: operation {attempted} failed: {exc}", file=sys.stderr)
            attempted += 1
            wall = time.perf_counter() - start
            # stop at the round boundary nearest to --seconds: once
            # another round would end further from it than this one
            rounds = attempted // wl.round_size
            if attempted % wl.round_size == 0 and wall + 0.5 * wall / rounds >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tracer.phase = "post"
        try:
            surf_err, final_loss = wl.check() if op_times else (float("nan"),) * 2
            correct = bool(op_times)
        except CheckFailed as exc:
            print(f"ndcbench: check failed: {exc}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            correct, surf_err, final_loss = False, float("nan"), float("nan")

        completed = len(op_times)
        if args.trace:
            peaks = wl.peaks()
            metrics = workloads.layer_values(tracer, max(completed, 1),
                                             SETUP_REPEATS, peaks)
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
                        {"workload": args.workload, "seed": args.seed,
                         "ops": completed, "op_times_s": op_times,
                         "setup_repeats_s": setups, "warm_up_s": warm_s})
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_p50_s": {"value": statistics.median(op_times) if op_times else 0.0,
                             "unit": "s"},
                "ops_per_s": {"value": completed / wall, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "surf_err": {"value": surf_err, "unit": "cells"},
                "final_loss": {"value": final_loss, "unit": "1"},
            }
        print(f"ndcbench: {args.workload} seed {args.seed}: {completed} ops in "
              f"{wall:.2f} s, set-up {setup_s:.2f} s (import {import_s:.2f}, "
              f"inputs {statistics.median(setups):.2f}, warm-up {warm_s:.2f}); op times "
              + " ".join(f"{x:.3f}" for x in op_times),
              file=sys.stderr)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
