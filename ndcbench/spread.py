"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

  python3 ndcbench/spread.py --seeds 1-10 [--workloads classic,train_csg]

Runs are sequential, one process each, with the run length from
BENCHMARK.json. For every end-to-end metric it prints the median and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound, and the mean
wall time of one run. The raw results go to
ndcbench/out/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = wall
            runs.append(result)
            ok &= result["correct"]
        with open(os.path.join(BENCH_DIR, "out", f"spread-{workload}.json"), "w") as fh:
            json.dump(runs, fh, indent=1)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed shares {sorted(shares)}, "
              f"mean wall {statistics.mean(r['wall_s'] for r in runs):.1f} s per run")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            bound = bounds.get(name)
            print(f"  {name:24s} median {med:12.6g}  spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
