"""Repeat a workload over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload suite --seeds 1-10 [--seconds 30]

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its ten values, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
which is what the benchmark's bounds are checked against.  The runs are
saved to ``perfbench/results/<workload>-seeds-<seeds>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
        context, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        runs.append({"seed": seed, "context": context, "result": result})
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                           for k, v in result["metrics"].items()), flush=True)
    print(f"{'metric':<44}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}")
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<44}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.3f}")
    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; correct: "
          f"{all(r['result']['correct'] for r in runs)}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{args.workload}-seeds-{args.seeds}"
                        f"{'-trace' if args.trace else ''}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    print(f"saved {path}")


if __name__ == "__main__":
    main()
