"""Benchmark entry point: run a workload of surgery_algebra and print its metrics.

    python3 perfbench/run.py --workload suite|rank-ladder|group-rings|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its ``src/``.
Each workload runs in fresh interpreters (``worker.py``): SETUP_SAMPLES - 1
that stop after set-up, then one that also runs the timed passes.  The
reported ``setup_s`` is the median over all of them.  Before the result the
run prints one line of context (seed, Python, nproc, revision, src/ lines,
per-workload operation counts and per-kind timings); the last line is the
result object.  With ``--trace 1`` the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "rank-ladder", "group-rings")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("top_op_ms", "ms"),
              ("witness_bits_max", "bits"), ("peak_rss_mb", "MB"))


def child(workload, seed, seconds, trace, setup_only, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    setups = [child(workload, seed, seconds, trace, True, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = child(workload, seed, seconds, trace, False, deadline)
    setups.append(res["setup_s"])
    res["setup_s"] = statistics.median(setups)
    res["setup_samples_s"] = setups
    return res


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "surgery_algebra", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)

    print(json.dumps({
        "seed": args.seed, "python": platform.python_version(), "nproc": os.cpu_count(),
        "revision": revision(), "src_lines": src_lines(),
        "workloads": {name: {k: v for k, v in r.items() if k != "per_layer"}
                      for name, r in results.items()},
    }))
    if args.trace:
        from layers import metric_names

        units = dict(metric_names())
        values = {(name, m): r["per_layer"][m] for name, r in results.items() for m in units}
    else:
        units = dict(END_TO_END)
        values = {(name, m): r[m] for name, r in results.items() for m in units}
    prefix = len(names) > 1
    metrics = {(f"{name}.{m}" if prefix else m): {"value": v, "unit": units[m]}
               for (name, m), v in values.items()}
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
