"""One workload in one fresh interpreter: set-up, the timed passes, the checks.

Run by ``run.py``; prints one JSON object on its last line.  It imports the
package from ``src/`` of the checkout it runs in, builds the workload's
inputs from the seed, warms up, then repeats whole passes of the workload's
steps until ``--seconds`` have gone by.  With ``--setup-only`` it stops
before the first timed operation and reports only its set-up time.

Operations are timed in CPU time and corrected for the host's speed: a
fixed pure-Python loop (``reference``) runs between steps, and a step's CPU
time is scaled by REFERENCE_S over the mean of the loop's CPU times just
before and just after it.  Corrected times therefore read in seconds of a
host on which the loop takes REFERENCE_S.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from itertools import repeat
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_LOOPS = 120_000
REFERENCE_S = 0.006
OP_TIMEOUT_S = 60


def reference(n=REFERENCE_LOOPS):
    """A fixed loop over small cached ints: no allocation, no I/O."""
    x = 0
    for _ in repeat(None, n):
        x = (x * 5 + 3) & 255
    return x


def timed_reference():
    t0 = time.process_time()
    reference()
    return time.process_time() - t0


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def import_package(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "surgery_algebra", "__init__.py")):
        raise SystemExit(f"no package source under {src}")
    sys.path.insert(0, src)
    import surgery_algebra
    from surgery_algebra import acceptance, cli, matrices, rings, serialize

    if not os.path.abspath(surgery_algebra.__file__).startswith(os.path.abspath(src)):
        raise SystemExit("surgery_algebra was imported from outside the checkout")
    return SimpleNamespace(acceptance=acceptance, cli=cli, matrices=matrices, rings=rings,
                           serialize=serialize)


def run_op(op):
    """(raw seconds, raw output or None, error or None); never raises."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = time.process_time()
    try:
        raw = op.run()
        return time.process_time() - t0, raw, None
    except OpTimeout:
        return time.process_time() - t0, None, f"timed out after {OP_TIMEOUT_S} s"
    except Exception as e:  # a crash is a failed operation; the run goes on
        return time.process_time() - t0, None, f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def judge(op, raw, first):
    """(output, failure, wrong): the independent check on pass 1, exact
    repetition on later passes.  An output that cannot be read is a failed
    operation; one that is read but wrong is also an incorrect result."""
    try:
        out = op.collect(raw)
    except Exception as e:
        return None, f"{type(e).__name__}: {e}", False
    try:
        err = op.check(out) if first is None else (
            None if out == first else "output differs from the first pass")
    except Exception as e:
        err = f"check raised {type(e).__name__}: {e}"
    return out, err, err is not None


def timed_passes(wl, seconds, tracer=None):
    """Repeat whole passes until `seconds` are over; returns per-pass records."""
    first = {}
    passes = []
    failures = []
    wrong = []
    ref_before = timed_reference()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.start_pass()
        pass_s = 0.0
        op_times = []
        for step in wl.steps:
            raws = [run_op(op) for op in step]
            ref_after = timed_reference()
            scale = REFERENCE_S / ((ref_before + ref_after) / 2)
            ref_before = ref_after
            for op, (raw_s, raw, err) in zip(step, raws):
                corrected = raw_s * scale
                pass_s += corrected
                op_times.append((op.kind, corrected, raw_s))
                if err is None:
                    out, err, is_wrong = judge(op, raw, first.get(op.name))
                    if out is not None:
                        first.setdefault(op.name, out)
                    if is_wrong:
                        wrong.append(op.name)
                if err is not None:
                    failures.append(f"pass {len(passes) + 1}, {op.name}: {err}")
        if tracer is not None:
            tracer.end_pass()
        passes.append({"pass_s": pass_s, "ops": op_times})
    return passes, failures, wrong, first


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True, help="checkout root holding src/")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    sys.path.insert(0, HERE)
    import workloads

    pkg = import_package(args.root)
    workdir = os.path.join(args.root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](pkg, args.seed, workdir)
        warm_bits = wl.warmup()
        setup_raw = time.process_time()  # CPU time since the interpreter started
        ref = timed_reference()
        result = {"setup_s": setup_raw * REFERENCE_S / ref, "setup_raw_s": setup_raw}
        if not args.setup_only:
            result.update(measure(wl, args, warm_bits))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another worker's files are still there
            pass
    print(json.dumps(result))


def measure(wl, args, warm_bits):
    out = {}
    n_ops = sum(len(step) for step in wl.steps)
    if args.trace:
        import layers

        # one untraced pass first: the traced passes are compared with it
        plain, failures, wrong, _ = timed_passes(wl, 0)
        tracer = layers.Tracer()
        tracer.install()
        try:
            passes, more, more_wrong, first = timed_passes(wl, args.seconds, tracer)
        finally:
            tracer.uninstall()
        failures += more
        wrong += more_wrong
        attempted = n_ops * (len(plain) + len(passes))
        out["per_layer"] = tracer.metrics()
        out["trace_counts_repeat"] = out["per_layer"].pop("trace.counts_repeat")
        out["per_layer"]["trace.slowdown"] = (
            statistics.median(p["pass_s"] for p in passes) / plain[0]["pass_s"])
    else:
        passes, failures, wrong, first = timed_passes(wl, args.seconds)
        attempted = n_ops * len(passes)
    top = [t for p in passes for kind, t, _ in p["ops"] if kind == wl.top_kind]
    out.update({
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "wrong": len(wrong),
        "failures": failures[:20],
        "pass_s": [p["pass_s"] for p in passes],
        "top_op_samples_ms": [1000 * t for t in top],
        "ops_per_s": n_ops / statistics.median(p["pass_s"] for p in passes),
        "top_op_ms": 1000 * statistics.median(top),
        "witness_bits_max": max([warm_bits] + [op.bits(first[op.name])
                                               for step in wl.steps for op in step
                                               if op.name in first]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ms_by_kind": _ms_by_kind(passes),
    })
    return out


def _ms_by_kind(passes):
    """Median raw and corrected milliseconds per operation kind, summed per pass."""
    per_kind = {}
    for p in passes:
        sums = {}
        for kind, corrected, raw in p["ops"]:
            c, r = sums.get(kind, (0.0, 0.0))
            sums[kind] = (c + corrected, r + raw)
        for kind, v in sums.items():
            per_kind.setdefault(kind, []).append(v)
    return {
        kind: {"corrected_ms": round(1000 * statistics.median(c for c, _ in v), 3),
               "raw_ms": round(1000 * statistics.median(r for _, r in v), 3)}
        for kind, v in per_kind.items()
    }


if __name__ == "__main__":
    main()
