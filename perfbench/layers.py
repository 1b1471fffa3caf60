"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of the package's 13
modules, and every public method of the classes they define, with a wrapper
that counts calls and measures self time (the call's duration minus the time
spent in wrapped calls it made).  Private helpers are not wrapped, so their
time is the self time of the public function that called them.  A few
functions also record the work they were given or produced.  Counters are
kept per pass; ``metrics`` reports counts of the first traced pass and the
median of each time over the traced passes.

The names drop the leading underscore of ``_intlat`` (``intlat.*``), since a
metric name starts with a letter.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time

import checks

MODULES = ("rings", "matrices", "_intlat", "forms", "lagrangians", "unitary", "witt",
           "plumbing", "complexes", "formations", "serialize", "cli", "acceptance")
TIMED = {
    ("matrices", "FormMatrix.mul"): "matrices.mul",
    ("matrices", "try_inverse"): None,
    ("_intlat", "smith_normal_form"): "intlat.smith_normal_form",
    ("_intlat", "hermite_column_basis"): "intlat.hermite_column_basis",
    ("rings", "q_eps_reduce"): "rings.q_eps_reduce",
}


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for m in MODULES:
        out += [(f"{m.lstrip('_')}.calls", "count"), (f"{m.lstrip('_')}.self_s", "s")]
    out += [
        ("matrices.mul.calls", "count"), ("matrices.mul.products", "count"),
        ("matrices.mul.s", "s"),
        ("matrices.try_inverse.laurent_s", "s"), ("matrices.try_inverse.cyclic_s", "s"),
        ("intlat.smith_normal_form.calls", "count"), ("intlat.smith_normal_form.s", "s"),
        ("intlat.hermite_column_basis.calls", "count"), ("intlat.hermite_column_basis.s", "s"),
        ("intlat.out_bits_max", "bits"),
        ("rings.q_eps_reduce.calls", "count"), ("rings.q_eps_reduce.s", "s"),
        ("complexes.surgery_admissible.hit_ratio", "ratio"),
        ("trace.slowdown", "ratio"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.stack = []
        self.saved = []
        self.passes = []
        self._reset()

    def _reset(self):
        self.c = {name: 0 for name, _ in metric_names()}
        self.admissible = [0, 0]

    # -- install and remove -------------------------------------------------

    def install(self):
        for m in MODULES:
            mod = importlib.import_module(f"surgery_algebra.{m}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._patch(mod, name, self._wrap(m, name, obj))
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, attr, self._wrap(m, f"{name}.{attr}", fn))
        # tables that hold function objects rather than looking them up
        cli = importlib.import_module("surgery_algebra.cli")
        acceptance = importlib.import_module("surgery_algebra.acceptance")
        self._patch(cli, "VERBS", {verb: (getattr(cli, fn.__name__), text)
                                   for verb, (fn, text) in cli.VERBS.items()})
        self._patch(acceptance, "CRITERIA", tuple((num, name, getattr(acceptance, fn.__name__))
                                                  for num, name, fn in acceptance.CRITERIA))

    def uninstall(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def _patch(self, owner, attr, value):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, module, qualname, fn):
        tracer = self
        stack = self.stack
        calls_key = f"{module.lstrip('_')}.calls"
        self_key = f"{module.lstrip('_')}.self_s"
        special = TIMED.get((module, qualname), False)
        bits = module == "_intlat"
        admissible = (module, qualname) == ("complexes", "surgery_admissible")
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                counters = tracer.c  # replaced at each pass
                counters[calls_key] += 1
                counters[self_key] += dt - child
                if special is not False:
                    tracer._special(module, qualname, special, args, dt)
                if bits and out is not None:
                    counters["intlat.out_bits_max"] = max(counters["intlat.out_bits_max"],
                                                          checks.bits_max(out))
                if admissible:
                    tracer.admissible[0] += 1
                    tracer.admissible[1] += bool(out)

        wrapper.__wrapped__ = fn
        return wrapper

    def _special(self, module, qualname, key, args, dt):
        counters = self.c
        if key is None:  # matrices.try_inverse, split by ring
            kind = args[0].ring.kind
            if kind != "Z":
                counters[f"matrices.try_inverse.{kind}_s"] += dt
            return
        counters[f"{key}.calls"] += 1
        counters[f"{key}.s"] += dt
        if key == "matrices.mul":
            a, b = args
            counters["matrices.mul.products"] += a.rows * a.cols * b.cols

    # -- passes ---------------------------------------------------------------

    def start_pass(self):
        self._reset()

    def end_pass(self):
        c = dict(self.c)
        att, hits = self.admissible
        c["complexes.surgery_admissible.hit_ratio"] = hits / att if att else 0.0
        self.passes.append(c)

    def metrics(self):
        """Counts of the first traced pass; times as medians over the passes."""
        first = self.passes[0]
        out = {}
        for name, unit in metric_names():
            if name == "trace.slowdown":
                continue
            if unit == "s":
                out[name] = statistics.median(p[name] for p in self.passes)
            else:
                out[name] = first[name]
        counts = [{k: v for k, v in p.items() if not k.endswith("_s") and not k.endswith(".s")}
                  for p in self.passes]
        out["trace.counts_repeat"] = all(cnt == counts[0] for cnt in counts)
        return out
