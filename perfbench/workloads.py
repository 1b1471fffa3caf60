"""The three workloads: a fixed list of timed steps, each a list of operations.

A workload is built once per process from its seed.  ``steps`` is the pass
the timed loop repeats; the host-speed reference is measured between steps,
so a step groups operations too small to bracket one by one.  ``warmup``
runs before the first timed operation and is part of set-up.  Every
operation carries the independent check of its output (from ``checks``).
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

import checks
import gen


@dataclass
class Op:
    """One timed call into the package.

    ``run`` is the only timed part.  ``collect`` turns its raw return value
    into plain data, which later passes must reproduce exactly; ``check``
    returns None or the identity that failed; ``bits`` is the largest
    bit-length of any integer in a matrix or ring element the call returned.
    """

    name: str
    kind: str
    run: Callable[[], object]
    collect: Callable[[object], object] = lambda raw: raw
    check: Callable[[object], object] = lambda out: None
    bits: Callable[[object], int] = lambda out: 0


@dataclass
class Workload:
    steps: list
    top_kind: str
    warmup: Callable[[], int]


# -- suite ---------------------------------------------------------------------


SUITE_WARMUP = (1, 2, 6, 7, 8, 12)


def suite(pkg, seed, workdir):
    """The 12 acceptance criteria in order, one step each.

    The criteria draw their instances from the package's own fixed seeds,
    so ``seed`` does not change this workload.
    """
    acceptance = pkg.acceptance

    def criterion(n):
        return Op(
            name=f"criterion-{n}",
            kind=f"criterion-{n}",
            run=lambda: acceptance.run_criterion(n),
            collect=lambda rep: (rep["passed"], rep["detail"]),
            check=lambda out: None if out[0] else f"criterion failed: {out[1]}",
        )

    def warmup():
        # The suite returns no matrices, so its witness size is read off the
        # matrix layer's lattice functions while the cheap criteria run once.
        matrices = pkg.matrices
        names = ("smith_normal_form", "kernel_basis", "solve_right", "try_inverse",
                 "complement_of_primitive", "completion_of_primitive_vector")
        saved = {n: getattr(matrices, n) for n in names}
        best = [0]

        def recording(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                best[0] = max(best[0], checks.bits_max(_plain(out)))
                return out
            return wrapper

        try:
            for n in names:
                setattr(matrices, n, recording(saved[n]))
            for n in SUITE_WARMUP:
                if not acceptance.run_criterion(n)["passed"]:
                    raise RuntimeError(f"warm-up criterion {n} failed")
        finally:
            for n in names:
                setattr(matrices, n, saved[n])
        return best[0]

    return Workload([[criterion(n)] for n in range(1, 13)], "criterion-5", warmup)


def _plain(obj):
    """Package matrices, ring elements and tuples of them as nested int lists."""
    if hasattr(obj, "entries"):
        return [[list(e.coeffs) for e in row] for row in obj.entries]
    if hasattr(obj, "coeffs"):
        return list(obj.coeffs)
    if isinstance(obj, tuple):
        return [_plain(o) for o in obj]
    return obj


# -- rank ladder -------------------------------------------------------------------

RANKS = (8, 16, 32)
# Instances that set top_op_ms, most of a pass or the witness sizes come
# from this fixed seed, not from --seed: the rank-32 rung of rank-ladder, and
# the matrices that group-rings inverts, whose rows and columns --seed then
# scales by units.  Drawn from --seed, they varied more between seeds than
# the bounds allow.  --seed draws every other instance.
PINNED_SEED = "pinned"
LADDER_EPS = {8: -1, 16: 1, 32: -1}
WITNESS_KEYS = ("isometry", "residual", "trivializer", "form", "split", "formation",
                "effect", "cobordism", "kernel_form")


class Cli:
    """Runs CLI verbs in process and reads their reports back."""

    def __init__(self, pkg, workdir):
        self.cli = pkg.cli
        self.workdir = workdir
        self.count = 0

    def write(self, name, obj):
        path = os.path.join(self.workdir, re.sub(r"[^\w.+-]", "_", name))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def op(self, name, kind, argv, check=lambda result: None):
        self.count += 1
        out = os.path.join(self.workdir, f"report-{self.count}.json")
        argv = list(argv) + ["--out", out]
        cli = self.cli

        def collect(status):
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            if status != 0:
                raise RuntimeError(f"exit status {status}: {report.get('error')}")
            return report["result"]

        return Op(name, kind, lambda: cli.main(argv), collect, check,
                  lambda result: checks.bits_max([result.get(k) for k in WITNESS_KEYS]))


def _fixture_ops(pkg, cli):
    """Every verb on every shipped fixture it applies to, plus the two verbs
    that read no file."""
    base = os.path.join(os.path.dirname(pkg.cli.__file__), "fixtures")
    ops = [
        cli.op("hyperbolic", "fixture", ["hyperbolic", "--epsilon", "-1", "--ell", "2"]),
        cli.op("milnor", "fixture", ["milnor", "--ell", "3"],
               lambda r: None if r == {"class_mod_28": 8, "exotic": True} else f"milnor: {r}"),
    ]
    expected = {"e8.json": ("signature", 8), "arf.json": ("arf", 1)}
    for name in sorted(os.listdir(base)):
        path = os.path.join(base, name)
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if "lambda" in obj:
            verbs = ["form-info", "split", "boundary", "sphere", "witt"]
            verbs.append("signature" if obj["epsilon"] == 1 else "arf")
            for verb in verbs:
                check = lambda r: None
                if name in expected and verb == expected[name][0]:
                    key, want = expected[name]
                    check = lambda r, key=key, want=want: (
                        None if r[key] == want else f"{key} = {r[key]}, expected {want}")
                ops.append(cli.op(f"{verb} {name}", "fixture", [verb, "--in", path], check))
        elif "weights" in obj:
            ops.append(cli.op(f"plumb {name}", "fixture", ["plumb", "--in", path]))
        elif "surgeries" in obj:
            ops.append(cli.op(
                f"surgery-complex {name}", "fixture", ["surgery-complex", "--in", path],
                lambda r: None if r["traces_valid"] else "a surgery trace does not validate"))
            cpath = cli.write(f"complex-{name}", obj["complex"])
            ops.append(cli.op(
                f"complex-validate {name}", "fixture", ["complex-validate", "--in", cpath],
                lambda r: None if r["valid"] else f"shipped complex invalid: {r['violations']}"))
            ops.append(cli.op(f"complex-homology {name}", "fixture",
                              ["complex-homology", "--in", cpath]))
            ops.append(cli.op(f"formation {name}", "fixture", ["formation", "--in", cpath]))
            if "automorphism" in obj:
                apath = cli.write(f"aut-{name}", obj["automorphism"])
                ops.append(cli.op(f"formation-from-aut {name}", "fixture",
                                  ["formation-from-aut", "--in", apath]))
    return ops


def _coker_check(key, rank_key, mat):
    return lambda res: checks.check_cokernel(mat, res[key], res[rank_key])


def _boundary_check(mat):
    inner = _coker_check("h_n", "h_n_plus_1_rank", mat)
    return lambda res: inner(res) or (
        None if res["is_sphere"] else "a unimodular form does not bound a sphere")


def _value_check(key, want):
    return lambda res: None if res[key] == want else f"{key} = {res[key]}, expected {want}"


def rank_ladder(pkg, seed, workdir):
    """CLI verbs on the shipped fixtures, then on generated Z inputs at ranks
    8, 16 and 32 (one step per call above the fixture rung)."""
    cli = Cli(pkg, workdir)
    steps = [_fixture_ops(pkg, cli)]
    for r in RANKS:
        rng = random.Random(f"{PINNED_SEED if r == RANKS[-1] else seed}-r{r}")
        ell = r // 2
        eps = LADDER_EPS[r]
        mix = r * (r.bit_length() - 1)  # r log2 r elementary steps mix a rank-r lattice
        lam, mu, basis = gen.transported_hyperbolic(rng, eps, ell, mix)
        form = gen.z_form_obj(eps, lam, mu)
        fpath = cli.write(f"hyperbolic-{r}.json", form)
        lpath = cli.write(f"lagrangian-{r}.json", {"form": form, "basis": basis})
        sub = ell // 2
        spath = cli.write(f"sublagrangian-{r}.json",
                          {"form": form, "basis": [row[:sub] for row in basis]})
        e8lam, e8mu = gen.transported_e8(rng, r, mix)
        epath = cli.write(f"e8-{r}.json", gen.z_form_obj(1, e8lam, e8mu))
        blocks = gen.automorphism_word(rng, eps, ell, 3 * ell)
        wpath = cli.write(f"formation-{r}.json", gen.formation_obj(eps, blocks))
        cplx = gen.complex_obj(eps, blocks)
        cpath = cli.write(f"complex-{r}.json", cplx)

        def ext_check(res, lam=lam, mu=mu, eps=eps, basis=basis):
            if not res["verified"]:
                return "the CLI did not verify its own extension"
            return checks.check_lagrangian_extension(lam, mu, eps, basis, res["isometry"])

        def red_check(res, lam=lam, mu=mu, eps=eps, sub=sub):
            return checks.check_reduction(lam, mu, eps, sub, res["residual"]["psi"],
                                          res["isometry"])

        rung = [
            cli.op(f"lagrangian-extend r{r}", f"lagrangian-extend/r{r}",
                   ["lagrangian-extend", "--in", lpath], ext_check),
            cli.op(f"reduce r{r}", f"reduce/r{r}", ["reduce", "--in", spath], red_check),
            cli.op(f"formation r{r}", f"formation/r{r}", ["formation", "--in", wpath],
                   _coker_check("quotient", "intersection_rank", blocks["gamma"])),
            cli.op(f"complex-homology r{r}", f"complex-homology/r{r}",
                   ["complex-homology", "--in", cpath],
                   _coker_check("h_n", "h_n_plus_1_rank", cplx["d"])),
            cli.op(f"boundary r{r}", f"boundary/r{r}", ["boundary", "--in", fpath],
                   _boundary_check(lam)),
            cli.op(f"witt r{r}", f"witt/r{r}", ["witt", "--in", fpath], _value_check("class", 0)),
            cli.op(f"boundary e8 r{r}", f"boundary/r{r}", ["boundary", "--in", epath],
                   _boundary_check(e8lam)),
            cli.op(f"signature e8 r{r}", f"signature/r{r}", ["signature", "--in", epath],
                   _value_check("signature", 8)),
            cli.op(f"witt e8 r{r}", f"witt/r{r}", ["witt", "--in", epath],
                   _value_check("class", 1)),
        ]
        if eps == 1:
            rung.append(cli.op(f"signature r{r}", f"signature/r{r}",
                               ["signature", "--in", fpath], _value_check("signature", 0)))
        if r == RANKS[-1]:
            # the top operation runs twice a pass, so a run has twice its samples
            rung.insert(1, cli.op(f"lagrangian-extend r{r} again", f"lagrangian-extend/r{r}",
                                  ["lagrangian-extend", "--in", lpath], ext_check))
        steps.extend([op] for op in rung)

    def warmup():
        for op in steps[0]:
            op.run()
        return 0

    return Workload(steps, f"lagrangian-extend/r{RANKS[-1]}", warmup)


# -- group rings ------------------------------------------------------------------

CYCLIC = [(m, w) for m in range(2, 9) for w in (1, -1) if w == 1 or m % 2 == 0]
LAURENT_SIZES = (4, 6, 8, 10)
LAURENT_WINDOWS = (100, 200, 300)
CYCLIC_SIZE = 6


def group_rings(pkg, seed, workdir):
    """Inverses, Q_eps reduction, symmetrisation preimages and form-info over
    Z[Z/m] (both orientation characters) and Z[z,z^-1]."""
    rng = random.Random(seed)
    rings_mod, matrices, sz = pkg.rings, pkg.matrices, pkg.serialize
    cli = Cli(pkg, workdir)
    steps = []
    warm = []

    def to_pkg_element(ring, x):
        return sz.element_from_obj(sz.ring_from_obj(ring.spec()), ring.to_obj(x))

    def from_pkg(ring, e):
        if ring.kind == "laurent":
            return {e.shift + i: c for i, c in enumerate(e.coeffs) if c}
        return list(e.coeffs)

    def inverse_op(ring, label, m):
        pm = sz.matrix_from_obj(sz.ring_from_obj(ring.spec()),
                                [[ring.to_obj(x) for x in row] for row in m])
        kind = f"try_inverse/{ring.kind}" + (f"/n{len(m)}" if ring.kind == "laurent" else "")
        return Op(
            f"try_inverse {label} n{len(m)}", kind,
            lambda: matrices.try_inverse(pm),
            lambda inv: None if inv is None else [[from_pkg(ring, e) for e in row]
                                                  for row in inv.entries],
            lambda inv: "no inverse returned" if inv is None else checks.check_inverse(ring, m, inv),
            lambda inv: checks.bits_max(inv),
        )

    def reduce_op(ring, label, elements, eps):
        """q_eps_reduce on a, on its representative and on a + x - eps*conj(x)."""
        triples = []
        for a, x in elements:
            moved = ring.add(a, checks.symmetrize(ring, x, -eps))
            triples.append((to_pkg_element(ring, a), to_pkg_element(ring, moved)))

        def run():
            out = []
            for a, moved in triples:
                rep = rings_mod.q_eps_reduce(a, eps).rep
                out.append((rep, rings_mod.q_eps_reduce(rep, eps).rep,
                            rings_mod.q_eps_reduce(moved, eps).rep))
            return out

        def check(out):
            for reps in out:
                err = checks.check_reduction_class(ring, *reps)
                if err:
                    return err
            return None

        return Op(f"q_eps_reduce {label} eps{eps:+d}", f"q_eps_reduce/{ring.kind}", run,
                  lambda raw: [tuple(from_pkg(ring, e) for e in t) for t in raw], check,
                  checks.bits_max)

    def preimage_op(ring, label, xs, eps):
        images = [checks.symmetrize(ring, x, eps) for x in xs]
        args = [to_pkg_element(ring, a) for a in images]

        def check(out):
            for a, x in zip(images, out):
                err = checks.check_preimage(ring, a, eps, x)
                if err:
                    return err
            return None

        return Op(f"symmetrize_preimage {label} eps{eps:+d}", f"symmetrize_preimage/{ring.kind}",
                  lambda: [rings_mod.symmetrize_preimage(a, eps) for a in args],
                  lambda raw: [None if x is None else from_pkg(ring, x) for x in raw], check,
                  checks.bits_max)

    def form_info_op(ring, label, eps, ell, terms, span):
        lam, mu = gen.ring_hyperbolic(rng, ring, eps, ell, terms, span)
        path = cli.write(f"form-{label}-{eps}.json", {
            "ring": ring.spec(), "epsilon": eps,
            "lambda": [[ring.to_obj(x) for x in row] for row in lam],
            "mu": [ring.to_obj(x) for x in mu],
        })
        want = {"nonsingular": True, "even": True}
        return cli.op(f"form-info {label} eps{eps:+d}", f"form-info/{ring.kind}",
                      ["form-info", "--in", path],
                      lambda r: None if {k: r[k] for k in want} == want
                      else f"transported hyperbolic form reported {r}")

    def pinned_unimodular(ring, label, n, terms, span):
        """A pinned dense invertible matrix with rows and columns scaled by
        seeded units +-g^k, which change no coefficient's size."""
        base = gen.ring_unimodular(random.Random(f"{PINNED_SEED}-{label}-n{n}"),
                                   ring, n, terms, span)
        rows = [gen.random_element(rng, ring, 1, 3) for _ in range(n)]
        cols = [gen.random_element(rng, ring, 1, 3) for _ in range(n)]
        return [[ring.mul(ring.mul(rows[i], base[i][j]), cols[j]) for j in range(n)]
                for i in range(n)]

    for m, w in CYCLIC:
        ring = checks.CyclicRing(m, w)
        label = f"Z[Z/{m}]{'+' if w == 1 else '-'}"
        inv = inverse_op(ring, label, pinned_unimodular(ring, f"{m}{w}", CYCLIC_SIZE, 2, 0))
        small = []
        for eps in (1, -1):
            pairs = [(gen.random_element(rng, ring, 2 * m, 0), gen.random_element(rng, ring, m, 0))
                     for _ in range(8)]
            small.append(reduce_op(ring, label, pairs, eps))
            small.append(preimage_op(ring, label, [p[1] for p in pairs], eps))
            small.append(form_info_op(ring, label, eps, 2, 2, 0))
        steps.append([inv] + small)
        warm.extend(small)

    ring = checks.LaurentRing()
    for n in LAURENT_SIZES:
        steps.append([inverse_op(ring, "Z[z,z^-1]", pinned_unimodular(ring, "laurent", n, 1, 1))])
    small = []
    for eps in (1, -1):
        pairs = [(gen.spanning_element(rng, -w, w), gen.spanning_element(rng, 1 - w, w - 1))
                 for w in LAURENT_WINDOWS]
        small.append(reduce_op(ring, "Z[z,z^-1]", pairs, eps))
        xs = [gen.spanning_element(rng, -w, w) for w in LAURENT_WINDOWS]
        small.append(preimage_op(ring, "Z[z,z^-1]", xs, eps))
        small.append(form_info_op(ring, "Z[z,z^-1]", eps, 2, 1, 1))
    steps.append(small)
    warm.extend(small)

    def warmup():
        # fills the Q-lattice cache in rings for every window the pass uses
        for op in warm:
            op.run()
        return 0

    return Workload(steps, f"try_inverse/laurent/n{LAURENT_SIZES[-1]}", warmup)


WORKLOADS = {"suite": suite, "rank-ladder": rank_ladder, "group-rings": group_rings}
