"""The acceptance suite: twelve exact, deterministic checks.

Each criterion is a pure function returning (passed, detail).  Random
instances are drawn from fixed seeds so every run sees the same data;
fixtures are loaded from the package so the suite runs offline.
"""

from __future__ import annotations

import random
import time
import traceback
from importlib import resources

from . import complexes as cx
from . import formations as fm
from . import forms, generators as gen, lagrangians, matrices, plumbing, rings, serialize, unitary, witt

Z = rings.integers()


def fixture_path(name: str):
    return resources.files("surgery_algebra").joinpath("fixtures", name)


def load_fixture(name: str):
    with resources.as_file(fixture_path(name)) as p:
        return serialize.read_json(str(p))


def fixture_names(prefix: str) -> list[str]:
    base = resources.files("surgery_algebra").joinpath("fixtures")
    out = [e.name for e in base.iterdir() if e.name.startswith(prefix) and e.name.endswith(".json")]
    return sorted(out)


# --- criteria -------------------------------------------------------------


def criterion_1():
    """Q-group arithmetic over the integers."""
    plus = rings.q_eps_group(Z, 1)
    minus = rings.q_eps_group(Z, -1)
    sym = rings.symmetrize(rings.one(Z), 1)
    ok = (
        plus.free_rank == 1 and plus.torsion == ()
        and minus.free_rank == 0 and minus.torsion == (2,)
        and sym == rings.from_int(Z, 2)
    )
    return ok, (
        f"Q_+1(Z) = {plus}, Q_-1(Z) = {minus}, "
        f"symmetrize(1,+1) = {serialize.element_to_obj(sym)}"
    )


def criterion_2():
    """The E8 form: signature, class, unimodularity, mod-28 boundary class."""
    q = serialize.form_from_obj(load_fixture("e8.json"))
    sig = witt.signature(q)
    cls = witt.witt_class(q)
    _, d, _ = matrices.smith_normal_form(q.lam)
    snf_identity = d.sub(matrices.identity_matrix(Z, 8)).is_zero()
    exotic = plumbing.exotic7_class(q)
    ok = sig == 8 and cls.value == 1 and snf_identity and exotic == 1
    return ok, (
        f"signature = {sig}, witt class = {cls.value}, "
        f"SNF identity = {snf_identity}, boundary class mod 28 = {exotic}"
    )


def criterion_3():
    """Arf values and invariance under transported isometries."""
    hyper = forms.hyperbolic_quadratic(Z, -1, 1)
    arf0 = witt.arf(hyper)
    q_arf = serialize.form_from_obj(load_fixture("arf.json"))
    arf1 = witt.arf(q_arf)
    if arf0 != 0 or arf1 != 1:
        return False, f"arf(H) = {arf0}, arf(twisted) = {arf1}"
    rng = random.Random(3003)
    bases = [q_arf, forms.hyperbolic_quadratic(Z, -1, 2)]
    checked = 0
    for trial in range(100):
        q = bases[trial % 2]
        p = gen.shears(rng, Z, q.rank, 6)
        lam2 = p.star().mul(q.lam).mul(p)
        q2 = forms.QuadraticForm(Z, -1, lam2, forms.mu_values(q, p))
        if not forms.is_isometry(forms.FormIsometry(p), q2, q):
            return False, f"trial {trial}: transported matrix is not an isometry"
        if witt.arf(q2) != witt.arf(q):
            return False, f"trial {trial}: arf changed under isometry"
        checked += 1
    return True, f"arf(H) = 0, arf(twisted) = 1, invariant under {checked} isometries"


def criterion_4():
    """Nonsingular split forms decompose diagonally, exactly."""
    rng = random.Random(4004)
    c2 = rings.cyclic(2, 1)
    count = 0
    for ring in (Z, c2):
        for eps in (1, -1):
            for trial in range(50):
                half = rng.choice([1, 2])
                base = forms.hyperbolic_split(ring, eps, half)
                k = base.rank
                s = gen.transport(rng, base, gen.shears(rng, ring, k, 5))
                iso = lagrangians.diagonal_splitting(s)
                target = forms.direct_sum_split(s, forms.negate_split(s))
                source = forms.hyperbolic_split(ring, eps, k)
                if not forms.is_split_morphism(iso, source, target):
                    return False, f"{ring}, eps={eps}, trial {trial}: not a split morphism"
                if not matrices.is_unimodular(iso.f):
                    return False, f"{ring}, eps={eps}, trial {trial}: splitting not invertible"
                count += 1
    return True, f"{count} diagonal splittings verified over Z and Z[Z/2]"


def criterion_5():
    """Lagrangian extension and sublagrangian reduction verify and recombine."""
    rng = random.Random(5005)
    count = 0
    for trial in range(200):
        eps = rng.choice([1, -1])
        ell = rng.randint(1, 3)
        base = forms.hyperbolic_split(Z, eps, ell)
        k = base.rank
        p = gen.shears(rng, Z, k, 5)
        s = gen.transport(rng, base, p)
        pinv = matrices.inverse(p)
        lagr = pinv.submatrix(range(k), range(ell))
        ext = lagrangians.extend_lagrangian(s, lagr)
        if not forms.is_split_morphism(ext, base, s) or not matrices.is_unimodular(ext.f):
            return False, f"trial {trial}: lagrangian extension failed to verify"
        r = rng.randint(1, ell)
        sub = lagr.submatrix(range(k), range(r))
        residual, iso = lagrangians.sublagrangian_reduction(s, sub)
        source = forms.direct_sum_split(forms.hyperbolic_split(Z, eps, r), residual)
        if not forms.is_split_morphism(iso, source, s) or not matrices.is_unimodular(iso.f):
            return False, f"trial {trial}: reduction recombination failed to verify"
        count += 1
    return True, f"{count} extension/reduction pairs verified over Z"


def criterion_6():
    """Plumbing fixtures reproduce the standard forms bit for bit."""
    untw = plumbing.graph_to_form(serialize.graph_from_obj(load_fixture("i-graph-untwisted.json")))
    if untw != forms.hyperbolic_quadratic(Z, -1, 1):
        return False, "untwisted I-graph is not the rank-2 hyperbolic form"
    tw = plumbing.graph_to_form(serialize.graph_from_obj(load_fixture("i-graph-twisted.json")))
    if tw != serialize.form_from_obj(load_fixture("arf.json")):
        return False, "twisted I-graph is not the Arf form"
    e8 = plumbing.graph_to_form(serialize.graph_from_obj(load_fixture("e8-graph.json")))
    if e8 != serialize.form_from_obj(load_fixture("e8.json")):
        return False, "unit-weighted tree does not reproduce the E8 matrix"
    return True, "I-graphs give the hyperbolic and Arf forms; the tree gives E8, entry for entry"


def criterion_7():
    """Sphere-class arithmetic across all odd fibre twists up to 99."""
    c3, e3 = plumbing.milnor_sphere(3)
    c1, e1 = plumbing.milnor_sphere(1)
    if (c3, e3) != (8, True) or (c1, e1) != (0, False):
        return False, f"spot values: ell=3 -> {(c3, e3)}, ell=1 -> {(c1, e1)}"
    for ell in range(1, 100, 2):
        cls, exotic = plumbing.milnor_sphere(ell)
        expect_standard = ell % 7 in (1, 6)
        if exotic != (not expect_standard):
            return False, f"ell={ell}: exotic flag contradicts the mod-7 test"
        if exotic != (cls != 0):
            return False, f"ell={ell}: class {cls} and exotic flag disagree"
    return True, "ell=3 -> (8, exotic), ell=1 -> (0, standard); all odd ell <= 99 consistent"


def criterion_8():
    """Surgeries on the empty complex produce the two classical circle bundles."""
    details = []
    for parity in (0, 1):
        eps = 1 if parity == 0 else -1
        for delta in (0, 1):
            fx = load_fixture(f"zero-surgery-p{parity}-d{delta}.json")
            zero = serialize.complex_from_obj(fx["complex"])
            s = serialize.surgery_from_obj(fx["surgeries"][0], source=zero)
            effect, cob = cx.surgery_on_complex(zero, s)
            if effect != serialize.complex_from_obj(fx["effect"]):
                return False, f"parity {parity}, delta {delta}: effect differs from fixture"
            if not cx.validate_cobordism(zero, effect, cob):
                return False, f"parity {parity}, delta {delta}: trace does not validate"
            want = delta * (1 - eps)
            got = effect.d.entry(0, 0)
            if got != rings.from_int(Z, want):
                return False, f"parity {parity}, delta {delta}: d' = {got}, expected {want}"
            hn, hn1 = cx.complex_homology(effect)
            details.append(f"p{parity} d{delta}: d'={want}, H=({hn},{hn1})")
    con0 = cx.complex_homology(serialize.complex_from_obj(load_fixture("zero-surgery-p1-d0.json")["effect"]))
    con1 = cx.complex_homology(serialize.complex_from_obj(load_fixture("zero-surgery-p1-d1.json")["effect"]))
    ok = (
        con0[0].free_rank == 1 and con0[0].torsion == () and con0[1] == 1
        and con1[0].free_rank == 0 and con1[0].torsion == (2,) and con1[1] == 0
    )
    if not ok:
        return False, "homology of the two effects is not (Z, Z) and (Z/2, 0)"
    return True, "; ".join(details)


def criterion_9():
    """Formation homology agrees with complex homology on 200 random formations."""
    rng = random.Random(9009)
    for trial in range(200):
        eps = rng.choice([1, -1])
        k = rng.randint(1, 3)
        u = gen.word(rng, eps, k, rng.randint(1, 6))
        phi = fm.formation_from_automorphism(u)
        grp, inter = fm.formation_homology(phi)
        c = fm.formation_to_complex(phi)
        hn, hn1 = cx.complex_homology(c)
        if (grp.free_rank, grp.torsion) != (hn.free_rank, hn.torsion) or inter != hn1:
            return False, f"trial {trial}: ({grp},{inter}) != ({hn},{hn1})"
    return True, "200 random formations: quotient/intersection homology matches the complex"


def criterion_10():
    """Generator formations are boundaries; the flip is trivial; boundaries bound."""
    rng = random.Random(1010)
    for kind in (0, 1, 2):
        for trial in range(20):
            eps = rng.choice([1, -1])
            k = rng.randint(1, 3)
            u = gen.word(rng, eps, k, 1, kinds=(kind,))
            phi = fm.formation_from_automorphism(u)
            witness = fm._standard_dual(Z, k)
            try:
                kform, iso = fm.boundary_witness(phi, witness)
            except Exception as e:
                return False, f"generator kind {kind} trial {trial}: {e}"
            if not fm.verify_formation_isomorphism(fm.boundary_formation(kform), phi, iso.f):
                return False, f"generator kind {kind} trial {trial}: witness isomorphism failed"
            if kind in (0, 2) and not kform.lam.is_zero():
                return False, f"generator kind {kind} trial {trial}: expected the zero form"
    for trial in range(20):
        eps = rng.choice([1, -1])
        k = rng.randint(1, 4)
        triv = fm.is_trivial_formation(fm.formation_from_automorphism(unitary.sigma_eps(Z, eps, k)))
        if triv is None:
            return False, f"flip trial {trial}: formation not detected trivial"
    singular_count = 0
    for trial in range(50):
        eps = rng.choice([1, -1])
        k = rng.randint(0, 3)
        singular = trial % 3 == 0 and k > 0
        singular_count += singular
        kform = gen.minus_eps_form(rng, eps, k, singular)
        c, cob = fm.null_cobordism_of_boundary(kform)
        if not cx.validate_cobordism(c, cx.zero_complex(Z, c.parity), cob):
            return False, f"boundary trial {trial}: null-cobordism does not validate"
    return True, (
        "60 generator boundaries witnessed, 20 flips trivial, "
        f"50 boundary null-cobordisms valid ({singular_count} singular forms)"
    )


def criterion_11():
    """Traces glue with their reversals; every complex is cobordant to its twin."""
    rng = random.Random(1111)
    unions = 0
    for trial in range(50):
        eps = rng.choice([1, -1])
        k = rng.randint(1, 3)
        u = gen.word(rng, eps, k, rng.randint(1, 5))
        c = fm.formation_to_complex(fm.formation_from_automorphism(u))
        s = None
        for attempt in range(200):
            cand = gen.surgery_data(rng, k, [1, k], 1)
            if cx.surgery_admissible(c, cand):
                s = cand
                break
        if s is None:
            return False, f"trial {trial}: no admissible surgery found"
        effect, trace = cx.surgery_on_complex(c, s)
        if not cx.validate_cobordism(c, effect, trace):
            return False, f"trial {trial}: trace does not validate"
        glued = cx.union_cobordisms(c, effect, c, trace, cx.reverse_cobordism(trace))
        if not cx.validate_cobordism(c, c, glued):
            return False, f"trial {trial}: union with the reversal does not validate"
        unions += 1
        twin, refl = cx.reflexive_cobordism(c)
        if not cx.validate_cobordism(c, twin, refl):
            return False, f"trial {trial}: reflexive cobordism does not validate"
    return True, f"{unions} trace-with-reversal unions and reflexive cobordisms verified"


def criterion_12():
    """Curated complexes all reach a contractible effect by the shipped surgeries."""
    names = fixture_names("null-sequence-")
    if len(names) != 20:
        return False, f"expected 20 curated fixtures, found {len(names)}"
    for name in names:
        fx = load_fixture(name)
        c = serialize.complex_from_obj(fx["complex"])
        u = serialize.unitary_from_obj(fx["automorphism"])
        rebuilt = fm.formation_to_complex(fm.formation_from_automorphism(u))
        if rebuilt != c:
            return False, f"{name}: complex does not match its automorphism"
        if not cx.validate_complex(c):
            return False, f"{name}: shipped complex is invalid"
        current = c
        for idx, sobj in enumerate(fx["surgeries"]):
            s = serialize.surgery_from_obj(sobj, source=current)
            effect, trace = cx.surgery_on_complex(current, s)
            if not cx.validate_cobordism(current, effect, trace):
                return False, f"{name}: step {idx} trace does not validate"
            current = effect
        if not cx.is_contractible(current):
            return False, f"{name}: final effect is not contractible"
    return True, "20 automorphism complexes reach a contractible effect; every trace validates"


CRITERIA = (
    (1, "q-group arithmetic", criterion_1),
    (2, "e8 invariants", criterion_2),
    (3, "arf invariance", criterion_3),
    (4, "diagonal splitting", criterion_4),
    (5, "lagrangian extension and reduction", criterion_5),
    (6, "plumbing fixtures", criterion_6),
    (7, "sphere-class arithmetic", criterion_7),
    (8, "surgery on the empty complex", criterion_8),
    (9, "formation homology coherence", criterion_9),
    (10, "boundaries and triviality", criterion_10),
    (11, "cobordism algebra", criterion_11),
    (12, "odd-dimensional vanishing over Z", criterion_12),
)


def _package_frame(exc: BaseException) -> str:
    """module:function:line of the innermost traceback frame inside this package."""
    where = "unknown"
    for frame, line in traceback.walk_tb(exc.__traceback__):
        # a module run as a script (python -m) is named "__main__"; its spec keeps its name
        spec = frame.f_globals.get("__spec__")
        module = spec.name if spec else frame.f_globals.get("__name__", "")
        if module.split(".")[0] == __package__:
            where = f"{module}:{frame.f_code.co_name}:{line}"
    return where


def run_criterion(number: int) -> dict:
    for num, name, fn in CRITERIA:
        if num == number:
            start = time.monotonic()
            try:
                ok, detail = fn()
            except Exception as e:  # a crash is a failure, not an error report
                ok, detail = False, f"exception {type(e).__name__} at {_package_frame(e)}: {e}"
            return {
                "criterion": num,
                "name": name,
                "passed": bool(ok),
                "detail": detail,
                "seconds": round(time.monotonic() - start, 3),
            }
    raise ValueError(f"no criterion numbered {number}")


def run_all() -> list[dict]:
    return [run_criterion(num) for num, _, _ in CRITERIA]
