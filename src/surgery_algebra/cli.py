"""Command-line front end.

Every verb reads JSON from --in, runs one library operation, and emits a
JSON report (to --out or stdout) holding the result, the provenance (the
input paths with the sha256 of each, the package version and the fixtures
consumed), and the wall-clock timing.  Exit status is 0 on success, 1 when
the library rejects the mathematics (domain errors), and 2 when the input
cannot be understood at all (schema errors).  A failed call reports
``error`` (the message), ``kind`` (``schema`` or ``domain``) and ``where``,
the ``module:function:line`` of the innermost package frame that raised.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

try:  # the builtin module, as random does for sha512: hashlib loads OpenSSL, about 4 MB resident
    from _sha256 import sha256
except ImportError:  # not built in, or renamed (Python 3.12 has _sha2)
    from hashlib import sha256

from . import __version__, acceptance, complexes as cx, formations as fm, forms, lagrangians
from . import plumbing, rings, serialize as sz, witt
from .errors import SchemaError, SurgeryAlgebraError

# the largest hyperbolic form the CLI writes: rank 2048, about 8 MB of JSON
MAX_HYPERBOLIC_ELL = 1024


def _load(args, name: str = "input"):
    path = getattr(args, name)
    return sz.read_json(path, args.raw[path])


# --- verb implementations ---------------------------------------------------


def verb_form_info(args):
    """Every form that parses is even: ``QuadraticForm`` has checked
    lambda_ii = mu_i + eps*conj(mu_i), so each diagonal entry is a symmetrisation."""
    q = sz.form_from_obj(_load(args))
    return {
        "ring": sz.ring_to_obj(q.ring),
        "epsilon": q.epsilon,
        "rank": q.rank,
        "nonsingular": forms.is_nonsingular(q),
        "even": True,
    }


def verb_witt(args):
    q = sz.form_from_obj(_load(args))
    cls = witt.witt_class(q)
    out = {"epsilon": q.epsilon, "class": cls.value}
    if q.epsilon == 1:  # the class is signature / 8, and 8 divides the signature
        out["signature"] = 8 * cls.value
    return out


def verb_arf(args):
    q = sz.form_from_obj(_load(args))
    return {"arf": witt.arf(q)}


def verb_signature(args):
    q = sz.form_from_obj(_load(args))
    return {"signature": witt.signature(q)}


def verb_hyperbolic(args):
    if not 0 <= args.ell <= MAX_HYPERBOLIC_ELL:
        raise SchemaError(f"--ell must lie in [0, {MAX_HYPERBOLIC_ELL}], got {args.ell}")
    q = forms.hyperbolic_quadratic(rings.integers(), args.epsilon, args.ell)
    return {"form": sz.form_to_obj(q)}


def verb_split(args):
    q = sz.form_from_obj(_load(args))
    return {"split": sz.split_to_obj(forms.quadratic_to_split(q))}


def verb_surgery_form(args):
    obj = sz._require_keys(_load(args), ("form", "x"), "surgery input")
    q = sz.form_from_obj(obj["form"])
    xdata = obj["x"]
    if not isinstance(xdata, list):
        raise SchemaError("x must be a list of entries")
    x = sz.matrix_from_obj(q.ring, [[v] for v in xdata], rows=q.rank, cols=1)
    out = lagrangians.surgery_on_form(q, x)
    return {"form": sz.form_to_obj(out)}


def verb_lagrangian_extend(args):
    """``verified`` rests on the witness ``extend_lagrangian`` certified before returning:
    its chi gives f*·lambda·f = lambda_H and mu = 0 on the first half of the square f, so
    conj(det f)·det lambda·det f = +-1 and the basis is a lagrangian of a nonsingular form,
    the first half of an isometry from H."""
    q, inc = sz.inclusion_from_obj(_load(args))
    ext = lagrangians.extend_lagrangian(forms.quadratic_to_split(q), inc)
    return {"isometry": sz.matrix_to_obj(ext.f), "verified": True}


def verb_reduce(args):
    q, inc = sz.inclusion_from_obj(_load(args))
    s = forms.quadratic_to_split(q)
    residual, iso = lagrangians.sublagrangian_reduction(s, inc)
    return {
        "residual": sz.split_to_obj(residual),
        "isometry": sz.matrix_to_obj(iso.f),
    }


def verb_plumb(args):
    g = sz.graph_from_obj(_load(args))
    q = plumbing.graph_to_form(g)
    return {"form": sz.form_to_obj(q), "rank": q.rank, "epsilon": q.epsilon}


def verb_boundary(args):
    q = sz.form_from_obj(_load(args))
    hn, hn1 = plumbing.boundary_homology(q)
    return {
        "h_n": sz.group_to_obj(hn),
        "h_n_plus_1_rank": hn1,
        "is_sphere": hn == rings.AbelianGroup(0, ()),
    }


def verb_sphere(args):
    q = sz.form_from_obj(_load(args))
    if q.epsilon != 1:
        return {"is_sphere": plumbing.is_homotopy_sphere_boundary(q)}
    cls = plumbing.sphere_class(q)
    return {"is_sphere": False} if cls is None else {"is_sphere": True, "class_mod_28": cls}


def verb_milnor(args):
    cls, exotic = plumbing.milnor_sphere(args.ell)
    return {"class_mod_28": cls, "exotic": exotic}


def verb_complex_validate(args):
    c = sz.complex_from_obj(_load(args))
    bad = cx.complex_violations(c)
    return {"valid": not bad, "violations": list(bad)}


def verb_complex_homology(args):
    c = sz.complex_from_obj(_load(args))
    hn, hn1 = cx.complex_homology(c)
    return {"h_n": sz.group_to_obj(hn), "h_n_plus_1_rank": hn1}


def verb_formation(args):
    if args.stabilize < 0:
        raise SchemaError(f"--stabilize must be at least 0, got {args.stabilize}")
    obj = _load(args)
    keys = obj if isinstance(obj, dict) else {}  # formation_from_obj refuses a list, string or scalar
    if "psi0" in keys:
        phi = fm.complex_to_formation(sz.complex_from_obj(obj))
        return {"formation": sz.formation_to_obj(phi)}
    if "first" in keys or "second" in keys:
        sz._require_keys(obj, ("first", "second", "isometry"), "stable comparison")
        a = sz.formation_from_obj(obj["first"])
        b = sz.formation_from_obj(obj["second"])
        iso = sz.matrix_from_obj(a.ring, obj["isometry"])
        return {
            "stably_isomorphic": fm.verify_stable_isomorphism(a, b, iso, args.stabilize, args.stabilize),
            "pad": args.stabilize,
        }
    phi = sz.formation_from_obj(obj)
    out = {"violations": list(fm.formation_violations(phi))}
    out["valid"] = not out["violations"]
    if out["valid"]:
        grp, inter = fm.formation_homology(phi)
        out["quotient"] = sz.group_to_obj(grp)
        out["intersection_rank"] = inter
        triv = fm._trivializer(phi)  # phi was validated above
        out["trivial"] = triv is not None
        if triv is not None:
            out["trivializer"] = sz.matrix_to_obj(triv.f)
        if args.witness:
            h = sz.matrix_from_obj(phi.ring, _load(args, "witness"), rows=phi.rank)
            kform, iso = fm._boundary_witness(phi, h)
            out["kernel_form"] = sz.form_to_obj(kform)
            out["isometry"] = sz.matrix_to_obj(iso.f)
    return out


def verb_formation_from_aut(args):
    u = sz.unitary_from_obj(_load(args))
    phi = fm.formation_from_automorphism(u)
    return {"formation": sz.formation_to_obj(phi)}


def verb_surgery_complex(args):
    obj = sz._require_keys(_load(args), ("complex", "surgeries"), "surgery input")
    c = sz.complex_from_obj(obj["complex"])
    steps = obj["surgeries"]
    if not isinstance(steps, list):
        raise SchemaError("surgeries must be a list")
    current = c
    traces_valid = True
    for step in steps:
        s = sz.surgery_from_obj(step, source=current)
        effect, trace = cx.surgery_on_complex(current, s)
        traces_valid = traces_valid and cx.validate_cobordism(current, effect, trace)
        current = effect
    return {
        "effect": sz.complex_to_obj(current),
        "traces_valid": traces_valid,
        "contractible": cx.is_contractible(current),
    }


def verb_cobordism_validate(args):
    obj = sz._require_keys(_load(args), ("source", "target", "cobordism"), "cobordism input")
    c = sz.complex_from_obj(obj["source"])
    cprime = sz.complex_from_obj(obj["target"])
    cob = sz.cobordism_from_obj(c.ring, obj["cobordism"], source=c, target=cprime)
    return {"valid": cx.validate_cobordism(c, cprime, cob)}


def verb_union(args):
    obj = sz._require_keys(_load(args), ("left", "middle", "right", "first", "second"), "union input")
    left, middle, right = (sz.complex_from_obj(obj[k]) for k in ("left", "middle", "right"))
    first = sz.cobordism_from_obj(left.ring, obj["first"], source=left, target=middle)
    second = sz.cobordism_from_obj(left.ring, obj["second"], source=middle, target=right)
    glued = cx.union_cobordisms(left, middle, right, first, second)
    return {
        "cobordism": sz.cobordism_to_obj(glued),
        "valid": cx.validate_cobordism(left, right, glued),
    }


def verb_suite(args):
    reports = acceptance.run_all()
    for rep in reports:
        status = "PASS" if rep["passed"] else "FAIL"
        print(f"{status} criterion {rep['criterion']:2d} ({rep['name']}): {rep['detail']}")
    return {
        "criteria": reports,
        "passed": all(r["passed"] for r in reports),
    }


VERBS = {
    "form-info": (verb_form_info, "summarize a quadratic form file"),
    "witt": (verb_witt, "stable class of a nonsingular form over Z"),
    "arf": (verb_arf, "arf invariant of a (-1)-quadratic form over Z"),
    "signature": (verb_signature, "signature of a (+1)-form over Z"),
    "hyperbolic": (verb_hyperbolic, "emit a standard hyperbolic form"),
    "split": (verb_split, "canonical split lift of a quadratic form"),
    "surgery-form": (verb_surgery_form, "kill a mu-isotropic vector in a form"),
    "lagrangian-extend": (verb_lagrangian_extend, "extend a lagrangian to a hyperbolic isomorphism"),
    "reduce": (verb_reduce, "split a hyperbolic block off a sublagrangian"),
    "plumb": (verb_plumb, "intersection form of a plumbing graph"),
    "boundary": (verb_boundary, "boundary homology of a plumbing form"),
    "sphere": (verb_sphere, "does the plumbing boundary have sphere homology"),
    "milnor": (verb_milnor, "mod-28 class of an odd sphere bundle twist"),
    "complex-validate": (verb_complex_validate, "check the duality conditions of a complex"),
    "complex-homology": (verb_complex_homology, "homology of a two-term complex"),
    "formation": (verb_formation, "analyze a formation (or build one from a complex)"),
    "formation-from-aut": (verb_formation_from_aut, "formation of a hyperbolic automorphism"),
    "surgery-complex": (verb_surgery_complex, "apply a surgery sequence to a complex"),
    "cobordism-validate": (verb_cobordism_validate, "check a cobordism between complexes"),
    "union": (verb_union, "glue two cobordisms along their middle complex"),
    "suite": (verb_suite, "run the full acceptance suite"),
}

NEEDS_INPUT = VERBS.keys() - {"hyperbolic", "milnor", "suite"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surgery-algebra",
        description="exact computations with quadratic forms, complexes, and formations",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_text) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        if verb in NEEDS_INPUT:
            p.add_argument("--in", dest="input", required=True, help="input JSON file")
        p.add_argument("--out", dest="output", help="write the report here instead of stdout")
        if verb == "hyperbolic":
            p.add_argument("--epsilon", type=int, choices=(1, -1), required=True)
            p.add_argument("--ell", type=int, required=True, help=f"rank of the lagrangian summand, 0 to {MAX_HYPERBOLIC_ELL}")
        if verb == "milnor":
            p.add_argument("--ell", type=int, required=True, help="odd twisting parameter")
        if verb == "formation":
            p.add_argument("--witness", help="JSON matrix file: a lagrangian to test as a common complement")
            p.add_argument("--stabilize", type=int, default=0,
                           help="pad both sides with this many trivial ranks (at least 0) before comparing")
    return parser


def _read(path: str):
    """The file's bytes, or None when it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _failed(report: dict, e: BaseException, message: str, status: int) -> int:
    """status, once report records the failure e: its message, its kind by the exit status
    (2 for schema, 1 for domain) and where in the package it was raised."""
    report.update(error=message, kind="schema" if status == 2 else "domain", where=acceptance._package_frame(e))
    return status


def main(argv=None) -> int:
    # the parser is built once and holds no verb functions; look each up here
    args = build_parser().parse_args(argv)
    inputs = [p for p in (getattr(args, "input", None), getattr(args, "witness", None)) if p]
    args.raw = {p: _read(p) for p in inputs}  # each input is opened once: verbs parse the bytes hashed here
    digests = [None if args.raw[p] is None else sha256(args.raw[p]).hexdigest() for p in inputs]
    report = {"verb": args.verb}
    start = time.monotonic()
    try:
        result = VERBS[args.verb][0](args)
        status = 0
    except SurgeryAlgebraError as e:
        status = _failed(report, e, str(e), 2 if isinstance(e, SchemaError) else 1)
    if status == 0:
        report["result"] = result
        if args.verb == "suite" and not result["passed"]:
            status = 1
    report["provenance"] = {
        "inputs": inputs,
        "sha256": digests,
        "version": __version__,
        "fixtures": acceptance.fixture_names("") if args.verb == "suite" else [],
    }
    report["seconds"] = round(time.monotonic() - start, 3)
    text = sz.dumps_canonical(report)
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            return status
        except OSError as e:  # the report goes to stdout instead, as a schema error
            report.pop("result", None)
            status = _failed(report, e, f"cannot write the report to {args.output}: {e.strerror}", 2)
            text = sz.dumps_canonical(report)
    sys.stdout.write(text)
    return status


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
