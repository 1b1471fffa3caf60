"""JSON wire formats for every object the CLI reads or writes.

One object per file, UTF-8, canonical key order.  Matrices are arrays of
rows of ring-element encodings; a p x 0 matrix is p empty rows and a 0 x q
matrix is [], with the missing dimension recovered from context (the square
members of each composite object carry it).  Ring elements encode as a bare
integer over the integers, a length-m coefficient list over a cyclic group
ring, and {"origin": o, "coeffs": [...]} over the Laurent ring.

Each group-ring element format is read by ``_window`` alone, which
``element_from_obj`` and ``matrix_from_obj`` share.  A matrix is read without
building ring elements: over Z its rows go to ``matrices.matrix``, which
refuses an entry that is no int, and over Z[Z/m] and Z[z,z^-1] the windows of
its entries, read in row-major order so that an error names the first bad
one, go to ``matrices.from_windows``.

A reader checks the size caps below and the shapes it needs to parse (the
dimensions one matrix takes from another).  The constructors type their own
ints, by ``rings._check_int``, and check their own invariants, such as a
parity in {0, 1} or a square block.
"""

from __future__ import annotations

import io
import json
from itertools import chain

from . import complexes, formations, forms, lagrangians, matrices, plumbing, rings, unitary
from .errors import SchemaError
from .matrices import FormMatrix
from .rings import RingElement, RingSpec


def _require_sign(v, what: str) -> int:
    if rings._check_int(v, what) not in (1, -1):
        raise SchemaError(f"{what} must be +1 or -1, got {v}")
    return v


def _require_keys(obj, keys, what: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    for k in keys:
        if k not in obj:
            raise SchemaError(f"{what} is missing the {k!r} key")
    return obj


def ring_to_obj(ring: RingSpec):
    if ring.kind == "Z":
        return {"ring": "Z"}
    if ring.kind == "laurent":
        return {"ring": "laurent"}
    return {"ring": "cyclic", "m": ring.m, "w": ring.w}


def ring_from_obj(obj) -> RingSpec:
    if _require_keys(obj, ("ring",), "ring descriptor")["ring"] != "cyclic":
        return RingSpec(obj["ring"])
    _require_keys(obj, ("m", "w"), "cyclic ring descriptor")
    return rings.cyclic(obj["m"], obj["w"])


def element_to_obj(a: RingElement):
    if a.ring.kind == "Z":
        return a.coeffs[0]
    if a.ring.kind == "cyclic":
        return list(a.coeffs)
    return {"origin": a.shift, "coeffs": list(a.coeffs)}


# Laurent exponents beyond this bound are refused: lambda + eps * conj(lambda)
# and the other dense window operations cost time and memory proportional to
# the widest exponent, not to the size of the file.
MAX_LAURENT_EXPONENT = 100_000
# Over Z[Z/m] an n x n matrix is inverted through its integer regular
# representation, which is m * n wide and costs its cube, so a file a few KB
# long could ask for minutes: m * max(rows, cols) beyond this bound is refused.
MAX_CYCLIC_WIDTH = 256
# Over Z[z,z^-1] a matrix keeps one rows x cols grid per exponent that occurs
# in it, so single-term entries at distinct exponents would cost rows * cols
# times the size of the file: (exponents) * rows * cols beyond this is refused.
MAX_LAURENT_GRID_CELLS = 2 ** 18
# A product of Laurent matrices packs each entry into one integer of (exponent
# window) * width bits, so a file with a few entries z^-N and z^N could ask for
# products of megabit integers: (widest exponent - lowest + 1) * rows * cols
# beyond this is refused.
MAX_LAURENT_WINDOW_CELLS = 2 ** 19


def _window(ring: RingSpec, obj) -> tuple[int, list]:
    """(origin, coeffs) of a group-ring element's encoding, the one statement of both formats:
    a list of m ints over Z[Z/m], at origin 0; {"origin": o, "coeffs": [ints]} over Z[z,z^-1],
    with every exponent within MAX_LAURENT_EXPONENT."""
    if ring.kind == "cyclic":
        if not isinstance(obj, list) or len(obj) != ring.m:
            raise SchemaError(f"cyclic group ring element must be a list of {ring.m} integers")
        origin, coeffs, what = 0, obj, "group ring coefficient"
    else:
        _require_keys(obj, ("origin", "coeffs"), "Laurent element")
        origin, coeffs, what = rings._check_int(obj["origin"], "origin"), obj["coeffs"], "coefficient"
        if not isinstance(coeffs, list):
            raise SchemaError("Laurent coefficients must be a list")
    if not set(map(type, coeffs)) <= {int}:  # one test for plain ints; the int rule names the first other
        for c in coeffs:
            rings._check_int(c, what)
    if ring.kind == "laurent" and max(abs(origin), abs(origin + max(len(coeffs) - 1, 0))) > MAX_LAURENT_EXPONENT:
        raise SchemaError(f"Laurent exponents must lie in [-{MAX_LAURENT_EXPONENT}, "
                          f"{MAX_LAURENT_EXPONENT}], got origin {origin} with "
                          f"{len(coeffs)} coefficients")
    return origin, coeffs


def element_from_obj(ring: RingSpec, obj) -> RingElement:
    if ring.kind == "Z":
        return rings.from_int(ring, obj)
    origin, coeffs = _window(ring, obj)
    return rings._mk(ring, coeffs, origin)


def matrix_to_obj(m: FormMatrix):
    if m.ring.kind == "Z":
        return m.to_int_grid()
    return [[element_to_obj(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def matrix_from_obj(ring: RingSpec, obj, rows: int | None = None,
                    cols: int | None = None) -> FormMatrix:
    if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
        raise SchemaError("matrix must be an array of arrays")
    r = len(obj)
    if rows is not None and r != rows:
        raise SchemaError(f"matrix has {r} rows, expected {rows}")
    c = len(obj[0]) if r else cols or 0
    if any(len(row) != c for row in obj):
        raise SchemaError("matrix rows have unequal lengths")
    if cols is not None and c != cols:
        raise SchemaError(f"matrix has {c} columns, expected {cols}")
    if ring.m * max(r, c) > MAX_CYCLIC_WIDTH:
        raise SchemaError(f"a {r}x{c} matrix over {ring} is {ring.m * max(r, c)} wide in its regular "
                          f"representation, beyond {MAX_CYCLIC_WIDTH}")
    if r == 0:
        return matrices.zero_matrix(ring, 0, c)
    if ring.kind == "Z":
        return matrices.matrix(ring, obj)
    terms = [_window(ring, v) for v in chain.from_iterable(obj)]
    if ring.kind == "cyclic":
        return matrices.from_windows(ring, r, c, terms)
    exponents = {k for o, cs in terms for k, x in enumerate(cs, o) if x}
    if len(exponents) * r * c > MAX_LAURENT_GRID_CELLS:
        raise SchemaError(f"a {r}x{c} matrix over {ring} with {len(exponents)} distinct exponents "
                          f"is stored as {len(exponents) * r * c} grid cells, beyond {MAX_LAURENT_GRID_CELLS}")
    window = max(exponents) - min(exponents) + 1 if exponents else 0
    if window * r * c > MAX_LAURENT_WINDOW_CELLS:
        raise SchemaError(f"a {r}x{c} matrix over {ring} with exponents from {min(exponents)} to "
                          f"{max(exponents)} is packed as {window * r * c} window cells, "
                          f"beyond {MAX_LAURENT_WINDOW_CELLS}")
    return matrices.from_windows(ring, r, c, terms)


def form_to_obj(q: forms.QuadraticForm):
    return {
        "ring": ring_to_obj(q.ring),
        "epsilon": q.epsilon,
        "lambda": matrix_to_obj(q.lam),
        "mu": [element_to_obj(m.rep) for m in q.mu],
    }


def form_from_obj(obj) -> forms.QuadraticForm:
    _require_keys(obj, ("epsilon", "lambda", "mu"), "form file")
    ring = ring_from_obj(obj.get("ring", {"ring": "Z"}))
    eps = _require_sign(obj["epsilon"], "epsilon")
    lam = matrix_from_obj(ring, obj["lambda"])
    if not isinstance(obj["mu"], list) or len(obj["mu"]) != lam.rows:
        raise SchemaError("mu must list one representative per basis vector")
    mu = [element_from_obj(ring, v) for v in obj["mu"]]
    return forms.quadratic_form(ring, eps, lam, mu)


def split_to_obj(s: forms.SplitForm):
    return {"ring": ring_to_obj(s.ring), "epsilon": s.epsilon, "psi": matrix_to_obj(s.psi)}


def inclusion_from_obj(obj) -> tuple[forms.QuadraticForm, lagrangians.LagrangianInclusion]:
    _require_keys(obj, ("form", "basis"), "lagrangian file")
    q = form_from_obj(obj["form"])
    basis = matrix_from_obj(q.ring, obj["basis"], rows=q.rank)
    theta = None
    if obj.get("theta") is not None:
        theta = matrix_from_obj(q.ring, obj["theta"], rows=basis.cols, cols=basis.cols)
    return q, lagrangians.LagrangianInclusion(basis, theta)


def graph_to_obj(g: plumbing.PlumbingGraph):
    return {
        "parity": g.parity,
        "weights": list(g.weights),
        "edges": [[i, j] for i, j in g.edges],
    }


def graph_from_obj(obj) -> plumbing.PlumbingGraph:
    _require_keys(obj, ("parity", "weights", "edges"), "plumbing graph file")
    if not isinstance(obj["weights"], list):
        raise SchemaError("weights must be a list")
    if not isinstance(obj["edges"], list):
        raise SchemaError("edges must be a list of [i, j] pairs")
    if any(not isinstance(e, list) or len(e) != 2 for e in obj["edges"]):
        raise SchemaError("each edge must be a pair [i, j]")
    try:
        return plumbing.plumbing_graph(obj["parity"], obj["weights"], obj["edges"])
    except Exception as e:
        raise SchemaError(f"invalid plumbing graph: {e}") from None


def complex_to_obj(c: complexes.OddComplex):
    return {
        "ring": ring_to_obj(c.ring),
        "parity": c.parity,
        "d": matrix_to_obj(c.d),
        "psi0": matrix_to_obj(c.psi0),
        "psi1": matrix_to_obj(c.psi1),
    }


def complex_from_obj(obj) -> complexes.OddComplex:
    _require_keys(obj, ("parity", "d", "psi0", "psi1"), "complex file")
    ring = ring_from_obj(obj.get("ring", {"ring": "Z"}))
    # psi1 is square on the bottom module and psi0 maps bottom to top,
    # so the two of them pin the ranks even when d is empty
    psi1 = matrix_from_obj(ring, obj["psi1"])
    c0 = psi1.rows
    psi0 = matrix_from_obj(ring, obj["psi0"], cols=c0)
    c1 = psi0.rows
    d = matrix_from_obj(ring, obj["d"], rows=c0, cols=c1)
    try:
        return complexes.OddComplex(ring, obj["parity"], d, psi0, psi1)
    except Exception as e:
        raise SchemaError(f"invalid complex data: {e}") from None


def surgery_to_obj(s: complexes.SurgeryData):
    return {
        "ring": ring_to_obj(s.j.ring),
        "j": matrix_to_obj(s.j),
        "delta_psi0": matrix_to_obj(s.delta_psi0),
    }


def surgery_from_obj(obj, source: complexes.OddComplex | None = None) -> complexes.SurgeryData:
    _require_keys(obj, ("j", "delta_psi0"), "surgery data")
    ring = ring_from_obj(obj.get("ring", {"ring": "Z"}))
    delta = matrix_from_obj(ring, obj["delta_psi0"])
    cols = source.rank_top if source is not None else None
    j = matrix_from_obj(ring, obj["j"], rows=delta.rows, cols=cols)
    return complexes.SurgeryData(j, delta)


def cobordism_to_obj(cob: complexes.Cobordism):
    return {
        "j": matrix_to_obj(cob.j),
        "jprime": matrix_to_obj(cob.jprime),
        "delta_psi0": matrix_to_obj(cob.delta_psi0),
    }


def cobordism_from_obj(ring: RingSpec, obj,
                       source: complexes.OddComplex | None = None,
                       target: complexes.OddComplex | None = None) -> complexes.Cobordism:
    _require_keys(obj, ("j", "jprime", "delta_psi0"), "cobordism data")
    delta = matrix_from_obj(ring, obj["delta_psi0"])
    j = matrix_from_obj(ring, obj["j"], rows=delta.rows,
                        cols=source.rank_top if source is not None else None)
    jprime = matrix_from_obj(ring, obj["jprime"], rows=delta.rows,
                             cols=target.rank_top if target is not None else None)
    return complexes.Cobordism(j, jprime, delta)


def formation_to_obj(phi: formations.Formation):
    return {
        "ring": ring_to_obj(phi.ring),
        "epsilon": phi.epsilon,
        "form": form_to_obj(phi.q),
        "f": matrix_to_obj(phi.f),
        "g": matrix_to_obj(phi.g),
    }


def formation_from_obj(obj) -> formations.Formation:
    _require_keys(obj, ("epsilon", "form", "f", "g"), "formation file")
    q = form_from_obj(obj["form"])
    eps = _require_sign(obj["epsilon"], "epsilon")
    if eps != q.epsilon:
        raise SchemaError("formation epsilon disagrees with its form")
    f = matrix_from_obj(q.ring, obj["f"], rows=q.rank)
    g = matrix_from_obj(q.ring, obj["g"], rows=q.rank)
    return formations.Formation(q.ring, eps, q, f, g)


def unitary_to_obj(u: unitary.UnitaryAutomorphism):
    return {
        "ring": ring_to_obj(u.ring),
        "epsilon": u.epsilon,
        "alpha": matrix_to_obj(u.alpha),
        "beta": matrix_to_obj(u.beta),
        "gamma": matrix_to_obj(u.gamma),
        "delta": matrix_to_obj(u.delta),
    }


def unitary_from_obj(obj) -> unitary.UnitaryAutomorphism:
    _require_keys(obj, ("epsilon", "alpha", "beta", "gamma", "delta"), "automorphism file")
    ring = ring_from_obj(obj.get("ring", {"ring": "Z"}))
    eps = _require_sign(obj["epsilon"], "epsilon")
    alpha = matrix_from_obj(ring, obj["alpha"])
    k = alpha.rows
    beta = matrix_from_obj(ring, obj["beta"], rows=k, cols=k)
    gamma = matrix_from_obj(ring, obj["gamma"], rows=k, cols=k)
    delta = matrix_from_obj(ring, obj["delta"], rows=k, cols=k)
    return unitary.UnitaryAutomorphism(ring, eps, alpha, beta, gamma, delta)


def group_to_obj(g: rings.AbelianGroup):
    return {"free_rank": g.free_rank, "torsion": list(g.torsion), "name": str(g)}


def dumps_canonical(obj) -> str:
    """The one canonical text encoding: sorted keys, no whitespace, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


def read_json(path: str, data: bytes | None = None):
    """The JSON value of the file at path, parsed from data, its bytes, when the caller has read them."""
    try:
        if data is None:
            with open(path, "rb") as fh:
                data = fh.read()
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))  # as text mode reads it
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, an over-long int, nesting too deep
        raise SchemaError(f"{path}: not valid JSON ({e})") from None
    except OSError as e:
        raise SchemaError(f"{path}: {e}") from None


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON ({e})") from None
