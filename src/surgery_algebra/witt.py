"""Stable invariants of nonsingular quadratic forms over the integers.

The symmetric side carries the signature, the antisymmetric side the Arf
invariant; both are constant on stable isomorphism classes, where two forms
are identified when they agree after adding hyperbolics.  Signature divided
by eight and Arf are complete invariants for that classification, one value
in the integers and one bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _intlat, forms, matrices, rings
from .errors import DomainError, SchemaError, SingularMatrixError, WrongRingError
from .forms import QuadraticForm
from .matrices import FormMatrix


def _int_symmetric(form, epsilon: int, what: str) -> list[list[int]]:
    lam = form.lam if hasattr(form, "lam") else form
    if lam.ring.kind != "Z":
        raise WrongRingError(f"{what} is only computed over the integers")
    got = getattr(form, "epsilon", epsilon)
    if got != epsilon:
        raise DomainError(f"{what} needs epsilon = {epsilon:+d}, got {got:+d}")
    return lam.to_int_grid()


def signature(form) -> int:
    """Positive minus negative diagonal count after exact diagonalisation.

    Accepts a symmetric or quadratic form over the integers.  Congruence
    steps run fraction-free (Bareiss): the live block holds prev times the
    rational Schur complement, where prev is the last pivot, so the update
    (d * g_rc - g_rp * g_pc) / prev divides exactly and the rational pivot
    d / prev has the sign of d * prev.  A zero diagonal entry is first
    repaired by adding a row and column that pair with it nontrivially, so
    every pivot is 1x1 and contributes its sign.
    """
    g = _int_symmetric(form, 1, "signature")
    live = list(range(len(g)))
    sig, prev = 0, 1
    while live:
        p = live[0]
        if g[p][p] == 0:
            j = next((c for c in live[1:] if g[p][c] != 0), None)
            if j is None:
                raise SingularMatrixError("signature needs a nonsingular form")
            for t in (1, -1):
                if g[p][p] + 2 * t * g[p][j] + g[j][j] != 0:
                    break
            for r in live:
                g[r][p] += t * g[r][j]
            for c in live:
                g[p][c] += t * g[j][c]
        d = g[p][p]
        sig += 1 if (d > 0) == (prev > 0) else -1
        live = live[1:]
        gp = g[p]
        for r in live:
            gr, grp = g[r], g[r][p]
            for c in live:
                gr[c] = (d * gr[c] - grp * gp[c]) // prev
        prev = d
    return sig


def _symplectic_pairs(g: list[list[int]]) -> list[list[int]]:
    """Grid B with columns u_1..u_m, v_1..v_m and B'·g·B = [[0, I], [-I, 0]].

    Each level pairs u = e_1 with a v solving row 1 of g against 1.  The rows
    u'g and v'g cut out the orthogonal complement of the pair, with primitive
    kernel basis comp, and the next level's live block is its Gram matrix
    comp'·g·comp, two ranks smaller.  The deeper pairs come back as the
    columns of S in comp's coordinates, so one product comp·S lifts them all
    to the original coordinates.
    """
    k = len(g)
    if k == 0:
        return []
    if k % 2 == 1:
        raise SingularMatrixError("an odd-rank antisymmetric form is singular")
    sol = _intlat.solve([g[0]], [[1]])
    if sol is None:
        raise SingularMatrixError("no vector pairs to a unit: the form is not unimodular")
    v = [x for (x,) in sol]
    comp = _intlat.kernel_basis([g[0], _intlat.matmul([v], g)[0]])
    sub = _intlat.matmul(_intlat.transpose(comp), _intlat.matmul(g, comp))
    lifted = _intlat.matmul(comp, _symplectic_pairs(sub))
    h = k // 2 - 1
    return [[int(r == 0)] + lifted[r][:h] + [v[r]] + lifted[r][h:] for r in range(k)]


def symplectic_basis(form) -> FormMatrix:
    """Change of basis B with B'·lambda·B = [[0, I], [-I, 0]].

    Column i pairs with column i+m to the value 1.  Requires a unimodular
    antisymmetric form over the integers.
    """
    grid = _int_symmetric(form, -1, "the symplectic basis")
    lam = form.lam if hasattr(form, "lam") else form
    if not matrices.is_unimodular(lam):
        raise SingularMatrixError("the symplectic basis needs a unimodular form")
    return matrices.int_matrix(_symplectic_pairs(grid))


def arf(q: QuadraticForm) -> int:
    """Sum of mu(u_i)·mu(v_i) over a symplectic basis, in Z/2."""
    if not isinstance(q, QuadraticForm):
        raise SchemaError("arf expects a quadratic form")
    return _arf(q, symplectic_basis(q))


def _arf(q: QuadraticForm, b: FormMatrix) -> int:
    """arf of q, read off a symplectic basis b of its (already tested) form."""
    m = b.cols // 2
    bits = [0 if rings.class_is_zero(v) else 1 for v in forms.mu_values(q, b)]
    return sum(bits[i] * bits[i + m] for i in range(m)) % 2


@dataclass(frozen=True)
class WittClass:
    """Stable class of a nonsingular quadratic form over the integers."""

    epsilon: int
    value: int

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise SchemaError("epsilon must be +1 or -1")
        if self.epsilon == -1 and self.value not in (0, 1):
            raise SchemaError("the antisymmetric class is a single bit")


def witt_class(q: QuadraticForm) -> WittClass:
    if q.ring.kind != "Z":
        raise WrongRingError("witt classes are only computed over the integers")
    if not forms.is_nonsingular(q):
        raise SingularMatrixError("witt class needs a nonsingular form")
    if q.epsilon == -1:  # nonsingular is tested: symplectic_basis would test it again
        return WittClass(-1, _arf(q, matrices.int_matrix(_symplectic_pairs(q.lam.to_int_grid()))))
    sig = signature(q)
    if sig % 8 != 0:
        raise DomainError(
            f"signature {sig} is not divisible by 8; the input is not an even nonsingular form"
        )
    return WittClass(1, sig // 8)
