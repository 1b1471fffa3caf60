"""Stable invariants of nonsingular quadratic forms over the integers.

The symmetric side carries the signature, the antisymmetric side the Arf
invariant; both are constant on stable isomorphism classes, where two forms
are identified when they agree after adding hyperbolics.  Signature divided
by eight and Arf are complete invariants for that classification, one value
in the integers and one bit.

Each invariant comes from one exact elimination in the cheapest ring that is
still exact.  The signature and det lambda come from one fraction-free
congruence pass over the integers (Bareiss 1968), so the symmetric class
tests |det| = 1 from the pass that gives it the signature.  The Arf
invariant depends only on (lambda, mu) mod 2 (Arf 1941): after one integer
determinant has shown lambda unimodular, it is read off a symplectic
reduction over F_2 on int bitmask rows, O(k^2) word operations with no
integer growth.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _intlat, forms, rings
from .errors import DomainError, SchemaError, SingularMatrixError, WrongRingError
from .forms import QuadraticForm


def _int_symmetric(form, epsilon: int, what: str) -> list[list[int]]:
    """The int grid of a form over Z; a bare matrix is checked as ``SymmetricForm`` checks it."""
    lam = form.lam if hasattr(form, "lam") else form
    if lam.ring.kind != "Z":
        raise WrongRingError(f"{what} is only computed over the integers")
    if lam is form:
        forms.SymmetricForm(lam.ring, epsilon, lam)
    elif form.epsilon != epsilon:
        raise DomainError(f"{what} needs epsilon = {epsilon:+d}, got {form.epsilon:+d}")
    return lam.to_int_grid()


def signature(form) -> int:
    """Positive minus negative diagonal count after exact diagonalisation.

    Accepts a symmetric or quadratic form over the integers; raises
    SingularMatrixError on a singular one.
    """
    sig, det = signature_and_det(form)
    if not det:
        raise SingularMatrixError("signature needs a nonsingular form")
    return sig


def signature_and_det(form) -> tuple[int, int]:
    """(signature, det lambda) of a symmetric or quadratic form over the integers,
    from one fraction-free congruence diagonalisation; det is 0, and the
    signature meaningless, when lambda is singular.

    Congruence steps run fraction-free (Bareiss): the live block holds prev
    times the rational Schur complement, where prev is the last pivot, so the
    update (d * g_rc - g_rp * g_pc) / prev divides exactly and the rational
    pivot d / prev has the sign of d * prev.  A zero diagonal entry is first
    repaired by adding a row and column that pair with it nontrivially, a
    congruence of determinant 1, so every pivot is 1x1 and contributes its
    sign, and the last pivot is det lambda.  A zero pivot row in the live
    block means lambda is singular.  Every step keeps the block symmetric, so
    only its upper triangle is read and updated, half the work of a Bareiss
    determinant.
    """
    g = _int_symmetric(form, 1, "signature")
    n = len(g)
    sig, prev = 0, 1
    for p in range(n):
        gp = g[p]
        if gp[p] == 0:
            j = next((c for c in range(p + 1, n) if gp[c]), None)
            if j is None:
                return sig, 0
            gj = g[j]
            t = 1 if 2 * gp[j] + gj[j] else -1
            gp[p] = 2 * t * gp[j] + gj[j]
            for k in range(p + 1, n):  # row p gains t times row j, read off the upper triangle
                gp[k] += t * (g[k][j] if k < j else gj[k])
        d = gp[p]
        sig += 1 if (d > 0) == (prev > 0) else -1
        for r in range(p + 1, n):
            gr, c = g[r], gp[r]
            for k in range(r, n):
                gr[k] = (d * gr[k] - c * gp[k]) // prev
        prev = d
    return sig, prev


def arf(q: QuadraticForm) -> int:
    """Sum of mu(u_i)·mu(v_i) over a symplectic basis, in Z/2."""
    if not isinstance(q, QuadraticForm):
        raise SchemaError("arf expects a quadratic form")
    grid = _int_symmetric(q, -1, "the Arf invariant")
    if not _intlat.is_unimodular(grid):
        raise SingularMatrixError("the Arf invariant needs a unimodular form")
    return _arf_mod2(grid, q.mu)


def _arf_mod2(g: list[list[int]], mu) -> int:
    """arf of (g, mu) for a unimodular antisymmetric grid g, by symplectic reduction mod 2.

    Row x of g mod 2 is the int ``rows[x]``, whose bit j is g_xj mod 2, and bit x
    of ``bits`` is mu_x mod 2.  Each step pairs the first live e with the
    first f that has lambda(e, f) = 1 and moves every live x to
    x + lambda(x, f)·e + lambda(x, e)·f, which is orthogonal to both.  Mod 2
    lambda is symmetric, so the x with lambda(x, e) = 1 are the bits of row
    e: row x gains row f for those x and row e for the bits of row f, and
    mu(x) gains lambda(x, f)·mu(e) + lambda(x, e)·mu(f) + lambda(x, f)·lambda(x, e).
    The rows of e and f then vanish, and mu(e)·mu(f) adds to the invariant.
    g mod 2 is nonsingular, so the rows that vanish are those of the pairs.
    """
    rows = [sum(1 << j for j, x in enumerate(row) if x & 1) for row in g]
    bits = sum((not rings.class_is_zero(c)) << x for x, c in enumerate(mu))
    out = 0
    for e in range(len(rows)):
        re = rows[e]
        if not re:
            continue
        f = (re & -re).bit_length() - 1
        rf = rows[f]
        qe, qf = bits >> e & 1, bits >> f & 1
        out ^= qe & qf
        bits ^= (rf if qe else 0) ^ (re if qf else 0) ^ (re & rf)
        for m, r in ((re, rf), (rf, re)):
            while m:
                low = m & -m
                rows[low.bit_length() - 1] ^= r
                m ^= low
    return out


@dataclass(frozen=True)
class WittClass:
    """Stable class of a nonsingular quadratic form over the integers."""

    epsilon: int
    value: int

    def __post_init__(self):
        rings._check_epsilon(self.epsilon)
        if self.epsilon == -1 and self.value not in (0, 1):
            raise SchemaError("the antisymmetric class is a single bit")


def witt_class(q: QuadraticForm) -> WittClass:
    if q.ring.kind != "Z":
        raise WrongRingError("witt classes are only computed over the integers")
    if q.epsilon == -1:
        if not forms.is_nonsingular(q):
            raise SingularMatrixError("witt class needs a nonsingular form")
        return WittClass(-1, _arf_mod2(q.lam.to_int_grid(), q.mu))
    sig, det = signature_and_det(q)
    if det not in (1, -1):
        raise SingularMatrixError("witt class needs a nonsingular form")
    if sig % 8 != 0:
        raise DomainError(
            f"signature {sig} is not divisible by 8; the input is not an even nonsingular form"
        )
    return WittClass(1, sig // 8)
