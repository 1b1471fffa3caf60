"""Seeded random builders, shared by the acceptance suite, the fixture tool and the tests.

Each builder draws from the ``random.Random`` it is given in a fixed order.  That
order is a contract: the shipped fixtures (``tools/make_fixtures.py --check``) and
the acceptance instances and detail strings depend on it, and
``tests/test_acceptance.py`` pins the draws of every criterion.  A builder that
must draw differently is a new builder, not an edit of one of these.

No builder here writes the grids of a matrix.  ``matrix`` draws each entry's coefficient
window for ``matrices.from_windows``, one path over every ring, and ``shears`` applies
each step as a column operation on int rows instead of multiplying by the step's matrix.
Both draw exactly what the element by element and product by product constructions
drew, in the same order, and keep the declared shape, a 0 x k draw included.
"""

from __future__ import annotations

from . import matrices, rings, unitary
from .complexes import SurgeryData
from .forms import QuadraticForm, SplitForm, quadratic_form
from .matrices import FormMatrix


def element(rng, ring, lo=-2, hi=2) -> rings.RingElement:
    """The one entry of a 1 x 1 ``matrix`` draw."""
    return matrix(rng, ring, 1, 1, lo, hi).entry(0, 0)


def matrix(rng, ring, rows, cols, lo=-2, hi=2) -> FormMatrix:
    """A rows x cols matrix drawn row by row, each entry's coefficients in [lo, hi]: of 1
    over Z, of each g^k over Z[Z/m], of z^-1, 1, z over Z[z, z^-1]."""
    k, width = (-1, 3) if ring.kind == "laurent" else (0, ring.m or 1)
    cs = [rng.randint(lo, hi) for _ in range(rows) for _ in range(cols) for _ in range(width)]
    return matrices.from_windows(ring, rows, cols, [(k, cs[at:at + width]) for at in range(0, len(cs), width)])


def shears(rng, ring, k, steps) -> FormMatrix:
    """A product of ``steps`` shears I + c·e_ij, c in [-2, 2]; a step that draws i = j draws no c.

    The product is taken left to right, so each step is the column operation
    col_j += c·col_i on the int rows of the product so far; the draws are those of
    the product, in the same order."""
    if k < 0:
        return matrices.identity_matrix(ring, k)  # raises its refusal of k < 0
    p = [[int(r == c) for c in range(k)] for r in range(k)]
    for _ in range(steps):
        i, j = rng.randrange(k), rng.randrange(k)
        if i != j:
            c = rng.randint(-2, 2)
            for row in p:
                row[j] += c * row[i]
    return matrices.matrix(ring, p)


def hessian_corner(rng, ring, k, eps) -> FormMatrix:
    """Random t - eps*t* for a k x k matrix t.

    The result is (-eps)-symmetric with diagonal entries t_ii - eps*conj(t_ii),
    which over Z is (1 - eps)*t_ii.  A (-eps)-quadratic form built on it takes
    mu_i = rings.symmetrize_preimage(lam_ii, -eps), so that
    mu_i - eps*conj(mu_i) = lam_ii.  It does not take q_eps_reduce(lam_ii, -eps):
    for eps = -1 that class is represented by lam_ii itself, and lam_ii + lam_ii
    is not lam_ii unless lam_ii = 0.
    """
    t = matrix(rng, ring, k, k)
    return t.sub(t.star().scale_int(eps))


def word(rng, eps, k, length, kinds=(0, 1, 2, 3), steps=4) -> unitary.UnitaryAutomorphism:
    """A word of ``length`` generators of the hyperbolic automorphism group over Z.

    Each letter draws its kind by ``rng.choice(kinds)``, which draws as ``rng.randrange(4)``
    for the default kinds: 0 is diag(A, A*^-1) for A from ``shears(..., steps)``, 1 and 2
    the lower and upper elementary generators on a ``hessian_corner``, and 3 the flip.
    """
    u = unitary.identity_unitary(rings.Z, eps, k)
    for _ in range(length):
        kind = rng.choice(kinds)
        if kind == 0:
            g = unitary.elementary_diag(shears(rng, rings.Z, k, steps), eps)
        elif kind == 3:
            g = unitary.sigma_eps(rings.Z, eps, k)
        else:
            g = (unitary.elementary_lower if kind == 1 else unitary.elementary_upper)(
                hessian_corner(rng, rings.Z, k, eps), eps)
        u = unitary.compose(u, g)
    return u


def transport(rng, s: SplitForm, p: FormMatrix) -> SplitForm:
    """p*·psi·p + chi - eps*chi*: s carried along p, which the caller has drawn,
    plus the coboundary of a chi with entries in [-1, 1]."""
    chi = matrix(rng, s.ring, p.cols, p.cols, -1, 1)
    psi = p.star().mul(s.psi).mul(p).add(chi.sub(chi.star().scale_int(s.epsilon)))
    return SplitForm(s.ring, s.epsilon, psi)


def minus_eps_form(rng, eps, k, singular=False) -> QuadraticForm:
    """A (-eps)-quadratic form of rank k over Z: lambda_ij for i < j drawn in [-3, 3] row by
    row, then each mu_i in [-2, 2] (lambda_ii = 2 mu_i) for -eps = 1 and in [0, 1] for -eps = -1.
    singular (with k > 0) then zeroes the last row and column of lambda and the last mu."""
    ep = -eps
    lam = [[0] * k for _ in range(k)]
    mu = []
    for i in range(k):
        for j in range(i + 1, k):
            v = rng.randint(-3, 3)
            lam[i][j] = v
            lam[j][i] = ep * v
    for i in range(k):
        if ep == 1:
            m = rng.randint(-2, 2)
            lam[i][i] = 2 * m
            mu.append(m)
        else:
            mu.append(rng.randint(0, 1))
    if singular and k > 0:
        for j in range(k):
            lam[k - 1][j] = 0
            lam[j][k - 1] = 0
        mu[k - 1] = 0
    return quadratic_form(rings.Z, ep, lam, mu)


def surgery_data(rng, k, sizes, bound) -> SurgeryData:
    """Surgery data on a complex with C_(n+1) of rank k, over Z: the rank m of the new
    module by ``rng.choice(sizes)``, then j (m x k, entries in [-bound, bound]) and
    delta_psi0 (m x m, entries in [-1, 1]), each drawn as ``matrix`` draws."""
    m = rng.choice(sizes)
    return SurgeryData(matrix(rng, rings.Z, m, k, -bound, bound), matrix(rng, rings.Z, m, m, -1, 1))
