"""Quadratic forms of weighted plumbing graphs and sphere detection.

A graph with integer vertex weights and parity n mod 2 produces a
(-1)^n-quadratic form on Z^k: off-diagonal entries count edges (signed
below the diagonal when n is odd), diagonal entries are (1+(-1)^n) times
the weight.  The boundary manifold of the plumbing has its middle homology
read off the form, and for parity 0 the signature/8 residue mod 28
separates the exotic 7-spheres.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import forms, matrices, witt
from .errors import DomainError, SchemaError
from .forms import QuadraticForm
from .rings import AbelianGroup, Z


@dataclass(frozen=True)
class PlumbingGraph:
    parity: int
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise SchemaError("parity must be 0 or 1")
        k = len(self.weights)
        for i, j in self.edges:
            if i == j:
                raise DomainError(f"loop edge at vertex {i} is not allowed")
            if not (0 <= i < k and 0 <= j < k):
                raise SchemaError(f"edge ({i},{j}) leaves the vertex range 0..{k - 1}")

    @property
    def epsilon(self) -> int:
        return 1 if self.parity == 0 else -1


def plumbing_graph(parity: int, weights, edges) -> PlumbingGraph:
    return PlumbingGraph(parity, tuple(int(w) for w in weights),
                         tuple((int(i), int(j)) for i, j in edges))


def e8_graph() -> PlumbingGraph:
    """The eight-vertex tree with unit weights whose form has signature 8."""
    return PlumbingGraph(0, (1,) * 8, ((0, 3), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)))


def graph_to_form(g: PlumbingGraph) -> QuadraticForm:
    k = len(g.weights)
    eps = g.epsilon
    counts = [[0] * k for _ in range(k)]
    for i, j in g.edges:
        a, b = min(i, j), max(i, j)
        counts[a][b] += 1
    lam = [[0] * k for _ in range(k)]
    for i in range(k):
        lam[i][i] = (1 + eps) * g.weights[i]
        for j in range(i + 1, k):
            lam[i][j] = counts[i][j]
            lam[j][i] = eps * counts[i][j]
    mu = [w if eps == 1 else w % 2 for w in g.weights]
    return forms.quadratic_form(Z, eps, lam, mu)


def boundary_homology(q: QuadraticForm) -> tuple[AbelianGroup, int]:
    """(middle cokernel, kernel rank) of the intersection matrix; both vanish
    exactly when the form is unimodular, that is when the boundary is a
    homotopy sphere.  One Bareiss determinant settles that case without a
    Smith form; any other form pays the Smith form as well."""
    if q.ring.kind != "Z":
        raise DomainError("boundary homology is only computed over the integers")
    if matrices.is_unimodular(q.lam):
        return AbelianGroup(0, ()), 0
    coker, rank = matrices.cokernel(q.lam)
    return coker, q.rank - rank


def is_homotopy_sphere_boundary(q: QuadraticForm) -> bool:
    return q.ring.kind == "Z" and matrices.is_unimodular(q.lam)


def sphere_class(q: QuadraticForm) -> int | None:
    """signature/8 mod 28 of a +1-form bounding a homotopy sphere, else None, from one pass."""
    sig, det = witt.signature_and_det(q) if q.ring.kind == "Z" else (0, 0)
    if det not in (1, -1):
        return None
    if sig % 8 != 0:
        raise DomainError(f"signature {sig} is not divisible by 8")
    return (sig // 8) % 28


def exotic7_class(q: QuadraticForm) -> int:
    """signature/8 mod 28 for a unimodular +1-quadratic form."""
    if q.epsilon != 1:
        raise DomainError("the dimension-7 class needs a +1-quadratic form")
    if (cls := sphere_class(q)) is None:
        raise DomainError("the boundary is not a homotopy sphere: form is not unimodular")
    return cls


def milnor_sphere(ell: int) -> tuple[int, bool]:
    """(class mod 28, exotic?) of the sphere bundle boundary indexed by odd ell.

    The class is (ell^2 - 1)/8 of the signature 8(ell^2 - 1), reduced mod 28;
    the bundle bounds a parallelisable manifold only when a degree-two
    characteristic number (45 + 4*ell^2)/7 is an integer, i.e. ell = +-1
    mod 7, and exactly then the boundary is the standard sphere.
    """
    if ell % 2 == 0:
        raise DomainError("the sphere family is indexed by odd integers")
    cls = (ell * ell - 1) % 28
    exotic = (ell % 7) not in (1, 6)
    return cls, exotic
