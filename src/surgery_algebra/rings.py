"""Rings with involution and the quadratic quotient groups Q_eps.

Three coefficient rings are supported, all with exact integer arithmetic:

* ``Integers`` -- the ring Z with the identity involution.
* ``CyclicGroupRing(m, w)`` -- the group ring Z[Z/m] with the involution
  twisted by an orientation character w: the generator g maps to w * g^-1.
* ``LaurentRing`` -- Z[z, z^-1] with the involution z -> z^-1.

Elements are immutable coefficient vectors.  The quotient groups
Q_eps = Lambda / {a - eps * conj(a)} get canonical coset representatives by
folding: the subgroup is spanned by g^k - eps * w^k * g^-k, so each orbit
{k, -k} of exponents folds onto one kept exponent e, which carries
a_e + eps * w^e * a_-e.  The kept exponents are e >= 0 over Z[z, z^-1] and
0 and ceil(m/2), ..., m-1 over Z[Z/m].  A self-conjugate exponent (0, and
m/2 when m is even) keeps a_e when eps * w^e = 1 and a_e mod 2 when
eps * w^e = -1.  Equality of classes is equality of representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, SchemaError, WrongRingError


@dataclass(frozen=True)
class RingSpec:
    """Descriptor of a supported ring with involution."""

    kind: str
    m: int = 0
    w: int = 1

    def __post_init__(self):
        if self.kind == "Z" or self.kind == "laurent":
            if self.m != 0 or self.w != 1:
                raise ValueError("m and w are only meaningful for cyclic group rings")
        elif self.kind == "cyclic":
            if self.m < 1:
                raise ValueError("cyclic group order must be at least 1")
            if self.w not in (1, -1):
                raise ValueError("orientation character must be +1 or -1")
            if self.w == -1 and self.m % 2 == 1:
                raise ValueError("w = -1 needs even group order, else w^m != 1")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

    def __str__(self):
        if self.kind == "Z":
            return "Z"
        if self.kind == "laurent":
            return "Z[z,z^-1]"
        sign = "+" if self.w == 1 else "-"
        return f"Z[Z/{self.m}]^{sign}"


def integers() -> RingSpec:
    return RingSpec("Z")


def cyclic(m: int, w: int = 1) -> RingSpec:
    return RingSpec("cyclic", m, w)


def laurent() -> RingSpec:
    return RingSpec("laurent")


Z = integers()


@dataclass(frozen=True)
class RingElement:
    """Element of a RingSpec ring as an exact coefficient vector.

    For Integers, coeffs is a single-entry tuple.  For a cyclic group ring of
    order m, coeffs has length m and index k holds the coefficient of g^k.
    For the Laurent ring, coeffs holds a trimmed window of coefficients and
    shift is the exponent of the first one; the zero element is the empty
    window with shift 0.
    """

    ring: RingSpec
    coeffs: tuple[int, ...]
    shift: int = 0


def _mk(ring: RingSpec, coeffs, shift: int = 0) -> RingElement:
    if ring.kind == "laurent":
        lo = 0
        hi = len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            return RingElement(ring, (), 0)
        return RingElement(ring, tuple(coeffs[lo:hi]), shift + lo)
    return RingElement(ring, tuple(coeffs), 0)


def zero(ring: RingSpec) -> RingElement:
    if ring.kind == "Z":
        return RingElement(ring, (0,))
    if ring.kind == "cyclic":
        return RingElement(ring, (0,) * ring.m)
    return RingElement(ring, ())


def _check_int(v, what: str):
    """Refuse v unless it is an int; an int subclass passes, a bool does not."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{what} must be an integer, got {type(v).__name__}")


def from_int(ring: RingSpec, n: int) -> RingElement:
    _check_int(n, "coefficient")
    if ring.kind == "Z":
        return RingElement(ring, (n,))
    if ring.kind == "cyclic":
        return _mk(ring, (n,) + (0,) * (ring.m - 1))
    return _mk(ring, (n,), 0)


def one(ring: RingSpec) -> RingElement:
    return from_int(ring, 1)


def monomial(ring: RingSpec, k: int, coeff: int = 1) -> RingElement:
    """coeff * g^k (cyclic), coeff * z^k (Laurent), or plain coeff over Z (k must be 0)."""
    _check_int(k, "exponent")
    _check_int(coeff, "coefficient")
    if ring.kind == "Z":
        if k != 0:
            raise DomainError("the integers have no nontrivial monomials")
        return RingElement(ring, (coeff,))
    if ring.kind == "cyclic":
        v = [0] * ring.m
        v[k % ring.m] = coeff
        return _mk(ring, v)
    return _mk(ring, (coeff,), k)


def _check_same_ring(a: RingElement, b: RingElement):
    if a.ring != b.ring:
        raise WrongRingError(f"mixed rings {a.ring} and {b.ring}")


def add(a: RingElement, b: RingElement) -> RingElement:
    _check_same_ring(a, b)
    ring = a.ring
    if ring.kind != "laurent":
        return _mk(ring, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
    if not a.coeffs:
        return b
    if not b.coeffs:
        return a
    lo = min(a.shift, b.shift)
    hi = max(a.shift + len(a.coeffs), b.shift + len(b.coeffs))
    v = [0] * (hi - lo)
    for i, c in enumerate(a.coeffs):
        v[a.shift - lo + i] += c
    for i, c in enumerate(b.coeffs):
        v[b.shift - lo + i] += c
    return _mk(ring, v, lo)


def neg(a: RingElement) -> RingElement:
    return RingElement(a.ring, tuple(-c for c in a.coeffs), a.shift)


def sub(a: RingElement, b: RingElement) -> RingElement:
    return add(a, neg(b))


def mul(a: RingElement, b: RingElement) -> RingElement:
    _check_same_ring(a, b)
    ring = a.ring
    if ring.kind == "Z":
        return RingElement(ring, (a.coeffs[0] * b.coeffs[0],))
    if ring.kind == "cyclic":
        m = ring.m
        v = [0] * m
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        v[(i + j) % m] += x * y
        return _mk(ring, v)
    if not a.coeffs or not b.coeffs:
        return zero(ring)
    v = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                v[i + j] += x * y
    return _mk(ring, v, a.shift + b.shift)


def is_zero(a: RingElement) -> bool:
    return all(c == 0 for c in a.coeffs)


def involute(a: RingElement) -> RingElement:
    """The involution a -> conj(a) of the ring."""
    ring = a.ring
    if ring.kind == "Z":
        return a
    if ring.kind == "cyclic":
        m = ring.m
        v = [0] * m
        for k, c in enumerate(a.coeffs):
            v[(m - k) % m] += (ring.w ** k) * c
        return _mk(ring, v)
    if not a.coeffs:
        return a
    return _mk(ring, tuple(reversed(a.coeffs)), -(a.shift + len(a.coeffs) - 1))


def symmetrize(a: RingElement, epsilon: int) -> RingElement:
    """a + epsilon * conj(a), the image of a under 1 + T_eps."""
    if epsilon == 1:
        return add(a, involute(a))
    return sub(a, involute(a))


def _pairs(m: int):
    """The orbits {p, m - p} of exponents mod m with p < m - p, as (p, m - p)."""
    return [(p, m - p) for p in range(1, (m + 1) // 2)]


def _self_conjugate(m: int):
    """The exponents e with e = -e mod m: 0, and m/2 when m is even."""
    return (0, m // 2) if m % 2 == 0 else (0,)


def symmetrize_preimage(a: RingElement, epsilon: int):
    """Some x with x + epsilon * conj(x) = a, or None if a is not in the image.

    a is in the image iff a_-e = epsilon * w^e * a_e on every orbit and each
    self-conjugate coefficient is even (epsilon * w^e = 1) or zero
    (epsilon * w^e = -1).  Over Z[Z/m] x carries the lower exponent p of each
    orbit pair, over Z[z, z^-1] the exponents k >= 0, and a self-conjugate
    exponent carries a_e / 2.
    """
    ring = a.ring
    if ring.kind == "Z":
        n = a.coeffs[0]
        if epsilon == 1:
            return from_int(ring, n // 2) if n % 2 == 0 else None
        return zero(ring) if n == 0 else None
    if ring.kind == "cyclic":
        m, c = ring.m, a.coeffs
        x = [0] * m
        for p, e in _pairs(m):
            if c[e] != epsilon * ring.w ** p * c[p]:
                return None
            x[p] = c[p]
        for e in _self_conjugate(m):
            if epsilon * ring.w ** e == 1 and c[e] % 2 == 0:
                x[e] = c[e] // 2
            elif c[e]:
                return None
        return _mk(ring, x)
    if not a.coeffs:
        return a
    b = a.shift + len(a.coeffs) - 1
    if a.shift != -b:
        return None
    c = a.coeffs
    if any(c[b - k] != epsilon * c[b + k] for k in range(1, b + 1)):
        return None
    if c[b] % 2 if epsilon == 1 else c[b]:
        return None
    return _mk(ring, (c[b] // 2,) + c[b + 1:], 0)


def desymmetrize(a: RingElement, epsilon: int):
    """Some x with x - epsilon * conj(x) = a, or None.  Inverts 1 - T_eps."""
    return symmetrize_preimage(a, -epsilon)


def in_symmetrize_image(a: RingElement, epsilon: int) -> bool:
    return symmetrize_preimage(a, epsilon) is not None


@dataclass(frozen=True)
class QEpsilonClass:
    """Canonical coset representative in Q_eps = Lambda / {a - eps*conj(a)}."""

    ring: RingSpec
    epsilon: int
    rep: RingElement


def q_eps_reduce(a: RingElement, epsilon: int) -> QEpsilonClass:
    """The class of a, with the representative the module docstring describes.

    Costs O(m) over Z[Z/m]; over Z[z, z^-1] it allocates only the folded
    window [min |e|, max |e|] of the support of a.
    """
    ring = a.ring
    if epsilon not in (1, -1):
        raise DomainError("epsilon must be +1 or -1")
    if ring.kind == "Z":
        n = a.coeffs[0]
        rep = a if epsilon == 1 else from_int(ring, n % 2)
        return QEpsilonClass(ring, epsilon, rep)
    if ring.kind == "cyclic":
        m, c = ring.m, a.coeffs
        v = [0] * m
        for p, e in _pairs(m):
            v[e] = c[e] + epsilon * ring.w ** e * c[p]
        for e in _self_conjugate(m):
            v[e] = c[e] if epsilon * ring.w ** e == 1 else c[e] % 2
        return QEpsilonClass(ring, epsilon, _mk(ring, v))
    if not a.coeffs:
        return QEpsilonClass(ring, epsilon, a)
    lo, hi = a.shift, a.shift + len(a.coeffs) - 1
    base = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    v = [0] * (max(abs(lo), abs(hi)) - base + 1)
    for i, c in enumerate(a.coeffs):
        e = lo + i
        if e >= 0:
            v[e - base] += c
        else:
            v[-e - base] += epsilon * c
    if base == 0 and epsilon == -1:
        v[0] %= 2
    return QEpsilonClass(ring, epsilon, _mk(ring, v, base))


def class_add(a: QEpsilonClass, b: QEpsilonClass) -> QEpsilonClass:
    if a.ring != b.ring or a.epsilon != b.epsilon:
        raise WrongRingError("cannot add classes over different rings or epsilons")
    return q_eps_reduce(add(a.rep, b.rep), a.epsilon)


def class_neg(a: QEpsilonClass) -> QEpsilonClass:
    return q_eps_reduce(neg(a.rep), a.epsilon)


def class_is_zero(a: QEpsilonClass) -> bool:
    return is_zero(a.rep)


def class_twist(a: QEpsilonClass, x: RingElement) -> QEpsilonClass:
    """The class of x * a * conj(x); how quadratic self-values transform."""
    return q_eps_reduce(mul(mul(x, a.rep), involute(x)), a.epsilon)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group as free rank plus invariant factors."""

    free_rank: int
    torsion: tuple[int, ...]

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def q_eps_group(ring: RingSpec, epsilon: int, window: int | None = None) -> AbelianGroup:
    """Q_eps(Lambda) as an abelian group, read off the fold.

    Each orbit pair {e, -e} gives one Z.  A self-conjugate exponent e gives
    Z when eps * w^e = 1 and Z/2 when eps * w^e = -1.  The Laurent ring needs
    an exponent window bound: the result describes the classes of elements
    supported on [-window, window], that is window pairs and the exponent 0,
    which is the whole story for any fixed finite computation.
    """
    if ring.kind == "Z":
        ring = cyclic(1)
    if ring.kind == "cyclic":
        pairs, signs = len(_pairs(ring.m)), [epsilon * ring.w ** e for e in _self_conjugate(ring.m)]
    else:
        if window is None:
            raise DomainError("Q_eps of the Laurent ring needs an exponent window bound")
        if window < 0:
            raise DomainError(f"the exponent window must be at least 0, got {window}")
        pairs, signs = window, [epsilon]
    return AbelianGroup(pairs + signs.count(1), (2,) * signs.count(-1))
