"""Rings with involution and the quadratic quotient groups Q_eps.

Three coefficient rings are supported, all with exact integer arithmetic:

* ``Integers`` -- the ring Z with the identity involution.
* ``CyclicGroupRing(m, w)`` -- the group ring Z[Z/m] with the involution
  twisted by an orientation character w: the generator g maps to w * g^-1.
* ``LaurentRing`` -- Z[z, z^-1] with the involution z -> z^-1.

Elements are immutable coefficient windows in one normal form, which ``_mk``
alone builds: over Z[z, z^-1] a window (shift, coeffs) trimmed of its zero
ends, the zero element being the empty window at shift 0; over Z[Z/m] the m
coefficients of g^0, ..., g^(m-1), into which any window folds mod m; and
over Z, which is Z[Z/1], its one coefficient.  So each ring operation is
written once, as window arithmetic passed to ``_mk``, and Z needs no case of
its own beyond ``monomial``'s refusal of an exponent k != 0: it is the order-1
case of every fold.  Every function that takes eps refuses any value other
than +1 and -1 with DomainError.

The quotient groups Q_eps = Lambda / {a - eps * conj(a)} get canonical coset
representatives by folding: the subgroup is spanned by g^k - eps * w^k *
g^-k, so each orbit {k, -k} of exponents folds onto one kept exponent e,
which carries a_e + eps * w^e * a_-e.  The kept exponents are e >= 0 over
Z[z, z^-1] and 0 and ceil(m/2), ..., m-1 over Z[Z/m].  A self-conjugate
exponent (0, and m/2 when m is even) keeps a_e when eps * w^e = 1 and a_e
mod 2 when eps * w^e = -1.  Equality of classes is equality of
representatives.
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
        if self.kind not in ("Z", "cyclic", "laurent"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind != "cyclic":
            if self.m != 0 or self.w != 1:
                raise ValueError("m and w are only meaningful for cyclic group rings")
        else:
            if self.m < 1:
                raise ValueError("cyclic group order must be at least 1")
            if self.w not in (1, -1):
                raise ValueError("orientation character must be +1 or -1")
            if self.w == -1 and self.m % 2 == 1:
                raise ValueError("w = -1 needs even group order, else w^m != 1")

    def __str__(self):
        if self.kind == "laurent":
            return "Z[z,z^-1]"
        if self.kind == "cyclic":
            sign = "+" if self.w == 1 else "-"
            return f"Z[Z/{self.m}]^{sign}"
        return "Z"


def integers() -> RingSpec:
    return RingSpec("Z")


def cyclic(m: int, w: int = 1) -> RingSpec:
    return RingSpec("cyclic", m, w)


def laurent() -> RingSpec:
    return RingSpec("laurent")


Z = integers()


@dataclass(frozen=True)
class RingElement:
    """Element of a RingSpec ring as an exact coefficient vector, built only by ``_mk``.

    For Integers, coeffs is a single-entry tuple.  For a cyclic group ring of
    order m, coeffs has length m and index k holds the coefficient of g^k.
    For the Laurent ring, coeffs holds a trimmed window of coefficients and
    shift is the exponent of the first one; the zero element is the empty
    window with shift 0.  Over Z and Z[Z/m] shift is 0.
    """

    ring: RingSpec
    coeffs: tuple[int, ...]
    shift: int = 0


def _mk(ring: RingSpec, coeffs, shift: int = 0) -> RingElement:
    """sum_t coeffs[t] g^(shift + t) in normal form: over Z[z, z^-1] the window trimmed of
    its zero ends, over Z[Z/m] (and Z = Z[Z/1]) the window folded mod m."""
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
    m = ring.m or 1
    if shift == 0 and len(coeffs) == m:
        return RingElement(ring, tuple(coeffs))
    v = [0] * m
    for k, c in enumerate(coeffs, shift):
        v[k % m] += c
    return RingElement(ring, tuple(v))


def zero(ring: RingSpec) -> RingElement:
    return _mk(ring, ())


def _check_int(v, what: str):
    """Refuse v unless it is an int; an int subclass passes, a bool does not."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{what} must be an integer, got {type(v).__name__}")


def _check_epsilon(epsilon):
    if epsilon not in (1, -1):
        raise DomainError("epsilon must be +1 or -1")


def from_int(ring: RingSpec, n: int) -> RingElement:
    _check_int(n, "coefficient")
    return _mk(ring, (n,))


def one(ring: RingSpec) -> RingElement:
    return from_int(ring, 1)


def monomial(ring: RingSpec, k: int, coeff: int = 1) -> RingElement:
    """coeff * g^k (cyclic), coeff * z^k (Laurent), or plain coeff over Z (k must be 0)."""
    _check_int(k, "exponent")
    _check_int(coeff, "coefficient")
    if ring.kind == "Z" and k != 0:
        raise DomainError("the integers have no nontrivial monomials")
    return _mk(ring, (coeff,), k)


def _check_same_ring(a: RingElement, b: RingElement):
    if a.ring != b.ring:
        raise WrongRingError(f"mixed rings {a.ring} and {b.ring}")


def add(a: RingElement, b: RingElement) -> RingElement:
    _check_same_ring(a, b)
    # the Laurent zero's shift is no exponent: taken into the window, it could widen it to any size
    if not a.coeffs:
        return b
    if not b.coeffs:
        return a
    lo = min(a.shift, b.shift)
    v = [0] * (max(a.shift + len(a.coeffs), b.shift + len(b.coeffs)) - lo)
    for x in (a, b):
        for i, c in enumerate(x.coeffs, x.shift - lo):
            v[i] += c
    return _mk(a.ring, v, lo)


def neg(a: RingElement) -> RingElement:
    return _mk(a.ring, [-c for c in a.coeffs], a.shift)


def sub(a: RingElement, b: RingElement) -> RingElement:
    return add(a, neg(b))


def mul(a: RingElement, b: RingElement) -> RingElement:
    _check_same_ring(a, b)
    if not a.coeffs or not b.coeffs:
        return zero(a.ring)
    v = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs, i):
                v[j] += x * y
    return _mk(a.ring, v, a.shift + b.shift)


def is_zero(a: RingElement) -> bool:
    return all(c == 0 for c in a.coeffs)


def involute(a: RingElement) -> RingElement:
    """The involution a -> conj(a): g^k -> w^k g^-k reverses the window onto -top, ..., -shift."""
    if a.shift == 0 and len(a.coeffs) <= 1:  # zero and the constants are their own conjugates
        return a
    cs = a.coeffs if a.ring.w == 1 else [-c if k % 2 else c for k, c in enumerate(a.coeffs, a.shift)]
    return _mk(a.ring, cs[::-1], 1 - a.shift - len(cs))


def symmetrize(a: RingElement, epsilon: int) -> RingElement:
    """a + epsilon * conj(a), the image of a under 1 + T_eps."""
    _check_epsilon(epsilon)
    if epsilon == 1:
        return add(a, involute(a))
    return sub(a, involute(a))


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
    _check_epsilon(epsilon)
    ring = a.ring
    if ring.kind != "laurent":
        m, c = ring.m or 1, a.coeffs
        x = [0] * m
        for p in range(1, (m + 1) // 2):  # each orbit {p, m - p} with p < m - p
            if c[m - p] != epsilon * ring.w ** p * c[p]:
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
    _check_epsilon(epsilon)
    ring = a.ring
    if ring.kind != "laurent":
        m, c = ring.m or 1, a.coeffs
        v = [0] * m
        for p in range(1, (m + 1) // 2):  # each orbit {p, m - p} folds onto m - p; w^(m-p) = w^p
            v[m - p] = c[m - p] + epsilon * ring.w ** p * c[p]
        for e in _self_conjugate(m):
            v[e] = c[e] if epsilon * ring.w ** e == 1 else c[e] % 2
        return QEpsilonClass(ring, epsilon, a if tuple(v) == c else _mk(ring, v))
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
    _check_epsilon(epsilon)
    if ring.kind != "laurent":
        m = ring.m or 1
        pairs, signs = (m - 1) // 2, [epsilon * ring.w ** e for e in _self_conjugate(m)]
    else:
        if window is None:
            raise DomainError("Q_eps of the Laurent ring needs an exponent window bound")
        if window < 0:
            raise DomainError(f"the exponent window must be at least 0, got {window}")
        pairs, signs = window, [epsilon]
    return AbelianGroup(pairs + signs.count(1), (2,) * signs.count(-1))
