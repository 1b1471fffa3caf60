"""Formations: pairs of lagrangians, boundaries, and the complex dictionary."""

import random

import pytest

from surgery_algebra import _intlat, complexes as cx, formations, forms, matrices as mx, rings, unitary
from surgery_algebra.errors import DomainError, PreconditionError, SchemaError, WrongRingError
from surgery_algebra.formations import (
    Formation,
    boundary_formation,
    boundary_witness,
    complex_to_formation,
    direct_sum_formation,
    formation,
    formation_from_automorphism,
    formation_homology,
    formation_to_complex,
    formation_violations,
    is_trivial_formation,
    negate_formation,
    normalize_formation,
    null_cobordism_of_boundary,
    trivial_formation,
    validate_formation,
    verify_formation_isomorphism,
    verify_stable_isomorphism,
)
from surgery_algebra.forms import hyperbolic_quadratic, mu_value, quadratic_form
from surgery_algebra.rings import AbelianGroup
from surgery_algebra.generators import hessian_corner, word as random_word

from conftest import random_unimodular
from test_forms import arf_form

Z = rings.integers()


def test_trivial_formation_is_detected_with_the_identity():
    phi = trivial_formation(Z, -1, 2)
    assert validate_formation(phi)
    iso = is_trivial_formation(phi)
    assert iso is not None and iso.f == mx.identity_matrix(Z, 4)


def test_equal_lagrangians_are_never_complementary():
    q = hyperbolic_quadratic(Z, -1, 1)
    f = mx.int_matrix([[1], [0]])
    phi = formation(Z, -1, q, f, f)
    assert validate_formation(phi)
    assert is_trivial_formation(phi) is None
    assert formation_homology(phi) == (AbelianGroup(1, ()), 1)


def test_violations_name_the_failing_lagrangian():
    q = hyperbolic_quadratic(Z, -1, 1)
    phi = formation(Z, -1, q, [[1], [0]], [[1], [1]])
    assert "G is not a lagrangian" in formation_violations(phi)
    singular = formation(Z, -1, quadratic_form(Z, -1, [[0, 0], [0, 0]], [0, 0]),
                         [[1], [0]], [[0], [1]])
    assert formation_violations(singular) == ("underlying form is singular",)


def test_boundary_of_the_zero_form():
    k = quadratic_form(Z, -1, [[0]], [0])
    phi = boundary_formation(k)
    assert phi.epsilon == 1
    assert phi.g.to_int_grid() == [[1], [0]]
    assert validate_formation(phi)


def test_boundary_graph_carries_the_pairing():
    k = quadratic_form(Z, 1, [[2]], [1])
    phi = boundary_formation(k)
    assert phi.epsilon == -1
    assert phi.g.to_int_grid() == [[1], [2]]
    assert validate_formation(phi)
    # graph with a nonzero pairing: boundary-detectable but not trivial
    assert is_trivial_formation(phi) is None


def test_boundary_of_the_arf_form_and_of_singular_forms():
    phi = boundary_formation(arf_form())
    assert phi.rank == 4 and validate_formation(phi)
    singular = quadratic_form(Z, -1, [[0]], [1])
    assert validate_formation(boundary_formation(singular))


def test_boundary_witness_recovers_the_form():
    rng = random.Random(91)
    for _ in range(12):
        eps = rng.choice((1, -1))
        k = rng.randint(1, 3)
        lam = hessian_corner(rng, Z, k, eps)
        mu = [rings.symmetrize_preimage(lam.entry(i, i), -eps) for i in range(k)]
        form_in = quadratic_form(Z, -eps, lam, mu)
        phi = boundary_formation(form_in)
        recovered, iso = boundary_witness(phi, formations._standard_dual(Z, k))
        assert recovered.lam == form_in.lam
        assert verify_formation_isomorphism(boundary_formation(recovered), phi, iso.f)


def test_boundary_witness_rejects_bad_witnesses():
    phi = boundary_formation(quadratic_form(Z, 1, [[2]], [1]))
    with pytest.raises(PreconditionError):
        boundary_witness(phi, phi.f)
    with pytest.raises(PreconditionError):
        boundary_witness(phi, mx.int_matrix([[1], [1]]))


def test_formation_to_complex_values():
    contractible = formation_to_complex(trivial_formation(Z, -1, 2))
    assert cx.is_contractible(contractible)

    q = hyperbolic_quadratic(Z, -1, 1)
    f = mx.int_matrix([[1], [0]])
    both_equal = formation_to_complex(formation(Z, -1, q, f, f))
    assert both_equal.d.is_zero()

    c = formation_to_complex(boundary_formation(quadratic_form(Z, -1, [[0]], [0])))
    assert c.d.to_int_grid() == [[0]] and c.psi0.to_int_grid() == [[1]]


def test_formation_to_complex_requires_the_standard_presentation():
    phi = trivial_formation(Z, -1, 1)
    p = random_unimodular(random.Random(92), Z, 2)
    moved = formation(Z, -1,
                      quadratic_form(Z, -1, p.star().mul(phi.q.lam).mul(p),
                                     [mu_value(phi.q, p.column(j)) for j in range(2)]),
                      mx.inverse(p).mul(phi.f), mx.inverse(p).mul(phi.g))
    assert validate_formation(moved)
    with pytest.raises(PreconditionError):
        formation_to_complex(moved)
    norm, ext = normalize_formation(moved)
    assert verify_formation_isomorphism(norm, moved, ext.f)
    assert cx.validate_complex(formation_to_complex(norm))


def test_complex_to_formation_round_trip():
    rng = random.Random(93)
    for _ in range(15):
        eps = rng.choice((1, -1))
        k = rng.randint(1, 3)
        phi = formation_from_automorphism(random_word(rng, eps, k, rng.randint(1, 5)))
        c = formation_to_complex(phi)
        assert cx.validate_complex(c)
        back = complex_to_formation(c)
        assert verify_formation_isomorphism(back, phi, mx.identity_matrix(Z, 2 * k))
        assert formation_homology(phi) == cx.complex_homology(c)


def test_product_complex_has_equal_lagrangians():
    c = cx.odd_complex(Z, 0, [[0]], [[1]], [[0]])
    phi = complex_to_formation(c)
    assert mx.same_span(phi.f, phi.g)
    assert formation_homology(phi) == (AbelianGroup(1, ()), 1)


def test_formation_from_automorphism():
    ident = unitary.identity_unitary(Z, -1, 2)
    phi = formation_from_automorphism(ident)
    assert mx.same_span(phi.f, phi.g)
    sigma = unitary.sigma_eps(Z, -1, 2)
    triv = formation_from_automorphism(sigma)
    assert is_trivial_formation(triv) is not None
    broken = unitary.UnitaryAutomorphism(
        Z, -1, mx.identity_matrix(Z, 1), mx.identity_matrix(Z, 1),
        mx.zero_matrix(Z, 1, 1), mx.identity_matrix(Z, 1))
    with pytest.raises(DomainError):
        formation_from_automorphism(broken)


def test_null_cobordism_of_boundaries():
    cases = [
        quadratic_form(Z, -1, [[0]], [0]),
        arf_form(),
        quadratic_form(Z, -1, [[0]], [1]),
        quadratic_form(Z, 1, [[2, 1], [1, 2]], [1, 1]),
    ]
    for k in cases:
        c, cob = null_cobordism_of_boundary(k)
        assert cx.validate_complex(c)
        assert cx.validate_cobordism(c, cx.zero_complex(Z, c.parity), cob)


def test_direct_sums_and_negation_stay_standard():
    a = boundary_formation(quadratic_form(Z, -1, [[0]], [1]))
    b = boundary_formation(quadratic_form(Z, -1, [[0, -1], [1, 0]], [1, 0]))
    s = direct_sum_formation(a, b)
    assert validate_formation(s)
    assert formation_to_complex(s) is not None
    n = negate_formation(a)
    assert validate_formation(n) and n.epsilon == a.epsilon
    assert n.q == forms.negate(a.q)
    with pytest.raises(PreconditionError):
        formation_to_complex(n)
    norm, ext = normalize_formation(n)
    assert verify_formation_isomorphism(norm, n, ext.f)
    assert cx.validate_complex(formation_to_complex(norm))


def test_stable_isomorphism_with_padding():
    a = boundary_formation(quadratic_form(Z, 1, [[2]], [1]))
    b = direct_sum_formation(a, trivial_formation(Z, a.epsilon, 1))
    assert verify_stable_isomorphism(a, b, mx.identity_matrix(Z, 4), pad_a=1, pad_b=0)
    assert not verify_stable_isomorphism(a, b, mx.identity_matrix(Z, 4), pad_a=0, pad_b=0)


def test_stable_isomorphism_refuses_a_negative_pad():
    # the shapes match (4 - 2 = 2), so only the pad test stands between the call and matrices
    big, small, f = trivial_formation(Z, -1, 2), trivial_formation(Z, -1, 1), mx.identity_matrix(Z, 2)
    with pytest.raises(SchemaError, match="^pad_a must be at least 0, got -1$"):
        verify_stable_isomorphism(big, small, f, pad_a=-1)
    with pytest.raises(SchemaError, match="^pad_b must be at least 0, got -1$"):
        verify_stable_isomorphism(small, big, f, pad_b=-1)


def bareiss_sizes(monkeypatch):
    """The row count of each Bareiss elimination."""
    sizes = []
    real = _intlat.bareiss
    monkeypatch.setattr(_intlat, "bareiss", lambda a, b: sizes.append(len(a)) or real(a, b))
    return sizes


def test_a_formation_isomorphism_is_checked_with_one_determinant(monkeypatch):
    phi = formation_from_automorphism(random_word(random.Random(8), -1, 3, 7))
    norm, ext = normalize_formation(phi)
    sizes = bareiss_sizes(monkeypatch)
    assert verify_formation_isomorphism(norm, phi, ext.f) and sizes == [6]
    sizes.clear()
    assert not verify_formation_isomorphism(norm, phi, ext.f.scale_int(2)) and sizes == [6]


def test_the_boundary_witness_eliminates_only_k_by_k_pairings(monkeypatch):
    rng = random.Random(9)
    lam = hessian_corner(rng, Z, 3, 1)
    mu = [rings.symmetrize_preimage(lam.entry(i, i), -1) for i in range(3)]
    phi = boundary_formation(quadratic_form(Z, -1, lam, mu))
    sizes = bareiss_sizes(monkeypatch)
    recovered, iso = formations._boundary_witness(phi, formations._standard_dual(Z, 3))
    # F*·lambda·h and the top block of T^-1·G; T^-1 itself is read off T*·lambda
    assert recovered.lam == lam and sizes == [3, 3]
    assert iso.f.star().mul(phi.q.lam).mul(iso.f) == hyperbolic_quadratic(Z, 1, 3).lam


def test_a_trivial_formation_of_negative_rank_is_refused_by_name():
    with pytest.raises(SchemaError, match=r"^hyperbolic_split: k must be at least 0, got -1$"):
        trivial_formation(Z, -1, -1)


def test_a_formation_part_over_another_ring_is_a_wrong_ring_error():
    c3 = rings.cyclic(3)
    phi, other = trivial_formation(Z, 1, 1), trivial_formation(c3, 1, 1)
    off = mx.zero_matrix(c3, 2, 1)
    for args, message in [((Z, 1, other.q, phi.f, phi.g), "form does not match the formation's ring and epsilon"),
                          ((Z, -1, phi.q, phi.f, phi.g), "form does not match the formation's ring and epsilon"),
                          ((Z, 1, phi.q, off, phi.g), "lagrangian basis over the wrong ring"),
                          ((Z, 1, phi.q, phi.f, off), "lagrangian basis over the wrong ring")]:
        with pytest.raises(WrongRingError) as err:
            Formation(*args)
        assert str(err.value) == message
    for a, b in ((phi, other), (phi, trivial_formation(Z, -1, 1))):
        with pytest.raises(WrongRingError, match="^formation sum needs one ring and one epsilon$"):
            direct_sum_formation(a, b)


def test_a_direct_sum_off_the_standard_hyperbolic_form_is_valid_and_adds_homology():
    phi = negate_formation(boundary_formation(quadratic_form(Z, -1, [[0]], [1])))
    psi = boundary_formation(quadratic_form(Z, -1, [[0, 3], [-3, 0]], [0, 0]))
    s = direct_sum_formation(phi, psi)
    assert s.q == forms.direct_sum(phi.q, psi.q)  # -H is no standard hyperbolic form
    assert validate_formation(s)
    assert formation_homology(phi) == (AbelianGroup(1, ()), 1)
    assert formation_homology(psi) == (AbelianGroup(0, (3, 3)), 0)
    assert formation_homology(s) == (AbelianGroup(1, (3, 3)), 1)
