"""Chain-level quadratic complexes, surgery, and cobordisms."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from surgery_algebra import _intlat, complexes as cx, matrices as mx, rings
from surgery_algebra.complexes import (
    Cobordism,
    OddComplex,
    SurgeryData,
    complex_homology,
    complex_violations,
    is_contractible,
    is_homotopy_equivalence,
    odd_complex,
    reflexive_cobordism,
    reverse_cobordism,
    surgery_on_complex,
    union_cobordisms,
    validate_cobordism,
    validate_complex,
    verify_map,
    zero_complex,
)
from surgery_algebra.errors import DomainError, WrongRingError
from surgery_algebra.rings import AbelianGroup
from surgery_algebra.generators import hessian_corner, matrix as random_matrix

from conftest import random_complex

Z = rings.integers()


def test_zero_complex_is_valid_and_contractible():
    for parity in (0, 1):
        c = zero_complex(Z, parity)
        assert validate_complex(c)
        assert is_contractible(c)
        assert complex_homology(c) == (AbelianGroup(0, ()), 0)


def test_rank_one_product_complex():
    for parity in (0, 1):
        c = odd_complex(Z, parity, [[0]], [[1]], [[0]])
        assert validate_complex(c)
        assert not is_contractible(c)
        assert complex_homology(c) == (AbelianGroup(1, ()), 1)


def test_doubled_differential_depends_on_the_parity():
    c = odd_complex(Z, 1, [[2]], [[1]], [[-1]])
    assert validate_complex(c)
    assert complex_homology(c) == (AbelianGroup(0, (2,)), 0)
    bad = odd_complex(Z, 0, [[2]], [[1]], [[-1]])
    viols = complex_violations(bad)
    assert viols and not validate_complex(bad)


def test_contractibility_is_invertibility():
    assert is_contractible(OddComplex(Z, 0, mx.int_matrix([[-1]]),
                                      mx.int_matrix([[1]]), mx.int_matrix([[1]])))
    assert not is_contractible(odd_complex(Z, 1, [[2]], [[1]], [[-1]]))


def test_identity_is_an_equivalence():
    rng = random.Random(71)
    c = random_complex(rng, 1, 2, 3)
    ident = (mx.identity_matrix(Z, c.rank_top), mx.identity_matrix(Z, c.rank_bottom))
    assert verify_map(ident, None, None, c, c)
    assert is_homotopy_equivalence(ident, c, c)


def test_zero_map_is_not_an_equivalence():
    c = odd_complex(Z, 0, [[0]], [[1]], [[0]])
    zero = (mx.zero_matrix(Z, 1, 1), mx.zero_matrix(Z, 1, 1))
    assert not is_homotopy_equivalence(zero, c, c)


def test_maps_between_different_parities_fail_fast():
    a = zero_complex(Z, 0)
    b = zero_complex(Z, 1)
    empty = (mx.zero_matrix(Z, 0, 0), mx.zero_matrix(Z, 0, 0))
    assert not verify_map(empty, None, None, a, b)


def test_identity_map_with_a_shifted_quadratic_structure():
    # same chain complex, quadratic structure moved by a coboundary of chi
    rng = random.Random(72)
    for parity in (0, 1):
        c = random_complex(rng, parity, 2, 3)
        eps = c.epsilon
        chi = random_matrix(rng, Z, c.rank_top, c.rank_top)
        cob = chi.sub(chi.star().scale_int(eps))
        shifted = OddComplex(Z, parity, c.d,
                             c.psi0.sub(cob.mul(c.d.star())),
                             c.psi1.add(c.d.mul(chi).mul(c.d.star())))
        assert validate_complex(shifted)
        ident = (mx.identity_matrix(Z, c.rank_top), mx.identity_matrix(Z, c.rank_bottom))
        assert verify_map(ident, chi, None, c, shifted)
        assert verify_map(ident, chi, None, c, shifted, weak=True)
        assert is_homotopy_equivalence(ident, c, shifted, chi0=chi)


def test_surgery_on_the_empty_complex():
    for parity, delta in ((0, 0), (0, 1), (1, 0), (1, 1)):
        c = zero_complex(Z, parity)
        data = SurgeryData(mx.zero_matrix(Z, 1, 0), mx.int_matrix([[delta]]))
        effect, trace = surgery_on_complex(c, data)
        eps = c.epsilon
        assert effect.d.to_int_grid() == [[delta * (1 - eps)]]
        assert effect.psi0.to_int_grid() == [[1]]
        assert effect.psi1.to_int_grid() == [[-delta]]
        assert validate_complex(effect)
        assert validate_cobordism(c, effect, trace)
    # the torsion case appears at the odd parity
    c = zero_complex(Z, 1)
    effect, _ = surgery_on_complex(c, SurgeryData(mx.zero_matrix(Z, 1, 0),
                                                  mx.int_matrix([[1]])))
    assert complex_homology(effect) == (AbelianGroup(0, (2,)), 0)


def test_surgery_requires_an_onto_map():
    c = odd_complex(Z, 1, [[2]], [[1]], [[-1]])
    data = SurgeryData(mx.zero_matrix(Z, 1, 1), mx.zero_matrix(Z, 1, 1))
    with pytest.raises(DomainError):
        surgery_on_complex(c, data)


def test_identity_surgery_traces_validate():
    rng = random.Random(73)
    for _ in range(12):
        parity = rng.randrange(2)
        k = rng.randint(1, 3)
        c = random_complex(rng, parity, k, rng.randint(1, 5))
        data = SurgeryData(mx.identity_matrix(Z, c.rank_top),
                           hessian_corner(rng, Z, c.rank_top, -c.epsilon)
                           if rng.random() < 0.5 else
                           random_matrix(rng, Z, c.rank_top, c.rank_top))
        assert cx.surgery_admissible(c, data)
        effect, trace = surgery_on_complex(c, data)
        assert validate_complex(effect)
        assert validate_cobordism(c, effect, trace)


def test_union_of_a_trace_with_its_reversal():
    rng = random.Random(74)
    for _ in range(8):
        parity = rng.randrange(2)
        c = random_complex(rng, parity, rng.randint(1, 2), rng.randint(1, 4))
        data = SurgeryData(mx.identity_matrix(Z, c.rank_top),
                           random_matrix(rng, Z, c.rank_top, c.rank_top))
        effect, trace = surgery_on_complex(c, data)
        loop = union_cobordisms(c, effect, c, trace, reverse_cobordism(trace))
        assert validate_cobordism(c, c, loop)


def test_union_rejects_mismatched_middles():
    a = odd_complex(Z, 0, [[0]], [[1]], [[0]])
    b = zero_complex(Z, 0)
    data = SurgeryData(mx.identity_matrix(Z, 1), mx.zero_matrix(Z, 1, 1))
    _, trace = surgery_on_complex(a, data)
    with pytest.raises(Exception):
        union_cobordisms(a, b, a, trace, reverse_cobordism(trace))


def test_reflexive_cobordism_validates():
    rng = random.Random(75)
    for _ in range(10):
        parity = rng.randrange(2)
        c = random_complex(rng, parity, rng.randint(1, 3), rng.randint(1, 5))
        twin, cob = reflexive_cobordism(c)
        assert validate_complex(twin)
        assert validate_cobordism(c, twin, cob)


def test_trivial_cobordism_between_nonzero_complexes_fails():
    c = odd_complex(Z, 0, [[0]], [[1]], [[0]])
    cob = Cobordism(mx.zero_matrix(Z, 0, 1), mx.zero_matrix(Z, 0, 1),
                    mx.zero_matrix(Z, 0, 0))
    assert not validate_cobordism(c, c, cob)


def test_surgery_preserves_homology_when_nothing_is_attached():
    rng = random.Random(76)
    for _ in range(8):
        c = random_complex(rng, 1, 2, 3)
        if not mx.is_surjection(c.d):
            continue
        data = SurgeryData(mx.zero_matrix(Z, 0, c.rank_top), mx.zero_matrix(Z, 0, 0))
        assert cx.surgery_admissible(c, data)
        effect, _ = surgery_on_complex(c, data)
        assert complex_homology(effect) == complex_homology(c)


def test_a_glued_inclusion_that_is_no_split_injection_is_refused_by_name():
    c, mid = zero_complex(Z, 1), odd_complex(Z, 1, [[2]], [[1]], [[-1]])
    cob1 = Cobordism(mx.zero_matrix(Z, 1, 0), mx.int_matrix([[2]]), mx.zero_matrix(Z, 1, 1))
    cob2 = Cobordism(mx.int_matrix([[2]]), mx.zero_matrix(Z, 1, 0), mx.zero_matrix(Z, 1, 1))
    with pytest.raises(DomainError) as err:  # (2; 2; 2) spans no primitive sublattice
        union_cobordisms(c, mid, c, cob1, cob2)
    assert type(err.value) is DomainError and str(err.value) == \
        "the glued inclusion (j1'; d; j2) has non-free cokernel; inputs are not valid cobordisms"


def test_complex_matrices_over_another_ring_are_a_wrong_ring_error():
    c3 = rings.cyclic(3)
    for bad in range(3):
        ms = [mx.zero_matrix(c3 if i == bad else Z, 1, 1) for i in range(3)]
        with pytest.raises(WrongRingError, match="^complex matrices live over the wrong ring$"):
            OddComplex(Z, 0, *ms)


# -- laws of surgery and gluing, over Z ------------------------------------------------

def admissible_surgery(rng, c):
    """Surgery data drawn as criterion 11 draws it: j of 1 or k rows and delta with entries
    in [-1, 1], redrawn until admissible, 200 tries at most; None if none was."""
    k = c.rank_top
    for _ in range(200):
        m = rng.choice([1, k])
        s = SurgeryData(random_matrix(rng, Z, m, k, -1, 1), random_matrix(rng, Z, m, m, -1, 1))
        if cx.surgery_admissible(c, s):
            return s
    return None


def surgery_draw(seed, parity, k):
    rng = random.Random(seed)
    c = random_complex(rng, parity, k, rng.randint(1, 5))
    s = admissible_surgery(rng, c)
    assume(s is not None)
    effect, trace = surgery_on_complex(c, s)
    return c, effect, trace


DRAWS = (st.integers(0, 2**32), st.sampled_from([0, 1]), st.integers(1, 4))


@settings(max_examples=100)
@given(*DRAWS)
def test_the_trace_of_a_surgery_is_a_cobordism(seed, parity, k):
    c, effect, trace = surgery_draw(seed, parity, k)
    assert validate_cobordism(c, effect, trace)


@settings(max_examples=100)
@given(*DRAWS)
def test_a_trace_glued_to_its_reversal_is_a_cobordism(seed, parity, k):
    c, effect, trace = surgery_draw(seed, parity, k)
    assert validate_cobordism(c, c, union_cobordisms(c, effect, c, trace, reverse_cobordism(trace)))


def shifted_copy(rng, parity):
    """(c, c', chi): a random complex c and c' = c with its quadratic structure moved by
    chi, so that the identity is a map c -> c' with chi0 = chi and chi1 = 0."""
    c = random_complex(rng, parity, 2, 3)
    chi = random_matrix(rng, Z, c.rank_top, c.rank_top)
    cob = chi.sub(chi.star().scale_int(c.epsilon))
    return c, OddComplex(Z, parity, c.d, c.psi0.sub(cob.mul(c.d.star())),
                         c.psi1.add(c.d.mul(chi).mul(c.d.star()))), chi


def identity_pair(ring, c):
    return mx.identity_matrix(ring, c.rank_top), mx.identity_matrix(ring, c.rank_bottom)


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=100)
@given(seed=st.integers(0, 2**32))
def test_a_map_is_decided_without_a_chi0_witness_over_the_integers(parity, seed):
    """Which chi0 the psi0 identity admits matters to the psi1 identity, so a missing chi0 is
    solved for together with chi1; a chi0 fixed first fails some of these maps at eps = +1."""
    c, shifted, chi = shifted_copy(random.Random(seed), parity)
    ident = identity_pair(Z, c)
    assert verify_map(ident, None, None, c, shifted)
    assert verify_map(ident, None, mx.zero_matrix(Z, c.rank_bottom, c.rank_bottom), c, shifted)
    assert verify_map(ident, None, None, c, shifted, weak=True)
    assert is_homotopy_equivalence(ident, c, shifted)
    assert verify_map(ident, chi, mx.zero_matrix(Z, c.rank_bottom, c.rank_bottom), c, shifted)


def test_the_smallest_map_whose_chi0_is_not_zero():
    # d = 1, and psi1 moves from 0 to 1: only chi0 = 1 (with chi1 = 0) makes the identity a map
    c, cprime = odd_complex(Z, 0, [[1]], [[0]], [[0]]), odd_complex(Z, 0, [[1]], [[0]], [[1]])
    ident = identity_pair(Z, c)
    assert verify_map(ident, mx.int_matrix([[1]]), None, c, cprime)
    assert verify_map(ident, None, None, c, cprime)
    assert is_homotopy_equivalence(ident, c, cprime)
    # with a chi1 witness: chi0 = 1, chi1 = 0 holds and chi1 = 1 does not; with chi0 missing,
    # chi1 = 1 is completed by chi0 = 3, since 3 - 1 = 1 + 1
    assert verify_map(ident, mx.int_matrix([[1]]), mx.int_matrix([[0]]), c, cprime)
    assert not verify_map(ident, mx.int_matrix([[1]]), mx.int_matrix([[1]]), c, cprime)
    assert not verify_map(ident, mx.int_matrix([[0]]), None, c, cprime)
    assert verify_map(ident, None, mx.int_matrix([[1]]), c, cprime)
    assert verify_map(ident, mx.int_matrix([[3]]), mx.int_matrix([[1]]), c, cprime)


def test_a_map_that_no_chi0_rescues_is_refused():
    # d = 0: chi0 cannot reach psi1, which moves by 1, an odd diagonal that is no symmetrisation
    c, cprime = odd_complex(Z, 0, [[0]], [[1]], [[0]]), odd_complex(Z, 0, [[0]], [[1]], [[1]])
    ident = identity_pair(Z, c)
    assert not verify_map(ident, None, None, c, cprime)
    assert verify_map(ident, None, None, c, cprime, weak=True)
    assert not is_homotopy_equivalence(ident, c, cprime)
    for k in range(-2, 3):
        assert not verify_map(ident, mx.int_matrix([[k]]), None, c, cprime)
    # an even move of psi1, by 2, is the symmetrisation chi1 + chi1' of chi1 = -1: the system finds it
    moved = odd_complex(Z, 0, [[0]], [[1]], [[2]])
    assert verify_map(ident, None, None, c, moved)
    assert verify_map(ident, None, mx.int_matrix([[-1]]), c, moved)
    assert not verify_map(ident, None, mx.int_matrix([[0]]), c, moved)


def test_off_the_integers_a_failed_zero_chi0_asks_for_a_witness():
    ring = rings.cyclic(2)
    c, cprime = odd_complex(ring, 0, [[1]], [[0]], [[0]]), odd_complex(ring, 0, [[1]], [[0]], [[1]])
    ident = identity_pair(ring, c)
    with pytest.raises(WrongRingError, match="supply a chi0 witness"):
        verify_map(ident, None, None, c, cprime)
    assert verify_map(ident, None, None, c, cprime, weak=True)
    assert verify_map(ident, mx.matrix(ring, [[1]]), None, c, cprime)
    assert verify_map(ident, None, None, c, c)


def dense_chi_solvable(d, n0, n1, eps, chi1=None):
    """Whether integer chi0 and, when chi1 is None, chi1 solve (chi0 - eps*chi0')·d' = n0 and
    n1 + d·chi0·d' = chi1 + eps*chi1', with every entry of each unknown a column and every
    entry of both identities a row."""
    t, b = d.cols, d.rows
    fixed = mx.zero_matrix(Z, b, b) if chi1 is None else chi1.add(chi1.star().scale_int(eps))
    width = t * t + (b * b if chi1 is None else 0)
    dg = d.to_int_grid()
    rows, rhs = [], []
    for i in range(t):
        for s in range(b):
            row = [0] * width
            for j in range(t):
                row[i * t + j] += dg[s][j]
                row[j * t + i] -= eps * dg[s][j]
            rows.append(row)
            rhs.append(n0.to_int_grid()[i][s])
    for r in range(b):
        for s in range(b):
            row = [dg[r][p] * dg[s][q] for p in range(t) for q in range(t)] + [0] * (width - t * t)
            if chi1 is None:
                row[t * t + r * b + s] -= 1
                row[t * t + s * b + r] -= eps
            rows.append(row)
            rhs.append(fixed.sub(n1).to_int_grid()[r][s])
    return _intlat.solve(rows, [[x] for x in rhs]) is not None


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=100)
@given(seed=st.integers(0, 2**32))
def test_a_missing_chi0_is_decided_as_by_the_dense_system(parity, seed):
    """With chi1 free only the parity of the psi1 identity's diagonal depends on chi0: the reduced
    system agrees with the one that takes every entry of chi0 and chi1 as an unknown, and with
    chi1 given, with the one that takes every entry of chi0."""
    rng = random.Random(seed)
    c, shifted, _ = shifted_copy(rng, parity)
    b = c.rank_bottom
    chi1 = move = random_matrix(rng, Z, b, b, -1, 1)
    if rng.random() < 0.5:  # a move by the symmetrisation of chi1 keeps the identity a map
        move = move.add(move.star().scale_int(c.epsilon))
    shifted = OddComplex(Z, parity, c.d, shifted.psi0, shifted.psi1.add(move))
    ident = identity_pair(Z, c)
    n0 = c.psi0.sub(shifted.psi0)
    n1 = c.psi1.sub(shifted.psi1)
    assert verify_map(ident, None, None, c, shifted) == dense_chi_solvable(c.d, n0, n1, c.epsilon)
    if rng.random() < 0.5:  # one entry off: d·chi0·d' must make it up, off the diagonal too
        r, s = rng.randrange(b), rng.randrange(b)
        chi1 = chi1.add(mx.int_matrix([[int((i, j) == (r, s)) for j in range(b)] for i in range(b)]))
    assert verify_map(ident, None, chi1, c, shifted) == dense_chi_solvable(c.d, n0, n1, c.epsilon, chi1)


@pytest.mark.parametrize("parity, maps, refused", [(0, [[0, 1], [1, 0]], [[0, 2], [0, 0]]),
                                                   (1, [[0, 1], [-1, 0]], [[0, 1], [1, 0]])])
def test_psi1_moves_by_an_eps_symmetric_matrix_or_not_at_all(parity, maps, refused):
    # d = 0: chi0 cannot reach psi1, and a move that is not eps-symmetric is no chi1 + eps*chi1'
    c = odd_complex(Z, parity, [[0], [0]], [[0, 0]], [[0, 0], [0, 0]])
    ident = identity_pair(Z, c)
    assert verify_map(ident, None, None, c, odd_complex(Z, parity, [[0], [0]], [[0, 0]], maps))
    assert not verify_map(ident, None, None, c, odd_complex(Z, parity, [[0], [0]], [[0, 0]], refused))
