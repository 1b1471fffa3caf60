"""The JSON wire formats: every object survives a round trip through canonical text."""

import random

from hypothesis import given, strategies as st

from surgery_algebra import complexes as cx
from surgery_algebra import forms, rings
from surgery_algebra import serialize as sz
from surgery_algebra.matrices import FormMatrix

from conftest import ring_element

RINGS = [rings.integers(), rings.cyclic(1), rings.cyclic(3), rings.cyclic(4, -1),
         rings.cyclic(6, 1), rings.laurent()]
ring_strategy = st.sampled_from(RINGS)
seeds = st.integers(0, 2**32)
sizes = st.integers(0, 3)


def random_matrix(rng, ring, rows, cols):
    """Built with its declared shape, which a list of rows loses when it has none."""
    return FormMatrix(ring, rows, cols, tuple(tuple(ring_element(rng, ring) for _ in range(cols))
                                              for _ in range(rows)))


def through_text(obj):
    """The object as read back from its canonical text, and that text."""
    text = sz.dumps_canonical(obj)
    return sz.loads(text), text


@given(ring_strategy, seeds)
def test_ring_elements_round_trip(ring, seed):
    rng = random.Random(seed)
    for lo, hi in ((-2, 2), (-2**70, 2**70)):
        a = ring_element(rng, ring, lo, hi)
        obj, _ = through_text(sz.element_to_obj(a))
        assert sz.element_from_obj(ring, obj) == a
    assert sz.ring_from_obj(through_text(sz.ring_to_obj(ring))[0]) == ring


@given(ring_strategy, sizes, sizes, seeds)
def test_matrices_round_trip(ring, rows, cols, seed):
    m = random_matrix(random.Random(seed), ring, rows, cols)
    obj, text = through_text(sz.matrix_to_obj(m))
    back = sz.matrix_from_obj(ring, obj, rows=rows, cols=cols)
    assert back == m
    assert back.entries == m.entries
    assert sz.dumps_canonical(sz.matrix_to_obj(back)) == text


def random_split(rng, ring, eps, k):
    return forms.SplitForm(ring, eps, random_matrix(rng, ring, k, k))


@given(ring_strategy, st.sampled_from([1, -1]), sizes, seeds)
def test_quadratic_forms_round_trip(ring, eps, k, seed):
    q = forms.split_to_quadratic(random_split(random.Random(seed), ring, eps, k))
    obj, text = through_text(sz.form_to_obj(q))
    back = sz.form_from_obj(obj)
    assert back == q
    assert sz.dumps_canonical(sz.form_to_obj(back)) == text


@given(ring_strategy, st.sampled_from([1, -1]), sizes, seeds)
def test_split_forms_round_trip(ring, eps, k, seed):
    s = random_split(random.Random(seed), ring, eps, k)
    obj, text = through_text(sz.split_to_obj(s))
    back_ring = sz.ring_from_obj(obj["ring"])
    psi = sz.matrix_from_obj(back_ring, obj["psi"], rows=k, cols=k)
    back = forms.SplitForm(back_ring, obj["epsilon"], psi)
    assert back == s
    assert sz.dumps_canonical(sz.split_to_obj(back)) == text


@given(ring_strategy, st.sampled_from([0, 1]), sizes, sizes, seeds)
def test_complexes_round_trip(ring, parity, c0, c1, seed):
    rng = random.Random(seed)
    c = cx.OddComplex(ring, parity, random_matrix(rng, ring, c0, c1),
                      random_matrix(rng, ring, c1, c0), random_matrix(rng, ring, c0, c0))
    obj, text = through_text(sz.complex_to_obj(c))
    back = sz.complex_from_obj(obj)
    assert back == c
    assert (back.rank_bottom, back.rank_top) == (c0, c1)
    assert sz.dumps_canonical(sz.complex_to_obj(back)) == text
