"""The JSON wire formats: every object survives a round trip through canonical text."""

import os
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from surgery_algebra import complexes as cx
from surgery_algebra import formations, forms, matrices, plumbing, rings, unitary
from surgery_algebra import serialize as sz
from surgery_algebra.errors import SchemaError
from surgery_algebra.matrices import FormMatrix
from surgery_algebra.generators import element as ring_element, matrix as random_matrix

RINGS = [rings.integers(), rings.cyclic(1), rings.cyclic(3), rings.cyclic(4, -1),
         rings.cyclic(6, 1), rings.laurent()]
ring_strategy = st.sampled_from(RINGS)
seeds = st.integers(0, 2**32)
sizes = st.integers(0, 3)


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


def complex_with_top_rank(ring, top):
    """A zero complex whose rank_top tells a reader how wide a map out of C_(n+1) is."""
    return cx.OddComplex(ring, 0, FormMatrix(ring, 0, top, ()), FormMatrix(ring, top, 0, ((),) * top),
                         FormMatrix(ring, 0, 0, ()))


@given(ring_strategy, st.sampled_from([1, -1]), sizes, sizes, sizes, seeds)
def test_formations_round_trip(ring, eps, k, f_cols, g_cols, seed):
    rng = random.Random(seed)
    q = forms.split_to_quadratic(random_split(rng, ring, eps, k))
    phi = formations.Formation(ring, eps, q, random_matrix(rng, ring, k, f_cols),
                               random_matrix(rng, ring, k, g_cols))
    obj, text = through_text(sz.formation_to_obj(phi))
    back = sz.formation_from_obj(obj)
    if k == 0:  # a basis with no rows loses its width on the wire
        assert (back.f.cols, back.g.cols) == (0, 0)
        return
    assert back == phi
    assert sz.dumps_canonical(sz.formation_to_obj(back)) == text


@given(ring_strategy, st.sampled_from([1, -1]), sizes, seeds)
def test_unitary_automorphisms_round_trip(ring, eps, k, seed):
    rng = random.Random(seed)
    u = unitary.UnitaryAutomorphism(ring, eps, *(random_matrix(rng, ring, k, k) for _ in range(4)))
    obj, text = through_text(sz.unitary_to_obj(u))
    back = sz.unitary_from_obj(obj)
    assert back == u
    assert sz.dumps_canonical(sz.unitary_to_obj(back)) == text


@given(st.sampled_from([0, 1]), st.integers(0, 6), seeds)
def test_plumbing_graphs_round_trip(parity, k, seed):
    rng = random.Random(seed)
    pairs = [(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(0, 2 * k))] if k else []
    g = plumbing.plumbing_graph(parity, [rng.randint(-3, 3) for _ in range(k)],
                                [(i, j) for i, j in pairs if i != j])
    obj, text = through_text(sz.graph_to_obj(g))
    back = sz.graph_from_obj(obj)
    assert back == g
    assert sz.dumps_canonical(sz.graph_to_obj(back)) == text


@pytest.mark.parametrize("name", ["e8-graph", "empty-graph", "i-graph-twisted", "i-graph-untwisted"])
def test_shipped_plumbing_graphs_round_trip(name):
    path = os.path.join(os.path.dirname(sz.__file__), "fixtures", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    g = sz.graph_from_obj(sz.loads(text))
    assert sz.dumps_canonical(sz.graph_to_obj(g)) == text
    if name == "e8-graph":
        assert g == plumbing.e8_graph()


@given(ring_strategy, sizes, sizes, seeds)
def test_surgery_data_round_trip(ring, rows, top, seed):
    rng = random.Random(seed)
    s = cx.SurgeryData(random_matrix(rng, ring, rows, top), random_matrix(rng, ring, rows, rows))
    obj, text = through_text(sz.surgery_to_obj(s))
    back = sz.surgery_from_obj(obj, source=complex_with_top_rank(ring, top))
    assert back == s
    assert sz.dumps_canonical(sz.surgery_to_obj(back)) == text


@given(ring_strategy, sizes, sizes, sizes, seeds)
def test_cobordisms_round_trip(ring, rows, top, top_prime, seed):
    rng = random.Random(seed)
    cob = cx.Cobordism(random_matrix(rng, ring, rows, top), random_matrix(rng, ring, rows, top_prime),
                       random_matrix(rng, ring, rows, rows))
    obj, text = through_text(sz.cobordism_to_obj(cob))
    back = sz.cobordism_from_obj(ring, obj, source=complex_with_top_rank(ring, top),
                                 target=complex_with_top_rank(ring, top_prime))
    assert back == cob
    assert sz.dumps_canonical(sz.cobordism_to_obj(back)) == text


def add_fold_element_from_obj(ring, obj):
    """The element parser as it was: one rings.add per monomial, quadratic in the length."""
    if ring.kind == "cyclic":
        out = rings.zero(ring)
        for k, c in enumerate(obj):
            out = rings.add(out, rings.monomial(ring, k, c))
        return out
    out = rings.zero(ring)
    for k, c in enumerate(obj["coeffs"]):
        out = rings.add(out, rings.monomial(ring, obj["origin"] + k, c))
    return out


@st.composite
def element_objects(draw):
    """Cyclic coefficient lists and Laurent windows, zeros at either end included."""
    coeff = st.integers(-3, 3) | st.integers(-2**70, 2**70)
    ring = draw(st.sampled_from([r for r in RINGS if r.kind != "Z"]))
    if ring.kind == "cyclic":
        return ring, draw(st.lists(coeff, min_size=ring.m, max_size=ring.m))
    return ring, {"origin": draw(st.integers(-40, 40)), "coeffs": draw(st.lists(coeff, max_size=12))}


@given(element_objects())
def test_element_parsing_matches_the_add_fold(data):
    ring, obj = data
    got = sz.element_from_obj(ring, obj)
    assert got == add_fold_element_from_obj(ring, obj)
    assert sz.element_from_obj(ring, sz.element_to_obj(got)) == got


def test_a_long_laurent_element_parses_in_linear_time():
    rng = random.Random(5)
    obj = {"origin": -4000, "coeffs": [rng.randint(-99, 99) for _ in range(8000)]}
    start = time.process_time()
    a = sz.element_from_obj(rings.laurent(), obj)
    assert time.process_time() - start < 0.5
    assert sz.element_to_obj(a) == obj


@pytest.mark.parametrize("origin, count", [
    (sz.MAX_LAURENT_EXPONENT + 1, 1),
    (-sz.MAX_LAURENT_EXPONENT - 1, 1),
    (-sz.MAX_LAURENT_EXPONENT - 1, 0),
    (sz.MAX_LAURENT_EXPONENT - 5, 7),
    (-10**9, 3),
])
def test_laurent_exponents_beyond_the_cap_are_refused(origin, count):
    with pytest.raises(SchemaError, match="Laurent exponents must lie in"):
        sz.element_from_obj(rings.laurent(), {"origin": origin, "coeffs": [1] * count})


def test_laurent_exponents_at_the_cap_are_read():
    cap, L = sz.MAX_LAURENT_EXPONENT, rings.laurent()
    assert sz.element_from_obj(L, {"origin": -cap, "coeffs": [1]}) == rings.monomial(L, -cap)
    assert sz.element_from_obj(L, {"origin": cap - 1, "coeffs": [0, 1]}) == rings.monomial(L, cap)
    assert sz.element_from_obj(L, {"origin": cap, "coeffs": []}) == rings.zero(L)


@pytest.mark.parametrize("count, accepted", [(2 ** 16, True), (2 ** 16 + 1, False)])
def test_laurent_matrices_are_capped_by_their_grid_cells(count, accepted):
    # a 2 x 2 matrix with count distinct exponents is stored as 4 * count grid cells
    assert 4 * 2 ** 16 == sz.MAX_LAURENT_GRID_CELLS
    L, zero = rings.laurent(), {"origin": 0, "coeffs": []}
    obj = [[{"origin": -1000, "coeffs": [1] * count}, zero], [zero, {"origin": 0, "coeffs": [1]}]]
    if not accepted:
        with pytest.raises(SchemaError, match="grid cells"):
            sz.matrix_from_obj(L, obj)
        return
    m = sz.matrix_from_obj(L, obj)
    assert m.entry(0, 0).shift == -1000 and len(m.entry(0, 0).coeffs) == count
    assert m.entry(1, 1) == rings.one(L)


@pytest.mark.parametrize("top, accepted", [(2 ** 16 - 1, True), (2 ** 16, False)])
def test_laurent_matrices_are_capped_by_their_exponent_window(top, accepted):
    # a 2 x 2 matrix holding z^-65536 and z^top spans top + 65537 exponents, 4 * (top + 65537)
    # window cells, though it is stored as two grids
    assert 4 * 2 ** 17 == sz.MAX_LAURENT_WINDOW_CELLS
    L, zero = rings.laurent(), {"origin": 0, "coeffs": []}
    obj = [[{"origin": -2 ** 16, "coeffs": [1]}, zero], [zero, {"origin": top, "coeffs": [1]}]]
    if not accepted:
        with pytest.raises(SchemaError, match="window cells"):
            sz.matrix_from_obj(L, obj)
        return
    m = sz.matrix_from_obj(L, obj)
    assert m.entry(1, 1) == rings.monomial(L, top) and len(m._grids) == 2


# -- integer matrices read and written as int rows ------------------------------


@pytest.mark.parametrize("obj, message", [
    ([[1, True]], "integer element must be an integer, got True"),
    ([[1.5]], "integer element must be an integer, got 1.5"),
    ([[0, 1], ["3", 0]], "integer element must be an integer, got '3'"),
    ([[None]], "integer element must be an integer, got None"),
    ([[1, 2], [3]], "matrix rows have unequal lengths"),
    ([[1], 2], "matrix must be an array of arrays"),
])
def test_integer_matrices_refuse_what_is_no_int_row(obj, message):
    with pytest.raises(SchemaError) as err:
        sz.matrix_from_obj(rings.integers(), obj)
    assert str(err.value) == message


def test_an_integer_matrix_reads_its_rows_without_sharing_them():
    rows = [[1, -2], [0, 3]]
    m = sz.matrix_from_obj(rings.integers(), rows)
    rows[0][0] = 9
    assert m.to_int_grid() == [[1, -2], [0, 3]]
    assert sz.matrix_to_obj(m) == [[1, -2], [0, 3]]


def shipped_fixture_round_trip(obj):
    """Each object of a shipped fixture read and re-encoded through its own wire type."""
    if "lambda" in obj:
        return sz.form_to_obj(sz.form_from_obj(obj))
    if "weights" in obj:
        return sz.graph_to_obj(sz.graph_from_obj(obj))
    decode = {
        "complex": lambda v: sz.complex_to_obj(sz.complex_from_obj(v)),
        "effect": lambda v: sz.complex_to_obj(sz.complex_from_obj(v)),
        "automorphism": lambda v: sz.unitary_to_obj(sz.unitary_from_obj(v)),
        "surgeries": lambda v: [sz.surgery_to_obj(sz.surgery_from_obj(s)) for s in v],
    }
    assert set(obj) <= set(decode)
    return {k: decode[k](v) for k, v in obj.items()}


FIXTURES = sorted(name[:-5] for name in os.listdir(os.path.join(os.path.dirname(sz.__file__), "fixtures"))
                  if name.endswith(".json"))


@pytest.mark.parametrize("name", FIXTURES)
def test_every_shipped_fixture_round_trips_byte_for_byte(name):
    path = os.path.join(os.path.dirname(sz.__file__), "fixtures", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert sz.dumps_canonical(shipped_fixture_round_trip(sz.loads(text))) == text


# -- group-ring matrices read straight into grids ---------------------------------


def frozen_matrix_from_obj(ring, obj, rows=None, cols=None):
    """matrix_from_obj as it read group-ring matrices: one RingElement per entry, then the grids."""
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
    if ring.m * max(r, c) > sz.MAX_CYCLIC_WIDTH:
        raise SchemaError(f"a {r}x{c} matrix over {ring} is {ring.m * max(r, c)} wide in its regular "
                          f"representation, beyond {sz.MAX_CYCLIC_WIDTH}")
    if r == 0:
        return matrices.zero_matrix(ring, 0, c)
    data = [[sz.element_from_obj(ring, v) for v in row] for row in obj]
    if ring.kind == "laurent":
        exponents = {k for row in data for e in row for k, x in enumerate(e.coeffs, e.shift) if x}
        if len(exponents) * r * c > sz.MAX_LAURENT_GRID_CELLS:
            raise SchemaError(f"a {r}x{c} matrix over {ring} with {len(exponents)} distinct exponents "
                              f"is stored as {len(exponents) * r * c} grid cells, beyond {sz.MAX_LAURENT_GRID_CELLS}")
        window = max(exponents) - min(exponents) + 1 if exponents else 0
        if window * r * c > sz.MAX_LAURENT_WINDOW_CELLS:
            raise SchemaError(f"a {r}x{c} matrix over {ring} with exponents from {min(exponents)} to "
                              f"{max(exponents)} is packed as {window * r * c} window cells, "
                              f"beyond {sz.MAX_LAURENT_WINDOW_CELLS}")
    return matrices.matrix(ring, data)


def read_outcome(read, ring, obj, rows, cols):
    """The grids and entries read, or the class and message of the SchemaError raised."""
    try:
        m = read(ring, obj, rows, cols)
    except SchemaError as e:
        return type(e), str(e)
    return m.rows, m.cols, matrices._nonzero(m), m.entries


GROUP_RINGS = [rings.cyclic(1), rings.cyclic(3), rings.cyclic(4, -1), rings.cyclic(6, 1), rings.laurent()]
# what no element encoding may hold, at any level
BAD = [True, False, 0.0, 1.0, None, "1", [[1]], {"origin": 0}]
CAP = sz.MAX_LAURENT_EXPONENT


ELEMENT_FAULTS = {"cyclic": ["coefficient", "length", "element"],
                  "laurent": ["origin", "coeffs", "coefficient", "missing", "element", "cap"]}
CASES = [(ring, fault) for ring in GROUP_RINGS
         for fault in [None, "ragged", "rows", "cols"] + ELEMENT_FAULTS[ring.kind]]


def faulty_element(draw, ring, fault):
    """A valid element encoding over ring, or one at fault in the given way."""
    coeff = st.integers(-3, 3) | st.integers(-2**70, 2**70)
    bad = st.sampled_from(BAD)
    if ring.kind == "cyclic":
        v = draw(st.lists(coeff, min_size=ring.m, max_size=ring.m))
        if fault == "coefficient":
            v[draw(st.integers(0, ring.m - 1))] = draw(bad)
        elif fault == "length":
            v = v + [0] if draw(st.booleans()) or not v else v[:-1]
        elif fault == "element":
            v = draw(bad)
        return v
    e = {"origin": draw(st.integers(-6, 6)), "coeffs": draw(st.lists(coeff, max_size=4))}
    if fault == "origin":
        e["origin"] = draw(bad)
    elif fault == "coeffs":
        e["coeffs"] = draw(st.sampled_from([None, 1.0, "12", True, {"0": 1}]))
    elif fault == "coefficient":
        e["coeffs"].insert(draw(st.integers(0, len(e["coeffs"]))), draw(bad))
    elif fault == "missing":
        del e[draw(st.sampled_from(["origin", "coeffs"]))]
    elif fault == "element":
        e = draw(st.sampled_from(BAD[:-1] + [[1, 2]]))
    elif fault == "cap":  # the lowest or the highest exponent one past the cap
        e["coeffs"].append(1)
        top = CAP - len(e["coeffs"]) + 2
        e["origin"] = draw(st.sampled_from([top, top + 1, -CAP - 1, -10**9]))
    return e


@pytest.mark.parametrize("ring, fault", CASES, ids=[f"{r}-{f}" for r, f in CASES])
@settings(max_examples=12)
@given(data=st.data())
def test_grid_reading_matches_the_element_reader(ring, fault, data):
    # an element fault sits at a drawn position, and a second one may follow it, so
    # that the error must name the first
    draw = data.draw
    least = {None: 0, "ragged": 2}.get(fault, 1)  # a ragged matrix needs two rows
    rows, cols = draw(st.integers(least, 3)), draw(st.integers(min(least, 1), 3))
    at = draw(st.integers(0, rows * cols - 1)) if fault in ELEMENT_FAULTS[ring.kind] else -1
    later = draw(st.sampled_from(ELEMENT_FAULTS[ring.kind])) if at >= 0 and draw(st.booleans()) else None
    obj = [[faulty_element(draw, ring, fault if i * cols + j == at else later if i * cols + j > at >= 0 else None)
            for j in range(cols)] for i in range(rows)]
    if fault == "ragged":
        obj[draw(st.integers(0, rows - 1))].append(faulty_element(draw, ring, None))
    want_rows = rows + 1 if fault == "rows" else draw(st.sampled_from([None, rows]))
    want_cols = cols + 1 if fault == "cols" else draw(st.sampled_from([None, cols]))
    got = read_outcome(sz.matrix_from_obj, ring, obj, want_rows, want_cols)
    assert got == read_outcome(frozen_matrix_from_obj, ring, obj, want_rows, want_cols)
    assert isinstance(got[0], type) == (fault is not None)


def laurent_cells(count, top, origin=-1000):
    """A 2 x 2 Laurent matrix object: count distinct exponents from origin on, and z^top."""
    zero = {"origin": 0, "coeffs": []}
    return [[{"origin": origin, "coeffs": [1] * count}, zero], [zero, {"origin": top, "coeffs": [1]}]]


@pytest.mark.parametrize("ring, obj", [
    # MAX_CYCLIC_WIDTH: 128 * 2 is read, 128 * 3 and 257 * 1 are not
    (rings.cyclic(128), [[[1] + [0] * 127, [0] * 128], [[0] * 128, [0, 1] + [0] * 126]]),
    (rings.cyclic(128), [[[0] * 128] * 3] * 3),
    (rings.cyclic(257), [[[1] * 257]]),
    # the first bad element named, though a later one is also bad
    (rings.cyclic(3), [[[1, 2, 3], [1, 2]], [[1, True, 0], [0, 0, 0]]]),
    (rings.cyclic(3), [[[1, 2, 3], [1, 2, 3.0]], [[1, None, 0], "abc"]]),
    (rings.cyclic(2), [[[0, 0], [[0], 0]], [[1, 1], [0, 0]]]),
    # ragged rows, before any element is read
    (rings.cyclic(3), [[[1, 2, 3]], [[1, 2, 3], [0, 0, True]]]),
    (rings.laurent(), [[{"origin": 0, "coeffs": [1]}, {"origin": 0, "coeffs": []}], [{"origin": None}]]),
    # the grid-cell cap at and beyond 4 * 2^16, the window cap at and beyond 4 * 2^17
    (rings.laurent(), laurent_cells(2 ** 16 - 1, 0)),
    (rings.laurent(), laurent_cells(2 ** 16 + 1, 0)),
    (rings.laurent(), laurent_cells(1, 2 ** 16 - 1, -2 ** 16)),
    (rings.laurent(), laurent_cells(1, 2 ** 16, -2 ** 16)),
    # MAX_LAURENT_EXPONENT at and beyond the cap, and an element at fault after one beyond it
    (rings.laurent(), laurent_cells(1, CAP, -CAP)),
    (rings.laurent(), laurent_cells(2, CAP, CAP - 1)),
    (rings.laurent(), [[{"origin": -CAP - 1, "coeffs": [1]}, {"origin": True, "coeffs": [1]}]]),
    (rings.laurent(), [[{"origin": CAP - 1, "coeffs": [1, 0, 0]}]]),
    (rings.laurent(), [[{"origin": 0, "coeffs": [0, 0]}, {"origin": 3, "coeffs": [0, 2, 0]}]]),
], ids=range(17))
def test_grid_reading_keeps_every_cap_and_message(ring, obj):
    got = read_outcome(sz.matrix_from_obj, ring, obj, None, None)
    assert got == read_outcome(frozen_matrix_from_obj, ring, obj, None, None)


def test_grid_reading_accepts_int_subclasses_as_the_element_reader_did():
    class Int(int):
        pass

    for ring, obj in [(rings.cyclic(2), [[[Int(1), 0], [0, Int(0)]]]),
                      (rings.laurent(), [[{"origin": Int(-1), "coeffs": [Int(2), 0]}]])]:
        assert read_outcome(sz.matrix_from_obj, ring, obj, None, None) == \
            read_outcome(frozen_matrix_from_obj, ring, obj, None, None)
