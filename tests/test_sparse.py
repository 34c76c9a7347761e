"""``hss_stab.sparse`` against scipy.sparse, byte for byte.

scipy is the oracle here only: every operation on the package's canonical
arrays must give the indptr, indices and data bytes that scipy gives on the
same operands (canonicalised: sorted, summed, without stored zeros).
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from hss_stab import analysis, pipeline, scenario_from_dict
from hss_stab import sparse
from hss_stab.sparse import Csr
from tests.conftest import dense_vectors, load_raw

values = st.one_of(
    st.just(0.0), st.floats(-5, 5, allow_nan=False, allow_infinity=False, allow_subnormal=False)
)


@st.composite
def triplets(draw, shape, dtype):
    """COO triplets on ``shape`` with explicit zeros and repeated positions;
    a position repeats at most once, as scipy sums three or more repeats in
    an order of its own."""
    cells = shape[0] * shape[1]
    if not cells:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0, dtype)
    pos = draw(st.lists(st.integers(0, cells - 1), max_size=2 * cells))
    pos = np.sort(np.array(pos, int))
    keep = np.ones(pos.size, bool)
    keep[2:] = pos[2:] != pos[:-2]
    pos = draw(st.permutations(pos[keep])) if pos.size else pos
    pos = np.asarray(pos, int)
    data = np.array([draw(values) for _ in pos], float)
    if dtype is complex:
        data = data + 1j * np.array([draw(values) for _ in pos], float)
    return pos // shape[1], pos % shape[1], data


@st.composite
def operands(draw, shape=None, dtype=None):
    """(package array, scipy array) of one random matrix, both canonical."""
    shape = shape or (draw(st.integers(0, 7)), draw(st.integers(0, 7)))
    dtype = dtype or draw(st.sampled_from([float, complex]))
    rows, cols, data = draw(triplets(shape, dtype))
    ref = sp.csr_array((data, (rows, cols)), shape=shape)
    ref.sum_duplicates()
    ref.eliminate_zeros()
    return sparse.from_coo(rows, cols, data, shape), ref


def to_scipy(a: Csr) -> sp.csr_array:
    return sp.csr_array((a.data, a.indices, a.indptr), shape=a.shape)


def canonical(ref):
    ref = sp.csr_array(ref).copy()
    ref.sum_duplicates()
    ref.eliminate_zeros()
    ref.sort_indices()
    return ref


def assert_same(got, ref):
    """``got`` holds ``ref``'s canonical arrays, the data byte for byte."""
    assert isinstance(got, Csr) and got.has_canonical_format
    ref = canonical(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert got.data.tobytes() == ref.data.tobytes()


def assert_same_dense(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


@st.composite
def chained(draw):
    """Two operands whose inner dimensions agree."""
    m, k, n = (draw(st.integers(0, 7)) for _ in range(3))
    return draw(operands((m, k))), draw(operands((k, n)))


@given(chained())
@settings(max_examples=300, deadline=None)
def test_product(pair):
    (a, sa), (b, sb) = pair
    assert_same(a @ b, sa @ sb)


@given(chained(), st.integers(1, 3), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_dense_products(pair, width, complex_x, data):
    (a, sa), _ = pair

    def dense(rows, cols):
        flat = np.array(data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)))
        flat = flat + 1j * flat[::-1] if complex_x else flat
        return flat.reshape(rows, cols)

    x = dense(a.shape[1], width)
    assert_same_dense(a @ x, sa @ x)
    assert_same_dense(a @ x[:, 0], sa @ x[:, 0])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sum_difference_negation(data):
    shape = (data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7)))
    (a, sa), (b, sb) = data.draw(operands(shape)), data.draw(operands(shape))
    assert_same(a + b, sa + sb)
    assert_same(a - b, sa - sb)
    assert_same(-a, -sa)


@given(operands(), st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_scaling_and_parts(pair, scalar):
    a, sa = pair
    for s in (scalar, scalar.real, 0.5, np.complex128(scalar)):
        assert_same(s * a, s * sa)
        assert_same(a * s, sa * s)
    assert_same(a.conj(), sa.conj())
    assert_same(a.real, sa.real)
    assert_same(a.imag, sa.imag)
    assert_same(a.astype(complex), sa.astype(complex))


@given(operands(), st.data())
@settings(max_examples=200, deadline=None)
def test_gathers(pair, data):
    a, sa = pair
    rows, cols = (
        np.array(data.draw(st.permutations(range(n))), int)[: data.draw(st.integers(0, n))]
        for n in a.shape
    )
    assert_same(a[rows], sa[rows])
    assert_same(a[:, cols], sa[:, cols])
    assert_same(a[rows, :][:, cols], sa[rows][:, cols])
    assert_same(a[1:], sa[1:])


@given(operands())
@settings(max_examples=200, deadline=None)
def test_dense_views_and_counts(pair):
    a, sa = pair
    assert_same_dense(a.toarray(), sa.toarray())
    assert_same(sparse.from_dense(sa.toarray()), sa)
    assert_same(sparse.csr(sa.toarray()), sa)
    assert sparse.csr(a) is a
    assert a.nnz == sa.nnz == a.count_nonzero() == sa.count_nonzero()
    assert a.dtype == sa.dtype
    row, col, data = a.triplets()
    coo = sa.tocoo()
    assert (row.tolist(), col.tolist()) == (coo.row.tolist(), coo.col.tolist())
    assert data.tobytes() == coo.data.tobytes()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_block_constructions(data):
    height = data.draw(st.integers(0, 5))
    parts = [data.draw(operands((height, data.draw(st.integers(0, 4))))) for _ in range(3)]
    expected = sp.hstack([s for _, s in parts], format="csr")
    assert_same(sparse.hstack([p for p, _ in parts]), expected)
    (upper, su), (lower, sl) = data.draw(operands()), data.draw(operands())
    zero = sp.csr_array
    expected = sp.block_array(
        [[zero((su.shape[0], sl.shape[1])), su], [sl, zero((sl.shape[0], su.shape[1]))]],
        format="csr",
    )
    assert_same(sparse.anti_diagonal(upper, lower), expected.astype(np.result_type(su, sl)))
    # kron(I, B) as a block diagonal: the blocks' values are copied, not multiplied by 1
    count = data.draw(st.integers(1, 4))
    assert_same(sparse.kron_eye(count, upper), sp.block_diag([su] * count, format="csr"))
    diagonal = np.array(data.draw(st.lists(values, min_size=1, max_size=6)))
    assert_same(sparse.diag(diagonal), sp.diags_array(diagonal, format="csr"))
    n = data.draw(st.integers(0, 6))
    assert_same(sparse.eye(n), sp.eye_array(n, format="csr"))
    assert_same(sparse.zeros((n, 3)), sp.csr_array((n, 3), dtype=complex))


@pytest.mark.parametrize(
    "data, indices, indptr, problem",
    [
        ([1.0, 2.0], [1, 0], [0, 2], "ascend"),  # unsorted within the row
        ([1.0, 2.0], [1, 1], [0, 2], "ascend"),  # a position stored twice
        ([1.0, 0.0], [0, 1], [0, 2], "zero"),
        ([1.0], [2], [0, 1], "outside"),
        ([1.0], [0], [0, 2], "indptr"),
        ([1.0], [0], [1, 1], "indptr"),
    ],
)
def test_construction_checks_the_canonical_format(data, indices, indptr, problem):
    with pytest.raises(ValueError, match=problem):
        Csr(np.array(data), np.array(indices), np.array(indptr), (1, 2))
    ok = Csr(np.array([1.0, 2.0]), np.array([0, 1]), np.array([0, 2]), (1, 2))
    assert ok.has_canonical_format and ok.indices.dtype == np.int32
    ok.data[0] = 0.0  # the values are plain arrays; the check reads them again
    assert not ok.has_canonical_format
    with pytest.raises(AttributeError):
        ok.data = np.array([1.0, 2.0])


def test_assembly_products_match_scipy_bit_for_bit(monkeypatch):
    """Every product the assembly of ``two_node`` at hmax 8 forms equals
    scipy's on the same operands, byte for byte."""
    seen = []

    def checked(kind, product, scipy_product):
        def wrapped(a, b):
            got = product(a, b)
            ref = scipy_product(to_scipy(a), b)
            if isinstance(got, Csr):
                assert_same(got, ref)
            else:
                assert_same_dense(got, ref)
            seen.append(kind)
            return got

        return wrapped

    products = checked("sparse", sparse._product, lambda a, b: a @ to_scipy(b))
    dense_products = checked("dense", sparse._dense_product, lambda a, b: a @ b)
    monkeypatch.setattr(sparse, "_product", products)
    monkeypatch.setattr(sparse, "_dense_product", dense_products)
    raw = load_raw("two_node")
    raw["system"]["hmax"] = 8
    pipeline.assemble(scenario_from_dict(raw))
    assert seen.count("sparse") > 50 and "dense" in seen  # 62 and 2 when written


def state_only_model(name, hmax):
    raw = load_raw(name)
    raw["system"]["hmax"] = hmax
    return pipeline.assemble(scenario_from_dict(raw), state_only=True).model


@pytest.mark.parametrize("name, hmax", [("two_node", 8), ("four_cider_six_node", 8)])
def test_sequence_form_is_scipys_product(name, hmax):
    # the tile-wise U^H M U against the two sparse products it replaces
    model = state_only_model(name, hmax)
    m = analysis._shifted_csr(model)
    s, u, form = analysis._sequence_form(model, m)
    assert form == "sequence"
    su, sm = to_scipy(u), to_scipy(m)
    ref = (su.conj().T @ sm @ su).tocsr()
    ref.data[np.abs(ref.data) <= analysis.REAL_FORM_TOL * np.max(np.abs(sm.data))] = 0.0
    assert_same(s, ref)


@pytest.mark.parametrize("phase_triples", [True, False])
def test_back_map_is_scipys_product(phase_triples, monkeypatch):
    # V = T Y, block by block with copies reusing their representative's
    # array, against one sparse product T Y normalised column by column
    model = state_only_model("two_node", 8)
    if not phase_triples:
        model = replace(model, phase_triples=())
    seen = []
    back_map = analysis._back_map
    monkeypatch.setattr(analysis, "_back_map", lambda t, y: seen.append((t, y)) or back_map(t, y))
    solution = analysis.eigen_decompose(model)
    (t, y), = seen
    if phase_triples:  # in sequence form, ladder copies share their representative's vectors
        assert len({id(vectors) for _, vectors in y}) < len(y)
        assert len(solution.arrays) < len(solution.supports) == len(y)
    sizes = [rows.size for rows, _ in y]
    ys = sp.csc_array(
        (
            np.concatenate([vectors.ravel(order="F") for _, vectors in y]).astype(complex),
            np.concatenate([np.tile(rows, rows.size) for rows, _ in y]),
            np.concatenate(([0], np.cumsum(np.repeat(sizes, sizes)))),
        ),
        shape=(t.shape[1], sum(sizes)),
    )
    ref = to_scipy(t).tocsc() @ ys
    ref.sort_indices()
    cols = np.repeat(np.arange(ref.shape[1]), np.diff(ref.indptr))
    squares = (ref.data.conj() * ref.data).real
    norms = np.sqrt(np.bincount(cols, weights=squares, minlength=ref.shape[1]))
    norms[norms == 0] = 1.0
    ref.data /= norms[cols]
    assert all(np.all(np.diff(rows) > 0) for rows in solution.supports)  # ascending rows
    # equal nonzero values are equal bits: the positions and bytes of V's entries are scipy's
    assert np.array_equal(dense_vectors(solution), ref.toarray())
