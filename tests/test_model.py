import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from hss_stab import (
    HarmonicIndexSet,
    HssModel,
    ShapeError,
    eigen_decompose,
    evaluate_htf,
    match_eigenvalues,
)
from hss_stab.model import block_diag_csr, component_labels, lift_ltp, stack_models
from hss_stab.sparse import Csr, from_coo
from tests.conftest import dense_vectors, lti_model, random_stable_lti


def test_lti_lift_ladder():
    rng = np.random.default_rng(0)
    a = random_stable_lti(rng, 4)
    iset = HarmonicIndexSet(2, 50.0)
    model = lti_model(a, iset)
    sol = eigen_decompose(model)
    base = np.linalg.eigvals(a)
    expected = np.concatenate([base - 1j * 2 * np.pi * 50.0 * h for h in iset.orders])
    perm, _ = match_eigenvalues(sol.eigenvalues, expected)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(sol.eigenvalues - expected[perm])) <= 1e-8 * scale


def test_state_labels_h_major():
    iset = HarmonicIndexSet(1, 50.0)
    model = lti_model(-np.eye(2), iset, state_names=("x", "y"))
    labels = model.state_labels()
    assert labels[0] == ("x", -1)
    assert labels[1] == ("y", -1)
    assert labels[2] == ("x", 0)
    assert labels[-1] == ("y", 1)


def test_stateless_model():
    # a pure feedthrough: no states, so no spectrum, and the HTF is F
    model = HssModel(
        HarmonicIndexSet(1, 50.0),
        np.zeros((0, 0)),
        {"w": np.zeros((0, 1))},
        np.zeros((1, 0)),
        {"w": np.ones((1, 1))},
        (),
    )
    sol = eigen_decompose(model)
    assert sol.eigenvalues.shape == (0,)
    assert dense_vectors(sol).shape == (0, 0)
    assert sol.labels == ()
    assert np.array_equal(evaluate_htf(model, 1.0 + 2.0j), np.ones((1, 1)))


def test_port_consistency_checked():
    iset = HarmonicIndexSet(0, 50.0)
    with pytest.raises(ShapeError):
        HssModel(
            index_set=iset,
            a=np.zeros((1, 1), complex),
            e={"w": np.zeros((1, 2), complex)},
            c=np.zeros((1, 1), complex),
            f={"w": np.zeros((1, 3), complex)},  # width mismatch with E
            state_names=("x",),
        )


def bare_model(channels, triples=()):
    n = channels
    return HssModel(
        HarmonicIndexSet(0, 50.0),
        np.zeros((n, n)),
        {},
        np.zeros((0, n)),
        {},
        tuple(f"x{i}" for i in range(n)),
        triples,
    )


def lifted_model(channels, triples=()):
    n = channels
    return lift_ltp(
        {0: np.zeros((n, n))},
        {},
        {0: np.zeros((0, n))},
        {},
        HarmonicIndexSet(0, 50.0),
        tuple(f"x{i}" for i in range(n)),
        triples,
    )


@pytest.mark.parametrize(
    "triples", [(-1,), (3,), (0, 2)], ids=["negative", "past-last-channel", "overlap"]
)
def test_phase_triples_validated(triples):
    with pytest.raises(ShapeError, match="phase triples"):
        bare_model(5, triples)


@pytest.mark.parametrize("build", [bare_model, lifted_model], ids=["HssModel", "lift_ltp"])
def test_stack_models_offsets_phase_triples(build):
    stacked = stack_models([build(4, (1,)), build(2), build(3, (0,))])
    assert stacked.phase_triples == (1, 6)
    assert build(6, (3, 0)).phase_triples == (0, 3)


def block_diag_blocks(rng):
    """Dense blocks with stored zeros, CSR blocks with explicit zeros, a COO
    block whose duplicate entries sum to zero, and blocks without rows,
    columns or both."""
    dense = rng.standard_normal((3, 4)) * (rng.random((3, 4)) < 0.5)
    complex_dense = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * [[1, 0], [0, 1]]
    csr = sp.csr_array(rng.standard_normal((4, 3)) * (rng.random((4, 3)) < 0.6))
    csr.data[::2] = 0.0  # stored, but zero
    duplicates = sp.coo_array(([1.5, -1.5, 2.0, 0.25], ([0, 0, 1, 1], [1, 1, 0, 0])), shape=(2, 2))
    return [
        dense, np.zeros((2, 0)), csr, np.zeros((0, 3)), complex_dense, np.zeros((0, 0)), csr,
        duplicates,
    ]


def as_program_block(mat):
    """A scipy block as the Csr the package takes, built from its COO
    triplets: duplicates summed, stored zeros dropped."""
    if not sp.issparse(mat):
        return mat
    coo = mat.tocoo()
    return from_coo(coo.row, coo.col, coo.data, mat.shape)


@pytest.mark.parametrize("mapped", ["none", "rows", "cols", "both"])
def test_block_diag_csr_matches_scipy(mapped):
    rng = np.random.default_rng(5)
    mats = block_diag_blocks(rng)
    blocks = [as_program_block(m) for m in mats]
    before = [(m.data if isinstance(m, Csr) else m).copy() for m in blocks]
    expected = sp.csr_array(sp.block_diag(mats, format="csr"), dtype=complex)
    expected.eliminate_zeros()
    rows = rng.permutation(expected.shape[0]) if mapped in ("rows", "both") else None
    cols = rng.permutation(expected.shape[1]) if mapped in ("cols", "both") else None
    if rows is not None:
        expected = expected[np.argsort(rows)]  # row r of the block diagonal moves to rows[r]
    if cols is not None:
        expected = expected[:, np.argsort(cols)]
    expected.sort_indices()

    got = block_diag_csr(blocks, rows, cols)
    assert isinstance(got, Csr) and got.dtype == complex
    assert got.shape == expected.shape == (17, 17)
    assert got.has_canonical_format
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data.view(float), expected.data.view(float))  # bit for bit
    assert np.all(got.data != 0)
    for mat, stored in zip(blocks, before):  # the blocks are only read
        assert np.array_equal(mat.data if isinstance(mat, Csr) else mat, stored)


@st.composite
def edge_lists(draw):
    """``(n, rows, cols)``: up to 3n edges over n vertices, drawn with
    replacement, so self-loops, repeated edges and isolated vertices occur."""
    n = draw(st.integers(0, 30))
    vertex = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    rows, cols = np.array(edges, int).reshape(-1, 2).T
    return n, rows, cols


@given(edge_lists())
@example((0, np.zeros(0, int), np.zeros(0, int)))
@example((1, np.zeros(0, int), np.zeros(0, int)))
@example((1, np.zeros(1, int), np.zeros(1, int)))
@example((6, np.zeros(0, int), np.zeros(0, int)))
@example((6, np.arange(5, 0, -1), np.arange(4, -1, -1)))  # a path, joined from its far end
@example((7, np.array([6, 6, 3, 5, 1]), np.array([1, 2, 4, 0, 5])))
@settings(max_examples=300, deadline=None)
def test_component_labels_match_csgraph(graph):
    # the same label array, not only the same partition: rows are ordered
    # and ladder classes keyed by it
    n, rows, cols = graph
    adjacency = sp.coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    expected = connected_components(adjacency, directed=True, connection="weak")[1]
    got = component_labels(n, rows, cols)
    assert got.shape == (n,)
    assert np.array_equal(got, expected)
    assert np.array_equal(got, connected_components(adjacency, directed=False)[1])
