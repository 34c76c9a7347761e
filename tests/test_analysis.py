import itertools
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from hss_stab import (
    ConfigurationError,
    HarmonicIndexSet,
    PoleProximityError,
    classify_eigenvalues,
    detect_spurious,
    eigen_decompose,
    eigenvalues_only,
    evaluate_htf,
    fold_to_strip,
    match_eigenvalues,
    stability_verdict,
    sweep_parameter,
)
from hss_stab import analysis
from hss_stab.analysis import RESIDUAL_TOL, _labels_from_evidence
from hss_stab.errors import NumericalError
from hss_stab.harmonic import omega_diagonal
from hss_stab.model import HssModel, lift_ltp
from hss_stab.pipeline import assemble
from tests.conftest import load_raw, lti_model, shifted_dense
from hss_stab import scenario_from_dict


def scalar_lift(a_val, iset, e=1.0, c=1.0, f=0.0):
    return lti_model([[a_val]], iset, e, c, f)


class TestEigenDecompose:
    def test_scalar_ladder(self):
        iset = HarmonicIndexSet(1, 50.0)
        sol = eigen_decompose(scalar_lift(-1.0, iset))
        w1 = 2 * np.pi * 50.0
        expected = np.array([-1.0 + 1j * w1, -1.0, -1.0 - 1j * w1])
        perm, _ = match_eigenvalues(sol.eigenvalues, expected)
        assert np.max(np.abs(sol.eigenvalues - expected[perm])) < 1e-10 * w1

    def test_pure_shift_spectrum(self):
        iset = HarmonicIndexSet(1, 50.0)
        sol = eigen_decompose(scalar_lift(0.0, iset))
        w1 = 2 * np.pi * 50.0
        expected = np.array([0.0, 1j * w1, -1j * w1])
        perm, _ = match_eigenvalues(sol.eigenvalues, expected)
        assert np.max(np.abs(sol.eigenvalues - expected[perm])) < 1e-12 * w1

    def test_rlc_closed_form(self, rlc_grid):
        lam = eigenvalues_only(assemble(rlc_grid).model).eigenvalues
        r, l, c = 0.1, 1e-3, 1e-5
        root = -r / (2 * l) + 1j * np.sqrt(1 / (l * c) - (r / (2 * l)) ** 2)
        expected = np.array([root, np.conj(root)] * 3)
        perm, _ = match_eigenvalues(lam, expected)
        assert np.max(np.abs(lam - expected[perm])) <= 1e-8 * abs(root)

    def test_vectors_normalized_and_consistent(self):
        iset = HarmonicIndexSet(2, 50.0)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        model = lti_model(a, iset)
        sol = eigen_decompose(model)
        v = sol.vectors.toarray()
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0)
        m = shifted_dense(model)
        residual = np.linalg.norm(m @ v - v * sol.eigenvalues, axis=0)
        assert residual.max() <= 1e-8
        assert len(sol.labels) == model.state_dim

    def test_energy_by_matches_dense_group_sums(self):
        model = nominal_model("two_node", 8)
        sol = eigen_decompose(model)
        energy = np.abs(sol.vectors.toarray()) ** 2
        rows = np.arange(model.state_dim)
        channels = model.state_channels
        for group, groups in [
            (rows // channels, model.index_set.count),
            (rows % channels, channels),
            (np.random.default_rng(9).integers(0, 3, rows.size), 3),
        ]:
            dense = np.stack([energy[group == k].sum(axis=0) for k in range(groups)])
            np.testing.assert_allclose(sol.energy_by(group, groups), dense, rtol=1e-12, atol=0.0)

    def test_vectors_store_no_dense_array(self):
        # the vectors hold only each block's support: the peak allocation of
        # the whole decomposition stays below a quarter of one n x n array
        model = nominal_model("four_cider_six_node", 12)
        n = model.state_dim
        assert n == 1325
        tracemalloc.start()
        try:
            eigen_decompose(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16 / 4


def nominal_model(name, hmax=None):
    """State-only closed-loop model of a bundled scenario, optionally regridded."""
    scenario = scenario_from_dict(load_raw(name))
    if hmax is not None:
        scenario = scenario.with_hmax(hmax)
    return assemble(scenario, state_only=True).model


def spy_solvers(monkeypatch):
    """Record (dtype, order) of every matrix passed to scipy.linalg.eig/eigvals."""
    calls = {"eig": [], "eigvals": []}
    for name, seen in calls.items():

        def wrapped(a, *args, solver=getattr(scipy.linalg, name), seen=seen, **kwargs):
            seen.append((a.dtype, a.shape[0]))
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, wrapped)
    return calls


def assert_spectrum_matches(lam, reference):
    perm, _ = match_eigenvalues(lam, reference)
    assert np.max(np.abs(lam - reference[perm])) <= 1e-12 * np.max(np.abs(reference))


def assert_valid_vectors(sol, m):
    v = sol.vectors.toarray()
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0, rtol=0.0, atol=1e-12)
    residual = np.linalg.norm(m @ v - v * sol.eigenvalues, axis=0)
    assert residual.max() <= RESIDUAL_TOL


REAL = np.dtype(np.float64)
COMPLEX = np.dtype(np.complex128)


class TestRealFormSolve:
    """The block solve checked against the dense complex solver: in real
    form for models without phase triples, in sequence form (one complex
    call per rotating-frame rung) for the converter scenarios."""

    @pytest.mark.parametrize(
        "name, hmax, dtype, sizes",
        [
            pytest.param("toy_gain", None, REAL, [1, 1, 1], id="toy_gain-None"),
            # three sequence blocks of 2 gain nothing over the real form
            pytest.param("rlc_grid", None, REAL, [2, 2, 2], id="rlc_grid-None"),
            pytest.param(
                "two_node",
                None,
                COMPLEX,
                [5, 5, 14, 9] + [5, 14] * 8 + [5, 9, 5, 5],
                id="two_node-None",
            ),
            pytest.param(
                "four_cider_six_node",
                8,
                COMPLEX,
                [15, 15, 38, 23] + [15, 38] * 14 + [15, 23, 15, 15],
                id="four_cider_six_node-8",
            ),
        ],
    )
    def test_matches_complex_solver(self, name, hmax, dtype, sizes, monkeypatch):
        model = nominal_model(name, hmax)
        m = shifted_dense(model)
        reference = scipy.linalg.eigvals(m)

        calls = spy_solvers(monkeypatch)
        lam = eigenvalues_only(model).eigenvalues
        sol = eigen_decompose(model)
        # one LAPACK call per decoupled block
        for seen in calls.values():
            assert seen == [(dtype, size) for size in sizes]

        for got in (lam, sol.eigenvalues):
            assert_spectrum_matches(got, reference)
        assert_valid_vectors(sol, m)

    def test_complex_trajectory_keeps_complex_solve(self, monkeypatch):
        iset = HarmonicIndexSet(2, 50.0)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        model = lti_model(a, iset)
        m = shifted_dense(model)
        # an LTI lift decouples per harmonic: the complex solver on each block
        blocks = [m[k : k + 3, k : k + 3] for k in range(0, 15, 3)]
        pairs = [scipy.linalg.eig(b) for b in blocks]
        expected_w = np.concatenate([w for w, _ in pairs])
        expected_v = scipy.linalg.block_diag(*(v / np.linalg.norm(v, axis=0) for _, v in pairs))

        calls = spy_solvers(monkeypatch)
        lam = eigenvalues_only(model).eigenvalues
        sol = eigen_decompose(model)
        for seen in calls.values():
            assert seen == [(np.dtype(np.complex128), 3)] * 5
        assert np.array_equal(lam, expected_w)
        assert np.array_equal(sol.eigenvalues, expected_w)
        assert np.array_equal(sol.vectors.toarray(), expected_v)
        for got in (lam, sol.eigenvalues):
            assert_spectrum_matches(got, scipy.linalg.eigvals(m))
        assert_valid_vectors(sol, m)


class TestBlockSolve:
    """The spectrum solved one decoupled block at a time."""

    def test_fully_coupled_matrix_takes_one_solve(self, monkeypatch):
        # every channel couples to every other at harmonics h and h +- 1
        iset = HarmonicIndexSet(3, 50.0)
        rng = np.random.default_rng(2)
        a1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        series = {0: rng.standard_normal((3, 3)), 1: a1, -1: np.conj(a1)}
        model = lift_ltp(series, {}, {0: np.zeros((0, 3))}, {}, iset, ("x", "y", "z"))
        m = shifted_dense(model)
        # the real form T^H M T as it was built densely before the block split
        p = np.arange(21).reshape(7, 3)[::-1].ravel()
        mpp = m[np.ix_(p, p)]
        real = 0.5 * (m.real + mpp.real - m.imag[:, p] + m.imag[p, :])

        calls = spy_solvers(monkeypatch)
        lam = eigenvalues_only(model).eigenvalues
        sol = eigen_decompose(model)
        for seen in calls.values():
            assert seen == [(np.dtype(np.float64), 21)]
        assert np.array_equal(lam, scipy.linalg.eigvals(real))
        assert np.array_equal(sol.eigenvalues, scipy.linalg.eig(real)[0])
        assert_spectrum_matches(lam, scipy.linalg.eigvals(m))
        assert_valid_vectors(sol, m)

    def test_one_way_coupling_stays_in_one_block(self, monkeypatch):
        # x drives y but not back: the pattern is connected only weakly, and
        # splitting it further would leave block-triangular coupling behind
        iset = HarmonicIndexSet(1, 50.0)
        a = np.array([[-1.0, 0.0], [3.0, -2.0]])
        model = lti_model(a, iset)
        m = shifted_dense(model)

        calls = spy_solvers(monkeypatch)
        sol = eigen_decompose(model)
        # the flip joins h = -1 and h = +1 in the real form
        assert calls["eig"] == [(np.dtype(np.float64), 4), (np.dtype(np.float64), 2)]
        assert_spectrum_matches(sol.eigenvalues, scipy.linalg.eigvals(m))
        assert_valid_vectors(sol, m)

    def test_block_not_mapped_onto_itself_by_flip(self, monkeypatch):
        # M = T a T^H with a real and block-diagonal per harmonic order: the
        # flip swaps the blocks at h = -1 and h = +1, which M couples.  M is
        # written out as (a + PaP)/2 + j(Pa - aP)/2 so that entries which
        # vanish structurally are exact zeros, not rounding residue.
        iset = HarmonicIndexSet(1, 50.0)
        rng = np.random.default_rng(3)
        blocks = [rng.standard_normal((2, 2)) for _ in range(3)]
        a = scipy.linalg.block_diag(*blocks)
        p = np.arange(6).reshape(3, 2)[::-1].ravel()
        m = 0.5 * (a + a[np.ix_(p, p)]) + 0.5j * (a[p, :] - a[:, p])
        omega = 1j * omega_diagonal(iset, 2)
        model = HssModel(iset, m + np.diag(omega), {}, np.zeros((0, 6)), {}, ("x", "y"))

        calls = spy_solvers(monkeypatch)
        sol = eigen_decompose(model)
        assert calls["eig"] == [(np.dtype(np.float64), 2)] * 3
        assert_spectrum_matches(
            sol.eigenvalues, np.concatenate([np.linalg.eigvals(b) for b in blocks])
        )
        assert_valid_vectors(sol, shifted_dense(model))

    @pytest.mark.parametrize("form", ["sequence", "parity"])
    def test_corrupted_back_map_fails_residual(self, form, monkeypatch):
        model = nominal_model("two_node")
        if form == "parity":
            model = replace(model, phase_triples=())
        calls = spy_solvers(monkeypatch)
        monkeypatch.setattr(analysis, "_back_map", misplaced(analysis._back_map))
        with pytest.raises(NumericalError, match="residual"):
            eigen_decompose(model)
        assert calls["eig"][0][0] == (COMPLEX if form == "sequence" else REAL)

    def test_residual_failure_stays_sparse(self, monkeypatch):
        # the message reports the failing block's condition: M is never densified
        model = nominal_model("four_cider_six_node", 12)
        n = model.state_dim
        monkeypatch.setattr(analysis, "_back_map", misplaced(analysis._back_map))
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match=r"residual .* \(block \d+ of \d+ states"):
                eigen_decompose(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16 / 4

    @pytest.mark.parametrize("form", ["sequence", "parity"])
    def test_back_map_matches_dense_product(self, form):
        model = nominal_model("two_node")
        if form == "parity":
            model = replace(model, phase_triples=())
        a, t, name, blocks = analysis._similarity(model, analysis._shifted_csr(model))
        assert name == form
        # every block's eigenvectors, on the block's rows: a dense block_diag(Y)
        y = np.zeros(a.shape, complex)
        y[np.concatenate(blocks)] = scipy.linalg.block_diag(
            *(scipy.linalg.eig(a[rows][:, rows].toarray())[1] for rows in blocks)
        )
        expected = t.toarray() @ y
        expected /= np.linalg.norm(expected, axis=0)
        v = analysis._back_map(t.tocsc(), sp.csc_array(y))
        assert v.has_sorted_indices
        np.testing.assert_allclose(v.toarray(), expected, rtol=0.0, atol=1e-14)

    def test_residual_reads_every_nonzero_row(self):
        m, w, v, _ = analysis._solve_spectrum(nominal_model("two_node"), vectors=True)
        rng = np.random.default_rng(7)
        v = v.copy()
        v.data *= 1.0 + 1e-3 * rng.standard_normal(v.data.shape)  # the same stored entries
        dense = v.toarray()
        dense = np.linalg.norm(m.toarray() @ dense - dense * w, axis=0)
        worst, col = analysis._worst_residual(m, w, v)
        assert worst == pytest.approx(dense.max(), rel=1e-12)
        assert col == np.argmax(dense)

    def test_four_cider_splits_by_harmonic_parity(self):
        model = nominal_model("four_cider_six_node", 8)
        blocks = analysis._decoupled_blocks(analysis._shifted_csr(model))
        assert [b.size for b in blocks] == [469, 432]
        # each state channel sits at even harmonics in one block, odd in the other
        label = np.empty(model.state_dim, int)
        for k, rows in enumerate(blocks):
            label[rows] = k
        label = label.reshape(model.index_set.count, model.state_channels)
        even = model.index_set.orders % 2 == 0
        assert np.all(label[even] == label[even][0])
        assert np.all(label[~even] == 1 - label[even][0])


def distorted_four_cider(hmax=12):
    """``four_cider_six_node`` with a 5 %, 5th-harmonic, negative-sequence
    distortion of the operating voltage at n2."""
    raw = load_raw("four_cider_six_node")
    raw["system"]["hmax"] = hmax
    harmonics = raw["ciders"][1]["operating_point"]["w_pi"]["harmonics"]
    v1 = complex(*harmonics["1"][0])
    negative = 0.05 * v1 * np.exp(2j * np.pi / 3 * np.arange(3))  # a, then c leads b
    harmonics["5"] = [[x.real, x.imag] for x in negative]
    harmonics["-5"] = [[x.real, -x.imag] for x in negative]
    return scenario_from_dict(raw)


def unequal_branch_two_node(hmax=8):
    """``two_node`` whose branch resistance differs between phases."""
    raw = load_raw("two_node")
    raw["system"]["hmax"] = hmax
    raw["grid"]["branches"][0]["r"] = [[0.1, 0.0, 0.0], [0.0, 0.15, 0.0], [0.0, 0.0, 0.1]]
    raw.pop("sweeps")  # their paths address the scalar r
    raw["analysis"] = {}
    return scenario_from_dict(raw)


def misplaced(back_map):
    """``back_map`` with every stored entry moved to the row of the entry before it."""

    def shifted(t, y):
        v = back_map(t, y)
        return sp.csc_array((v.data, np.roll(v.indices, 1), v.indptr), shape=v.shape)

    return shifted


def sequence_blocks(model):
    return analysis._decoupled_blocks(analysis._sequence_form(model, analysis._shifted_csr(model))[0])


class TestSequenceSolve:
    """The spectrum solved one symmetrical-component rung at a time."""

    def test_models_declare_phase_triples(self):
        model = nominal_model("two_node")
        # n1: lc currents and voltages, pi; n2: lf currents, pi; grid: branch, shunt
        assert model.phase_triples == (0, 3, 8, 13, 16)
        for t in model.phase_triples:
            names = [name for name, _ in model.state_labels()[t : t + 3]]
            assert [n[-1] for n in names] == ["a", "b", "c"]

    @pytest.mark.parametrize(
        "name, hmax, count, largest",
        [("four_cider_six_node", 25, 104, 38), ("two_node", 8, 36, 14)],
    )
    def test_rung_split(self, name, hmax, count, largest):
        model = nominal_model(name, hmax)
        blocks = sequence_blocks(model)
        assert len(blocks) == count
        assert max(b.size for b in blocks) == largest
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(model.state_dim))

    @pytest.mark.parametrize(
        "build, dtype, count, largest",
        [
            # the 5th harmonic couples rungs 6 apart: still far below 1325
            pytest.param(distorted_four_cider, COMPLEX, 33, 160, id="w_pi-5th-negative"),
            # unbalance couples every rung of one parity: the real form is kept
            pytest.param(unequal_branch_two_node, REAL, 2, 167, id="unequal-phase-r"),
        ],
    )
    def test_coupled_model_matches_dense(self, build, dtype, count, largest, monkeypatch):
        model = assemble(build(), state_only=True).model
        m = shifted_dense(model)
        reference = scipy.linalg.eigvals(m)

        calls = spy_solvers(monkeypatch)
        lam = eigenvalues_only(model).eigenvalues
        sol = eigen_decompose(model)
        for seen in calls.values():
            assert len(seen) == count
            assert max(size for _, size in seen) == largest
            assert {d for d, _ in seen} == {dtype}
        for got in (lam, sol.eigenvalues):
            assert_spectrum_matches(got, reference)
        assert_valid_vectors(sol, m)

    def test_unbalanced_triple_stays_exact(self, monkeypatch):
        # a random LTI triple is no balanced three-phase system, yet the
        # unitary similarity keeps the spectrum exact
        iset = HarmonicIndexSet(3, 50.0)
        rng = np.random.default_rng(4)
        model = lti_model(rng.standard_normal((4, 4)), iset)
        model = replace(model, phase_triples=(1,))
        m = shifted_dense(model)

        calls = spy_solvers(monkeypatch)
        sol = eigen_decompose(model)
        assert calls["eig"] == [(COMPLEX, 4)] * iset.count
        assert_spectrum_matches(sol.eigenvalues, scipy.linalg.eigvals(m))
        assert_valid_vectors(sol, m)

    def test_undeclared_triples_keep_real_form(self, monkeypatch):
        model = replace(nominal_model("two_node"), phase_triples=())
        calls = spy_solvers(monkeypatch)
        eigen_decompose(model)
        assert calls["eig"] == [(REAL, 110), (REAL, 99)]

    @pytest.mark.parametrize(
        "build, built",
        [
            pytest.param(lambda: nominal_model("two_node", 8), False, id="two_node-8"),
            pytest.param(lambda: nominal_model("four_cider_six_node", 8), False, id="four_cider-8"),
            pytest.param(
                lambda: assemble(unequal_branch_two_node(), state_only=True).model,
                True,
                id="unequal-phase-r",
            ),
            pytest.param(
                lambda: replace(nominal_model("two_node"), phase_triples=()), True, id="no-triples"
            ),
        ],
    )
    def test_parity_form_built_only_when_needed(self, build, built, monkeypatch):
        model = build()
        calls = []
        parity_form = analysis._parity_form
        monkeypatch.setattr(
            analysis, "_parity_form", lambda *args: calls.append(1) or parity_form(*args)
        )
        eigenvalues_only(model)
        assert calls == ([1] if built else [])

    def test_matches_parity_solve(self):
        model = nominal_model("four_cider_six_node", 8)
        lam = eigenvalues_only(model).eigenvalues
        assert_spectrum_matches(lam, eigenvalues_only(replace(model, phase_triples=())).eigenvalues)


class TestSpectralOrder:
    def test_ladder_copies_sort_by_im(self):
        w1 = 2 * np.pi * 50.0
        rng = np.random.default_rng(5)
        lam = -3.0 + 1e-15 * rng.standard_normal(9) + 1j * w1 * rng.permutation(9)
        order = analysis.spectral_order(lam)
        assert np.array_equal(lam[order].imag, np.sort(lam.imag))

    @pytest.mark.parametrize("descending", [False, True])
    def test_rounding_perturbation_keeps_order(self, descending):
        lam = eigenvalues_only(nominal_model("two_node", 8)).eigenvalues
        rng = np.random.default_rng(6)
        noise = 1e-15 * np.max(np.abs(lam.real)) * rng.standard_normal(lam.size)
        order = analysis.spectral_order(lam, descending)
        assert np.array_equal(analysis.spectral_order(lam + noise, descending), order)
        re = lam[order].real
        tol = analysis.VERDICT_RTOL * np.max(np.abs(re))
        assert np.all((np.diff(re) <= tol) if descending else (np.diff(re) >= -tol))


class TestHtf:
    def test_scalar_dc(self):
        iset = HarmonicIndexSet(0, 50.0)
        g = evaluate_htf(scalar_lift(-1.0, iset), 0.0)
        assert np.allclose(g, [[1.0]])

    def test_per_harmonic_resolvent(self):
        iset = HarmonicIndexSet(1, 50.0)
        g = evaluate_htf(scalar_lift(-1.0, iset), 0.0)
        w1 = 2 * np.pi * 50.0
        expected = np.diag([1.0 / (1j * -w1 + 1), 1.0, 1.0 / (1j * w1 + 1)])
        assert np.max(np.abs(g - expected)) < 1e-12

    def test_pure_feedthrough(self):
        iset = HarmonicIndexSet(1, 50.0)
        model = scalar_lift(-1.0, iset, e=0.0, f=5.0)
        for s in (0.0, 1.0 + 2j, -3.0):
            assert np.allclose(evaluate_htf(model, s), 5.0 * np.eye(3))

    @pytest.mark.parametrize("name", ["two_node", "four_cider_six_node"])
    def test_csr_and_dense_models_agree_bitwise(self, name):
        # the closed loop as the assembly returns it, in CSR, and its dense copy
        csr = assemble(scenario_from_dict(load_raw(name)).with_hmax(4)).model
        assert sp.issparse(csr.a)
        assert set(csr.ports) == {"sigma", "o"}
        for s in (1 + 6j, 10 + 100j, -30 + 100j):
            assert np.array_equal(evaluate_htf(csr, s), evaluate_htf(csr.dense(), s))

    def test_pole_proximity_error(self):
        iset = HarmonicIndexSet(1, 50.0)
        model = scalar_lift(-1.0, iset)
        with pytest.raises(PoleProximityError) as err:
            evaluate_htf(model, -1.0 + 2j * np.pi * 50.0)
        assert err.value.nearest_pole is not None
        assert abs(err.value.nearest_pole - (-1.0 + 2j * np.pi * 50.0)) < 1e-6


class TestMatch:
    def test_small_example(self):
        perm, cost = match_eigenvalues(np.array([1.0, 2.0]), np.array([2.1, 0.9]))
        assert perm[0] == 1 and perm[1] == 0
        assert abs(cost - 0.2) < 1e-12

    def test_identity_on_equal_sets(self):
        lam = np.array([1.0 + 1j, -2.0, 3.0 - 0.5j])
        perm, cost = match_eigenvalues(lam, lam)
        assert np.array_equal(lam[perm], lam)
        assert cost == 0.0

    @given(st.integers(0, 10_000), st.integers(2, 7))
    @settings(max_examples=60, deadline=None)
    def test_optimal_vs_brute_force(self, seed, n):
        rng = np.random.default_rng(seed)
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        other = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _, cost = match_eigenvalues(lam, other)
        best = min(
            sum(abs(lam[i] - other[p[i]]) for i in range(n))
            for p in itertools.permutations(range(n))
        )
        assert abs(cost - best) <= 1e-12 * max(1.0, best)

    def test_size_mismatch_rejected(self):
        from hss_stab import ShapeError

        with pytest.raises(ShapeError):
            match_eigenvalues(np.zeros(2, complex), np.zeros(3, complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_rejected(self, bad, side):
        sets = [np.array([1.0, 2.0 + 1j, 3.0]), np.array([1.1, 2.0, 3.0 - 1j])]
        sets[side][1] = bad
        with pytest.raises(NumericalError, match="not finite"):
            match_eigenvalues(*sets)


def cost_matrices():
    """Square cost matrices: random, from a few values (exact ties), with
    some all-zero rows, of order 0 to 8."""
    def build(args):
        n, values, zero_rows = args
        cost = np.array(values[: n * n], float).reshape(n, n)
        cost[[r for r in zero_rows if r < n]] = 0.0
        return cost

    values = st.one_of(
        st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, 1.0, 2.0]),
    )
    return st.tuples(
        st.integers(0, 8),
        st.lists(values, min_size=64, max_size=64),
        st.lists(st.integers(0, 7), max_size=3),
    ).map(build)


class TestAssign:
    @given(cost_matrices())
    @settings(max_examples=300, deadline=None)
    def test_optimal_vs_scipy(self, cost):
        from scipy.optimize import linear_sum_assignment

        n = cost.shape[0]
        cols = analysis._assign(cost)
        assert sorted(cols.tolist()) == list(range(n))
        rows, ref = linear_sum_assignment(cost)
        best = cost[rows, ref].sum()
        assert abs(cost[np.arange(n), cols].sum() - best) <= 1e-12 * max(1.0, best)

    @pytest.mark.parametrize(
        "cost, cols",
        [
            (np.zeros((0, 0)), []),
            (np.array([[4.0]]), [0]),
            (np.zeros((3, 3)), [0, 1, 2]),
            (np.array([[1.0, 2.0], [1.0, 3.0]]), [1, 0]),
        ],
    )
    def test_small_cases(self, cost, cols):
        assert analysis._assign(cost).tolist() == cols


class TestBlockMatch:
    @pytest.fixture(scope="class")
    def spectra(self):
        scenario = scenario_from_dict(load_raw("two_node")).with_hmax(8)
        nominal = analysis.by_real_part(
            eigen_decompose(assemble(scenario, state_only=True).model)
        )
        path = "ciders.0.control.gains.kp"
        perturbed = scenario.with_parameter(path, 1.1 * scenario.resolve_parameter(path))
        return nominal, eigenvalues_only(assemble(perturbed, state_only=True).model)

    def test_pairs_stay_in_their_block(self, spectra):
        nominal, other = spectra
        assert nominal.partition == other.partition
        assert len(nominal.partition.rows) > 1
        perm, _ = match_eigenvalues(nominal, other)
        assert sorted(perm.tolist()) == list(range(nominal.eigenvalues.size))
        assert np.array_equal(nominal.block, other.block[perm])

    def test_block_match_is_optimal_per_block(self, spectra):
        nominal, other = spectra
        perm, total = match_eigenvalues(nominal, other)
        for k in range(len(nominal.partition.rows)):
            rows = np.flatnonzero(nominal.block == k)
            _, cost = match_eigenvalues(
                nominal.eigenvalues[rows], other.eigenvalues[other.block == k]
            )
            assert np.abs(nominal.eigenvalues[rows] - other.eigenvalues[perm[rows]]).sum() == (
                pytest.approx(cost, rel=1e-12)
            )
        assert total == pytest.approx(
            np.abs(nominal.eigenvalues - other.eigenvalues[perm]).sum(), rel=1e-12
        )

    @pytest.mark.parametrize("change", ["form", "rows"])
    def test_unequal_partitions_match_globally(self, spectra, change, monkeypatch):
        nominal, other = spectra
        partition = other.partition
        if change == "form":
            partition = replace(partition, form="parity")
        else:
            partition = replace(partition, rows=partition.rows[::-1])
        other = replace(other, partition=partition)
        assert nominal.partition != other.partition
        sizes = []
        assign = analysis._assign
        monkeypatch.setattr(analysis, "_assign", lambda c: sizes.append(c.shape[0]) or assign(c))
        perm, total = match_eigenvalues(nominal, other)
        assert sizes == [nominal.eigenvalues.size]
        expected = match_eigenvalues(nominal.eigenvalues, other.eigenvalues)
        assert np.array_equal(perm, expected[0]) and total == expected[1]

    def test_partition_equality(self, spectra):
        partition = spectra[0].partition
        rows = tuple(r.copy() for r in partition.rows)
        assert partition == analysis.Partition(partition.form, rows)
        shifted = (rows[0][:-1], np.append(rows[1], rows[0][-1]), *rows[2:])
        assert partition != analysis.Partition(partition.form, shifted)
        assert partition != analysis.Partition(partition.form, rows[:-1])


class TestFold:
    def test_exact_multiple(self):
        folded = fold_to_strip(np.array([-1.0 + 1j * 2 * np.pi * 50 * 3]), 50.0)
        assert abs(folded[0] - (-1.0)) < 1e-12

    def test_boundary_inclusive(self):
        lam = -1.0 + 1j * np.pi * 50.0
        assert fold_to_strip(np.array([lam]), 50.0)[0] == lam

    def test_ladder_multiplicity(self):
        iset = HarmonicIndexSet(3, 50.0)
        lam = eigenvalues_only(scalar_lift(-2.0, iset)).eigenvalues
        folded = fold_to_strip(lam, 50.0)
        assert folded.shape == (7,)
        assert np.max(np.abs(folded - (-2.0))) < 1e-9

    def test_interior_ladder_consistency(self):
        # every interior eigenvalue of the exact embedding has a partner one
        # fundamental shift away
        iset = HarmonicIndexSet(4, 50.0)
        lam = eigenvalues_only(scalar_lift(-3.0, iset)).eigenvalues
        w1 = 2 * np.pi * 50.0
        interior = lam[np.abs(lam.imag) < w1 * (4 - 2)]
        for x in interior:
            assert np.min(np.abs(lam - (x + 1j * w1))) < 1e-9


class TestVerdict:
    def test_strict_margin(self):
        lam = np.array([-1.0, 1e-3 + 5j])
        assert not stability_verdict(lam).stable
        assert stability_verdict(lam, margin=1e-2).stable

    def test_spurious_excluded(self):
        lam = np.array([-1.0, 0.5 + 1j])
        mask = np.array([False, True])
        v = stability_verdict(lam, spurious=mask)
        assert v.stable and v.n_unstable == 0

    def test_invariant_under_folding(self):
        rng = np.random.default_rng(6)
        lam = rng.standard_normal(20) * 1e-3 + 1j * rng.uniform(-2000, 2000, 20)
        folded = fold_to_strip(lam, 50.0)
        assert stability_verdict(lam).stable == stability_verdict(folded).stable

    @pytest.mark.parametrize("hmax", [5, 8])
    def test_rim_rounding_noise_reads_stable(self, two_node, hmax):
        # the rightmost eigenvalues are rim modes at Re ~ +1e-13, rounding
        # noise on a spectrum whose physical modes sit near -18
        model = assemble(two_node.with_hmax(hmax), state_only=True).model
        lam = eigenvalues_only(model).eigenvalues
        verdict = stability_verdict(lam, margin=0.0)
        assert verdict.stable and verdict.n_unstable == 0

    def test_small_positive_mode_still_unstable(self):
        verdict = stability_verdict(np.array([-1e3, 1e-3]), margin=0.0)
        assert not verdict.stable and verdict.n_unstable == 1


class TestSweep:
    def test_requires_two_values(self, rlc_grid):
        with pytest.raises(ConfigurationError):
            sweep_parameter(rlc_grid, "grid.branches.0.r", [0.1])

    def test_inert_parameter_constant_traces(self, rlc_grid):
        trace = sweep_parameter(
            rlc_grid, "analysis.stability_margin", [1e-6, 2e-6, 3e-6]
        )
        assert np.array_equal(trace.traces[:, 0], trace.traces[:, 1])
        assert np.array_equal(trace.traces[:, 0], trace.traces[:, 2])
        assert not trace.unresolved.any()

    def test_toy_gain_trace(self, toy_gain):
        trace = sweep_parameter(toy_gain, "ciders.0.control.0.d.0.0.0", [1.0, 2.0, 3.0])
        # one trace follows -k exactly (triple degenerate)
        for k, val in enumerate((1.0, 2.0, 3.0)):
            assert np.min(np.abs(trace.traces[:, k] - (-val))) < 1e-12

    def test_rlc_sweep_matches_root_formula(self, rlc_grid):
        values = [0.05, 0.1, 0.2]
        trace = sweep_parameter(rlc_grid, "grid.branches.0.r", values)
        l, c = 1e-3, 1e-5
        for k, r in enumerate(values):
            root = -r / (2 * l) + 1j * np.sqrt(1 / (l * c) - (r / (2 * l)) ** 2)
            lam = trace.traces[:, k]
            for target in (root, np.conj(root)):
                dist = np.abs(lam - target)
                assert np.sort(dist)[:3].max() <= 1e-8 * abs(root)

    def test_unknown_path_rejected(self, rlc_grid):
        from hss_stab import ScenarioError

        with pytest.raises(ScenarioError):
            sweep_parameter(rlc_grid, "grid.branches.9.r", [0.1, 0.2])


class TestClassify:
    def test_parameter_sets_required(self, rlc_grid):
        with pytest.raises(ConfigurationError):
            classify_eigenvalues(rlc_grid, ["analysis.stability_margin"], [])

    def test_grid_only_is_control_invariant(self, rlc_grid):
        result = classify_eigenvalues(
            rlc_grid,
            control_parameters=["analysis.stability_margin"],
            hardware_parameters=["grid.branches.0.r"],
        )
        assert all(label in ("CDI", "DI") for label in result.labels)
        assert np.max(result.control_displacements) == 0.0
        # branch resistance moves the grid eigenvalues: none is design invariant
        assert "DI" not in result.labels

    def test_unknown_path_raises(self, rlc_grid):
        # a bad path is an error of the request, not an unresolved label
        from hss_stab import ScenarioError

        with pytest.raises(ScenarioError):
            classify_eigenvalues(
                rlc_grid,
                control_parameters=["analysis.stability_margin"],
                hardware_parameters=["grid.branches.0.r", "grid.branches.9.r"],
            )

    def test_toy_gain_is_cdv(self, toy_gain):
        result = classify_eigenvalues(
            toy_gain,
            control_parameters=["ciders.0.control.0.d.0.0.0"],
            hardware_parameters=["ciders.0.hardware.0.b.0.0.0"],
        )
        assert "CDV" in result.labels

    def test_monotone_relabeling(self):
        ctl = np.array([0.0, 1e-7, 1e-3, 1e-7])
        hw = np.array([0.0, 1e-3, 1e-3, 1e-8])
        loose = _labels_from_evidence(ctl, hw, 1e-5)
        tight = _labels_from_evidence(ctl, hw, 1e-9)
        rank = {"CDV": 0, "CDI": 1, "DI": 2}
        for a, b in zip(loose, tight):
            assert rank[b] <= rank[a]

    @given(
        st.lists(st.floats(0, 1e-2), min_size=1, max_size=6),
        st.lists(st.floats(0, 1e-2), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotonicity_property(self, ctl, hw):
        n = min(len(ctl), len(hw))
        ctl, hw = np.array(ctl[:n]), np.array(hw[:n])
        rank = {"CDV": 0, "CDI": 1, "DI": 2, "unresolved": -1}
        eps_pairs = [(1e-3, 1e-6), (1e-4, 1e-8)]
        for loose_eps, tight_eps in eps_pairs:
            loose = _labels_from_evidence(ctl, hw, loose_eps)
            tight = _labels_from_evidence(ctl, hw, tight_eps)
            for a, b in zip(loose, tight):
                assert rank[b] <= rank[a]


def coupled_fixture(hmax=4):
    """Grid-only scenario made frequency-coupled via a custom resource."""
    raw = load_raw("two_node")
    raw["system"]["hmax"] = hmax
    return scenario_from_dict(raw)


class TestSpurious:
    def test_pure_lti_embedding_unflagged(self, rlc_grid):
        scenario = scenario_from_dict({**load_raw("rlc_grid")})
        scenario = scenario.with_hmax(3)
        report = detect_spurious(scenario, hmax_probe=6)
        assert not report.spurious.any()

    def test_probe_order_validated(self, rlc_grid):
        with pytest.raises(ConfigurationError):
            detect_spurious(rlc_grid.with_hmax(3), hmax_probe=4)

    def test_infinite_delta_unflags(self):
        scenario = coupled_fixture(3)
        report = detect_spurious(scenario, hmax_probe=6, delta=np.inf)
        assert not report.spurious.any()

    def test_coupled_fixture_flags_at_boundary(self):
        scenario = coupled_fixture(4)
        report = detect_spurious(scenario, hmax_probe=7)
        sol = eigen_decompose(assemble(scenario).model)
        # every flagged eigenvalue is boundary-concentrated or (by
        # construction) failed probe convergence
        flagged = np.where(report.spurious)[0]
        for i in flagged:
            assert report.spurious[i] or report.boundary_suspect[i]
        # boundary-suspect set is nonempty: the rotating-frame integrator
        # modes sit at the rim by construction
        assert report.boundary_suspect.any()

    # (edge, offset): Im = edge * pi * f1 + offset
    @pytest.mark.parametrize(
        "nominal_at, probe_at", [((1, -1e-3), (1, 1e-3)), ((-1, 1e-3), (1, -1e-3))]
    )
    def test_strip_edge_neighbours_are_close(self, nominal_at, probe_at, monkeypatch):
        # a mode just under the top strip edge +pi*f1 and a probe mode just
        # over it (folded to just over -pi*f1), or one just over the bottom
        # edge and a probe mode just under the top one, are 2e-3 apart, not
        # w1: a delta just under that distance flags every mode, one just
        # over it none
        scenario = coupled_fixture(3)
        half = np.pi * scenario.f1
        decompose, only = analysis.eigen_decompose, analysis.eigenvalues_only

        def at(place, size):
            return np.full(size, -1.0 + 1j * (place[0] * half + place[1]))

        def nominal(model):
            sol = decompose(model)
            return replace(sol, eigenvalues=at(nominal_at, sol.eigenvalues.size))

        def probe(model):
            spec = only(model)
            return replace(spec, eigenvalues=at(probe_at, spec.eigenvalues.size))

        monkeypatch.setattr(analysis, "eigen_decompose", nominal)
        monkeypatch.setattr(analysis, "eigenvalues_only", probe)
        assert detect_spurious(scenario, hmax_probe=5, delta=1.9e-3).spurious.all()
        assert not detect_spurious(scenario, hmax_probe=5, delta=2.1e-3).spurious.any()

    def test_nominal_system_released_before_probe(self, monkeypatch):
        # the probe assembly at hmax_probe must not share memory with the
        # nominal closed loop: it is collected once its spectrum is read
        nominal_ref = []
        original = analysis.assemble

        def recording(scenario, state_only=False, like=None):
            if nominal_ref:
                assert nominal_ref[0]() is None, "nominal system still alive at the probe"
            system = original(scenario, state_only=state_only, like=like)
            if not nominal_ref:
                nominal_ref.append(weakref.ref(system))
            return system

        monkeypatch.setattr(analysis, "assemble", recording)
        report = detect_spurious(coupled_fixture(3), hmax_probe=5)
        assert len(nominal_ref) == 1 and report.hmax_probe == 5
