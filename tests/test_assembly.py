import copy
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from hss_stab import (
    HarmonicIndexSet,
    HssModel,
    WellPosednessError,
    WiringError,
    assemble_internal_response,
    build_grid_state_space,
    build_interconnection,
    close_loop,
    eigen_decompose,
    eigenvalues_only,
    evaluate_htf,
    load_scenario,
    make_zero_injection,
    match_eigenvalues,
    scenario_from_dict,
)
from hss_stab.pipeline import assemble, assemble_system
from tests.conftest import load_raw, scenario_path, shifted_dense


class TestInterconnection:
    def test_small_example(self):
        j = build_interconnection((2, 2))
        expected = np.zeros((4, 4))
        expected[:2, 2:] = np.eye(2)
        expected[2:, :2] = np.eye(2)
        assert np.array_equal(j.toarray(), expected)

    def test_swaps_halves(self):
        j = build_interconnection((3, 3))
        v = np.arange(6.0)
        assert np.array_equal(j @ v, np.concatenate([v[3:], v[:3]]))

    def test_involution_exact(self):
        j = build_interconnection((4, 4))
        assert np.array_equal((j @ j).toarray(), np.eye(8))

    def test_unequal_dims_rejected(self):
        with pytest.raises(WiringError):
            build_interconnection((2, 3))


def scalar_open_model(a=-1.0, e=1.0, c=1.0, f=0.0):
    iset = HarmonicIndexSet(0, 50.0)
    return HssModel(
        index_set=iset,
        a=np.array([[a]], complex),
        e={"gamma": np.array([[e]], complex), "u": np.array([[0.5]], complex)},
        c=np.array([[c]], complex),
        f={"gamma": np.array([[f]], complex), "u": np.array([[0.0]], complex)},
        state_names=("x",),
    )


class TestCloseLoop:
    def test_zero_feedthrough_collapse(self):
        model = scalar_open_model()
        j = np.eye(1)
        closed = close_loop(model, j)
        # A + E J C with F = 0
        assert np.allclose(closed.model.a.toarray(), [[-1.0 + 1.0]])
        assert np.array_equal(closed.model.c.toarray(), model.c)
        assert closed.certificate.nilpotent_loop

    def test_scalar_toy(self):
        closed = close_loop(scalar_open_model(a=-1.0, e=1.0, c=1.0, f=0.0), np.eye(1))
        assert np.allclose(closed.model.a.toarray(), [[0.0]])

    def test_triangular_feedthrough_det_one(self):
        # strictly upper block-triangular feedthrough under the identity
        # interconnection: unit determinant, solve succeeds
        iset = HarmonicIndexSet(0, 50.0)
        rng = np.random.default_rng(4)
        f_upper = np.zeros((4, 4), complex)
        f_upper[:2, 2:] = rng.standard_normal((2, 2))
        model = HssModel(
            index_set=iset,
            a=-np.eye(4, dtype=complex),
            e={"gamma": np.eye(4, dtype=complex)},
            c=np.eye(4, dtype=complex),
            f={"gamma": f_upper},
            state_names=("a", "b", "c", "d"),
        )
        j = np.eye(4)
        sign, logdet = np.linalg.slogdet(np.eye(4) - j @ f_upper)
        assert abs(sign - 1.0) < 1e-12 and abs(logdet) < 1e-12  # oracle
        closed = close_loop(model, j)
        assert closed.certificate.nilpotent_loop

    def _rank_one_model(self, wobble):
        iset = HarmonicIndexSet(0, 50.0)
        f = np.array([[0.5, 0.5], [0.5, 0.5 + wobble]], complex)
        return HssModel(
            index_set=iset,
            a=-np.eye(2, dtype=complex),
            e={"gamma": np.eye(2, dtype=complex)},
            c=np.eye(2, dtype=complex),
            f={"gamma": f},
            state_names=("a", "b"),
        )

    def test_singular_loop_raises(self):
        with pytest.raises(WellPosednessError, match="singular"):
            close_loop(self._rank_one_model(0.0), np.eye(2))

    def test_near_singular_condition_reported(self):
        with pytest.raises(WellPosednessError, match="condition"):
            close_loop(self._rank_one_model(1e-14), np.eye(2))

    def test_state_only_matches_full(self):
        model = scalar_open_model(a=-2.0, e=1.5, c=0.7, f=0.3)
        full = close_loop(model, np.eye(1))
        lean = close_loop(model, np.eye(1), state_only=True)
        assert np.array_equal(full.model.a.toarray(), lean.model.a.toarray())
        assert lean.model.ports == ()

    def test_general_solver_path_matches_series(self):
        # same loop, nilpotent by structure: LU path forced via a dense J
        rng = np.random.default_rng(8)
        iset = HarmonicIndexSet(0, 50.0)
        f = np.zeros((3, 3), complex)
        f[0, 1:] = rng.standard_normal(2)
        model = HssModel(
            index_set=iset,
            a=-np.eye(3, dtype=complex),
            e={"gamma": rng.standard_normal((3, 3)).astype(complex)},
            c=rng.standard_normal((3, 3)).astype(complex),
            f={"gamma": f},
            state_names=("a", "b", "c"),
        )
        j_perm = np.eye(3)[::-1]
        j_dense = j_perm + 1e-30  # defeats the permutation detection only
        a1 = close_loop(model, j_perm).model.a.toarray()
        a2 = close_loop(model, j_dense).model.a.toarray()
        assert np.allclose(a1, a2, atol=1e-12)


class TestSystemAssembly:
    def test_stack_single_resource_identity(self, two_node):
        from hss_stab.assembly import stack_resources
        from hss_stab.pipeline import assemble_cider

        iset = HarmonicIndexSet(2, 50.0)
        cider = assemble_cider(two_node.ciders[0], iset)
        block = stack_resources([cider])
        assert np.array_equal(block.model.a.toarray(), cider.model.a.toarray())
        assert block.node_ids == ("n1",)

    def test_stack_spectrum_union(self, two_node):
        from hss_stab.assembly import stack_resources
        from hss_stab.pipeline import assemble_cider

        iset = HarmonicIndexSet(1, 50.0)
        ciders = [assemble_cider(cfg, iset) for cfg in two_node.ciders]
        block = stack_resources(ciders)
        stacked = eigenvalues_only(block.model.dense()).eigenvalues
        union = np.concatenate([eigenvalues_only(c.model).eigenvalues for c in ciders])
        perm, _ = match_eigenvalues(stacked, union)
        scale = np.max(np.abs(union))
        assert np.max(np.abs(stacked - union[perm])) <= 1e-12 * scale

    def test_open_loop_shapes(self, two_node):
        system = assemble_system(two_node)
        ol = system.open_loop
        n_res = system.resources.model.state_dim
        n_grid = system.grid_model.state_dim
        assert ol.model.state_dim == n_res + n_grid
        assert system.model.state_dim == ol.model.state_dim  # dim conservation
        # setpoint/offset columns touch only resource states: grid-state rows
        # (branch currents and shunt voltages) stay zero
        grid_rows = [
            i
            for i, (name, _) in enumerate(ol.model.state_labels())
            if name.startswith("grid.")
        ]
        assert not ol.model.e["sigma"].toarray()[grid_rows].any()
        assert not ol.model.e["o"].toarray()[grid_rows].any()

    def test_certificate_unit_determinant(self, two_node):
        system = assemble_system(two_node)
        assert system.closed.certificate.nilpotent_loop
        # oracle: explicit determinant of (I - J F)
        f_gamma = system.open_loop.model.f["gamma"].toarray()
        j = system.interconnection
        sign, logdet = np.linalg.slogdet(np.eye(j.shape[0]) - j @ f_gamma)
        assert abs(sign - 1.0) <= 1e-9 and abs(logdet) <= 1e-9

    def test_node_mismatch_rejected(self, two_node):
        from hss_stab.assembly import build_open_loop, stack_resources
        from hss_stab.pipeline import assemble_cider

        iset = HarmonicIndexSet(two_node.hmax, two_node.f1)
        system = assemble_system(two_node)
        block = stack_resources(list(system.ciders))
        with pytest.raises(WiringError, match="n2"):
            build_open_loop(block, system.grid_model, ("n1", "nX"))


class TestClosedLoopInvariants:
    def test_htf_fixed_point(self, two_node):
        # closed-loop transfer at the setpoint port equals the fixed point of
        # the open-loop relations under w_gamma = J y, solved directly
        system = assemble_system(two_node)
        ol = system.open_loop.model.dense()
        j = system.interconnection
        iset = ol.index_set
        rng = np.random.default_rng(3)
        lam = eigenvalues_only(system.model).eigenvalues
        for s in (0.5 + 377j, -30.0 + 100j, 2.0 - 950j):
            assert np.min(np.abs(lam - s)) > 1e-3
            g_closed = evaluate_htf(system.model, s, ports=("sigma",))
            # direct solve of the open-loop fixed point
            n, ny = ol.state_dim, ol.output_dim
            resolvent = s * np.eye(n) - shifted_dense(ol)
            w_sigma = rng.standard_normal(ol.port_dim("sigma"))
            x_of_y = np.linalg.solve(
                resolvent, ol.e["gamma"] @ j
            )  # state response to y
            rhs_x = np.linalg.solve(resolvent, ol.e["sigma"] @ w_sigma)
            # y = C x + F_gamma J y + F_sigma w
            lhs = np.eye(ny) - ol.c @ x_of_y - ol.f["gamma"] @ j
            y = np.linalg.solve(lhs, ol.c @ rhs_x + ol.f["sigma"] @ w_sigma)
            ref = g_closed @ w_sigma
            # closed-loop output keeps the same stacked layout
            scale = max(1.0, np.max(np.abs(y)))
            assert np.max(np.abs(ref - y)) <= 1e-8 * scale

    def test_node_relabeling_invariance(self):
        raw = load_raw("two_node")
        # add a second following node + resource, then swap declaration order
        raw["grid"]["nodes"].append({"id": "n3", "kind": "following"})
        raw["grid"]["branches"].append({"from": "n2", "to": "n3", "r": 0.2, "l": 0.002})
        raw["grid"]["shunts"].append({"node": "n3", "c": 2e-05})
        third = copy.deepcopy(raw["ciders"][1])
        third["node"] = "n3"
        third["control"]["gains"]["kp"] = 3.0
        raw["ciders"].append(third)
        raw["system"]["hmax"] = 2

        swapped = copy.deepcopy(raw)
        swapped["grid"]["nodes"] = [
            swapped["grid"]["nodes"][0],
            swapped["grid"]["nodes"][2],
            swapped["grid"]["nodes"][1],
        ]
        swapped["ciders"] = [
            swapped["ciders"][0],
            swapped["ciders"][2],
            swapped["ciders"][1],
        ]
        lam_a = eigenvalues_only(assemble_system(scenario_from_dict(raw)).model).eigenvalues
        lam_b = eigenvalues_only(assemble_system(scenario_from_dict(swapped)).model).eigenvalues
        perm, _ = match_eigenvalues(lam_a, lam_b)
        scale = np.max(np.abs(lam_a))
        assert np.max(np.abs(lam_a - lam_b[perm])) <= 1e-9 * scale


def matrices(model):
    return (model.a, model.c, *model.e.values(), *model.f.values())


class TestRepresentation:
    """Every model ``assemble`` builds is CSR; ``assemble_system`` is its
    dense view of the system closed loop."""

    @pytest.mark.parametrize("state_only", [True, False])
    @pytest.mark.parametrize("name", ["two_node", "four_cider_six_node"])
    def test_only_system_closed_loop_dense(self, name, state_only):
        scenario = load_scenario(scenario_path(name)).with_hmax(3)
        system = assemble(scenario, state_only=state_only)
        iset = system.index_set
        models = [c.model for c in system.ciders]
        models += [system.grid_model, system.resources.model, system.open_loop.model]
        models += [system.model, system.closed.model]
        models += [assemble_internal_response(cfg, iset) for cfg in scenario.ciders]
        models.append(make_zero_injection(iset, "junction").model)
        for m in models:
            assert all(isinstance(x, sp.csr_array) for x in matrices(m))
        assert isinstance(system.interconnection, sp.csr_array)
        assert system.closed.model is system.model

        dense = assemble_system(scenario, state_only=state_only)
        assert dense.closed.model is dense.model
        assert dense.model.ports == system.model.ports
        for got, csr in zip(matrices(dense.model), matrices(system.model), strict=True):
            assert isinstance(got, np.ndarray)
            assert got.dtype == csr.dtype and np.array_equal(got, csr.toarray())

    def test_grid_only_model_csr(self):
        scenario = load_scenario(scenario_path("rlc_grid")).with_hmax(3)
        system = assemble(scenario)
        assert system.closed is None and system.model is system.grid_model
        assert all(isinstance(x, sp.csr_array) for x in matrices(system.model))
        dense = assemble_system(scenario).model
        for got, csr in zip(matrices(dense), matrices(system.model), strict=True):
            assert isinstance(got, np.ndarray) and np.array_equal(got, csr.toarray())

    @pytest.mark.parametrize("name, hmax", [("two_node", 5), ("four_cider_six_node", 8)])
    def test_dense_view_decomposes_alike(self, name, hmax):
        # the dense view is an oracle of the CSR model the commands solve
        scenario = load_scenario(scenario_path(name)).with_hmax(hmax)
        csr = eigen_decompose(assemble(scenario, state_only=True).model)
        dense = eigen_decompose(assemble_system(scenario, state_only=True).model)
        assert np.array_equal(csr.eigenvalues, dense.eigenvalues)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(csr.vectors, part), getattr(dense.vectors, part))

    def test_state_only_stacks_loop_port_alone(self):
        scenario = load_scenario(scenario_path("four_cider_six_node")).with_hmax(3)
        lean = assemble_system(scenario, state_only=True)
        full = assemble_system(scenario)
        assert lean.resources.model.ports == ("gamma",)
        assert lean.open_loop.model.ports == ("gamma",)
        assert full.open_loop.model.ports == ("gamma", "sigma", "o")
        assert np.array_equal(lean.model.a, full.model.a)
        # every configured resource is built with its loop port alone
        resources = {cfg.node_id for cfg in scenario.ciders}
        assert len(resources) == 4
        for lean_cider, full_cider in zip(lean.ciders, full.ciders, strict=True):
            if lean_cider.node_id in resources:
                assert lean_cider.model.ports == ("gamma",)
            assert full_cider.model.ports == ("gamma", "sigma", "o")

    def test_state_only_peak_near_closed_loop(self):
        # the dense closed-loop A dominates: no dense leaf or port stack adds to it
        scenario = load_scenario(scenario_path("four_cider_six_node")).with_hmax(12)
        tracemalloc.start()
        try:
            model = assemble_system(scenario, state_only=True).model
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * model.a.nbytes


class TestDenseOracle:
    """The CSR composition against a dense one written out here."""

    @staticmethod
    def harmonic_major_positions(count, dims):
        """Harmonic-major position of each (node k, order i, channel c), node-major."""
        return np.array(
            [
                i * sum(dims) + sum(dims[:k]) + c
                for k, d in enumerate(dims)
                for i in range(count)
                for c in range(d)
            ],
            dtype=int,
        )

    def dense_reference(self, system):
        """Closed-loop (A, C, E, F) composed densely from the leaves."""
        scenario, iset = system.scenario, system.index_set
        count = iset.count
        gss = build_grid_state_space(scenario.topology)
        to_node = self.harmonic_major_positions(count, [3] * len(scenario.topology.ordered_ids))
        leaves = [
            (m.a, m.c, dict(m.e), dict(m.f), m.state_channels)
            for m in (c.model.dense() for c in system.ciders)
        ]
        g_out, g_in = count * gss.c.shape[0], count * gss.e.shape[1]
        grid_e = {"gamma": np.kron(np.eye(count), gss.e)[:, to_node]}
        grid_f = {"gamma": np.zeros((g_out, g_in))}
        for port in ("sigma", "o"):
            grid_e[port] = np.zeros((count * gss.a.shape[0], 0))
            grid_f[port] = np.zeros((g_out, 0))
        grid_c = np.kron(np.eye(count), gss.c)[to_node]
        leaves.append(
            (np.kron(np.eye(count), gss.a), grid_c, grid_e, grid_f, len(gss.state_names))
        )
        # gather the subsystem-stacked (node-major) state into harmonic-major order
        idx = np.argsort(self.harmonic_major_positions(count, [leaf[4] for leaf in leaves]))

        def diag(mats):
            return scipy.linalg.block_diag(*mats).astype(complex)

        a = diag([leaf[0] for leaf in leaves])[np.ix_(idx, idx)]
        c = diag([leaf[1] for leaf in leaves])[:, idx]
        # a state-only assembly builds its resources with the gamma port alone
        ports = system.resources.model.ports
        e = {p: diag([leaf[2][p] for leaf in leaves])[idx] for p in ports}
        f = {p: diag([leaf[3][p] for leaf in leaves]) for p in ports}

        n_res = c.shape[0] - g_out
        j = np.zeros((n_res + g_in, c.shape[0]))
        j[:n_res, n_res:] = np.eye(g_out)
        j[n_res:, :n_res] = np.eye(n_res)
        jf_gamma = j @ f["gamma"]
        assert not np.any(jf_gamma @ jf_gamma)  # nilpotent: (I - JF)^-1 = I + JF

        def solve_j(x):
            jx = j @ x
            return jx + jf_gamma @ jx

        jc = solve_j(c)
        a_closed = a + e["gamma"] @ jc
        c_closed = c + f["gamma"] @ jc
        e_closed = {p: e[p] + e["gamma"] @ solve_j(f[p]) for p in ports[1:]}
        f_closed = {p: f[p] + f["gamma"] @ solve_j(f[p]) for p in ports[1:]}
        return a_closed, c_closed, e_closed, f_closed

    @pytest.mark.parametrize("state_only", [True, False])
    @pytest.mark.parametrize("name, hmax", [("two_node", 5), ("four_cider_six_node", 8)])
    def test_matches_dense_composition(self, name, hmax, state_only):
        scenario = load_scenario(scenario_path(name)).with_hmax(hmax)
        system = assemble_system(scenario, state_only=state_only)
        model = system.model

        # representation: CSR leaves and compositions, dense system closed loop
        models = [c.model for c in system.ciders]
        models += [system.grid_model, system.resources.model, system.open_loop.model]
        for m in models:
            assert all(sp.issparse(x) for x in (m.a, m.c, *m.e.values(), *m.f.values()))
        assert system.closed.model is model
        dense = (model.a, model.c, *model.e.values(), *model.f.values())
        assert all(isinstance(x, np.ndarray) for x in dense)

        a_ref, c_ref, e_ref, f_ref = self.dense_reference(system)
        assert np.array_equal(model.a, a_ref)
        if state_only:
            assert model.ports == () and model.c.shape == (0, model.state_dim)
            return
        assert model.ports == ("sigma", "o")
        pairs = [(model.c, c_ref)]
        pairs += [(model.e[p], e_ref[p]) for p in model.ports]
        pairs += [(model.f[p], f_ref[p]) for p in model.ports]
        for got, ref in pairs:
            assert got.shape == ref.shape
            scale = max(np.max(np.abs(ref), initial=0.0), 1.0)
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-14 * scale
