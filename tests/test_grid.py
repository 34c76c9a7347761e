import itertools

import numpy as np
import pytest

from hss_stab import (
    Branch,
    ConfigurationError,
    GridNode,
    GridTopology,
    HarmonicIndexSet,
    PhysicalParameterError,
    TopologyError,
    build_grid_state_space,
    eigen_decompose,
    lift_grid_to_hss,
    match_eigenvalues,
)


def two_node_topology(r=0.1, l=1e-3, c=1e-5):
    return GridTopology(
        (GridNode("n1", "forming"), GridNode("n2", "following")),
        (Branch("n1", "n2", r, l),),
        {"n2": c},
    )


def random_topology(rng, n_nodes):
    """Random connected tree with SPD parameters; node 0 forming."""
    nodes = [GridNode("s0", "forming")] + [
        GridNode(f"r{i}", "following") for i in range(1, n_nodes)
    ]
    ids = [n.node_id for n in nodes]
    branches = []
    for i in range(1, n_nodes):
        parent = ids[int(rng.integers(0, i))]
        q = rng.standard_normal((3, 3))
        l_mat = q @ q.T + np.eye(3) * rng.uniform(0.5e-3, 2e-3)
        l_mat *= 1e-3
        q = rng.standard_normal((3, 3)) * 0.05
        r_mat = q @ q.T + np.eye(3) * rng.uniform(0.01, 0.3)
        branches.append(Branch(parent, ids[i], r_mat, l_mat))
    shunts = {}
    for i in range(1, n_nodes):
        q = rng.standard_normal((3, 3)) * 1e-6
        shunts[ids[i]] = q @ q.T + np.eye(3) * rng.uniform(1e-6, 2e-5)
    return GridTopology(tuple(nodes), tuple(branches), shunts)


class TestBuild:
    def test_single_branch_blocks(self):
        r, l, c = 0.1, 1e-3, 1e-5
        gss = build_grid_state_space(two_node_topology(r, l, c))
        eye = np.eye(3)
        assert np.allclose(gss.a[:3, :3], -(r / l) * eye)
        assert np.allclose(gss.a[:3, 3:], -(1.0 / l) * eye)
        assert np.allclose(gss.a[3:, :3], (1.0 / c) * eye)
        assert not gss.a[3:, 3:].any()

    def test_output_is_incidence_transpose(self):
        gss = build_grid_state_space(two_node_topology())
        # i_S output rows equal the transposed branch incidence (3-phase)
        assert np.array_equal(gss.c[:3, :3], np.eye(3))
        assert np.array_equal(gss.c[3:, 3:], np.eye(3))
        assert not gss.f.any()

    def test_closed_form_eigenvalues(self):
        r, l, c = 0.1, 1e-3, 1e-5
        gss = build_grid_state_space(two_node_topology(r, l, c))
        lam = np.linalg.eigvals(gss.a)
        root = -r / (2 * l) + 1j * np.sqrt(1.0 / (l * c) - (r / (2 * l)) ** 2)
        expected = np.array([root, np.conj(root)] * 3)
        perm, _ = match_eigenvalues(lam, expected)
        assert np.max(np.abs(lam - expected[perm])) <= 1e-8 * abs(root)

    def test_series_chain_is_stable(self):
        top = GridTopology(
            (
                GridNode("s", "forming"),
                GridNode("m", "following"),
                GridNode("r", "following"),
            ),
            (Branch("s", "m", 0.2, 2e-3), Branch("m", "r", 0.1, 1e-3)),
            {"m": 2e-5, "r": 1e-5},
        )
        lam = np.linalg.eigvals(build_grid_state_space(top).a)
        assert lam.real.max() <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_passivity_random(self, seed):
        rng = np.random.default_rng(seed)
        top = random_topology(rng, int(rng.integers(2, 7)))
        lam = np.linalg.eigvals(build_grid_state_space(top).a)
        assert lam.real.max() <= 1e-9

    def test_incidence_row_sums_vanish(self):
        top = random_topology(np.random.default_rng(42), 5)
        from hss_stab.grid import _incidence

        a_ls, a_lr = _incidence(top)
        full = np.hstack([a_ls, a_lr])
        assert np.array_equal(full.sum(axis=1), np.zeros(full.shape[0]))


class TestValidation:
    def test_negative_inductance(self):
        with pytest.raises(PhysicalParameterError, match="n1-n2"):
            two_node_topology(l=-1e-3)

    def test_asymmetric_matrix(self):
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(PhysicalParameterError):
            GridTopology(
                (GridNode("n1", "forming"), GridNode("n2", "following")),
                (Branch("n1", "n2", 0.1, bad * 1e-3),),
                {"n2": 1e-5},
            )

    def test_disconnected(self):
        with pytest.raises(TopologyError, match="disconnected"):
            GridTopology(
                (
                    GridNode("n1", "forming"),
                    GridNode("n2", "following"),
                    GridNode("n3", "following"),
                ),
                (Branch("n1", "n2", 0.1, 1e-3),),
                {"n2": 1e-5, "n3": 1e-5},
            )

    def test_disconnected_names_unreachable_nodes_in_order(self):
        # unreachable from the first declared node, listed as declared
        nodes = [GridNode(n, "following") for n in ("n3", "n4", "n2")]
        nodes.insert(1, GridNode("n1", "forming"))
        branches = (Branch("n1", "n2", 0.1, 1e-3), Branch("n3", "n4", 0.1, 1e-3))
        shunts = {"n2": 1e-5, "n3": 1e-5, "n4": 1e-5}
        with pytest.raises(TopologyError) as exc:
            GridTopology(tuple(nodes), branches, shunts)
        assert str(exc.value) == "grid graph is disconnected; unreachable nodes: ['n1', 'n2']"

    def test_no_forming_node(self):
        with pytest.raises(ConfigurationError, match="voltage reference"):
            GridTopology(
                (GridNode("n1", "following"),), (), {"n1": 1e-5}
            )

    def test_unknown_branch_endpoint(self):
        with pytest.raises(TopologyError, match="nx"):
            GridTopology(
                (GridNode("n1", "forming"), GridNode("n2", "following")),
                (Branch("n1", "nx", 0.1, 1e-3),),
                {"n2": 1e-5},
            )

    def test_following_node_needs_shunt(self):
        with pytest.raises(ConfigurationError, match="shunt"):
            GridTopology(
                (GridNode("n1", "forming"), GridNode("n2", "following")),
                (Branch("n1", "n2", 0.1, 1e-3),),
                {},
            )


class TestLift:
    def test_hmax_zero_is_identity(self):
        gss = build_grid_state_space(two_node_topology())
        model = lift_grid_to_hss(gss, HarmonicIndexSet(0, 50.0))
        assert np.array_equal(model.a.toarray(), gss.a.astype(complex))
        assert np.array_equal(model.e["gamma"].toarray(), gss.e.astype(complex))
        assert np.array_equal(model.c.toarray(), gss.c.astype(complex))

    def test_dc_lift_block_diagonal(self):
        gss = build_grid_state_space(two_node_topology())
        iset = HarmonicIndexSet(2, 50.0)
        model = lift_grid_to_hss(gss, iset)
        assert model.a.shape == (30, 30)
        assert np.array_equal(model.a.toarray(), np.kron(np.eye(5), gss.a))
        assert not model.f["gamma"].toarray().any()

    def test_ladder_spectrum(self):
        gss = build_grid_state_space(two_node_topology())
        iset = HarmonicIndexSet(2, 50.0)
        sol = eigen_decompose(lift_grid_to_hss(gss, iset).dense())
        base = np.linalg.eigvals(gss.a)
        expected = np.concatenate(
            [base - 1j * 2 * np.pi * 50.0 * h for h in iset.orders]
        )
        perm, _ = match_eigenvalues(sol.eigenvalues, expected)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(sol.eigenvalues - expected[perm])) <= 1e-8 * scale

    def test_port_layout_node_major(self):
        gss = build_grid_state_space(two_node_topology())
        iset = HarmonicIndexSet(1, 50.0)
        model = lift_grid_to_hss(gss, iset)
        # the disturbance column and output row of node k, harmonic block b
        # and phase q sit at 3*count*k + 3*b + q; in the harmonic-major dc
        # lift they sit at 6*b + 3*k + q
        count = iset.count
        node_major = []
        harmonic_major = []
        for k, b, q in itertools.product(range(2), range(count), range(3)):
            node_major.append(3 * count * k + 3 * b + q)
            harmonic_major.append(6 * b + 3 * k + q)
        e_hm = np.kron(np.eye(count), gss.e)
        c_hm = np.kron(np.eye(count), gss.c)
        assert np.array_equal(model.e["gamma"].toarray()[:, node_major], e_hm[:, harmonic_major])
        assert np.array_equal(model.c.toarray()[node_major], c_hm[harmonic_major])
