import numpy as np
import pytest

from hss_stab import (
    CiderTransforms,
    ConfigurationError,
    CtlInput,
    HarmonicIndexSet,
    InternalRouting,
    ShapeError,
    WellPosednessError,
    assemble_cider_hss,
    assemble_internal_response,
    close_loop,
    eigen_decompose,
    identity_series,
    inverse_park_series,
    lti_block,
    match_eigenvalues,
    make_operating_point,
    make_zero_injection,
    park_series,
    pinv_series,
    signal_from_harmonics,
    stack_blocks,
    toeplitz_from_fourier,
    toeplitz_identity,
)
from hss_stab.model import HssModel
from hss_stab.references import VfReference
from tests.test_references import block_offsets


def integrator_gain_parts(k=2.5, with_grid_input=True):
    b = [[1.0, 1.0]] if with_grid_input else [[1.0]]
    hw = lti_block("int", [[0.0]], b, [[1.0]], [[0.0] * len(b[0])])
    ctl = lti_block(
        "gain", np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[k]]
    )
    routing = InternalRouting(
        hw_grid_inputs=(1,) if with_grid_input else (),
        hw_actuation_inputs=(0,),
        ctl_measured_outputs=(0,),
        ctl_inputs=(CtlInput("error", meas_index=0, ref_index=0),),
    )
    return hw, ctl, routing


class TestInternalResponse:
    def test_textbook_negative_feedback(self):
        iset = HarmonicIndexSet(0, 50.0)
        hw, ctl, routing = integrator_gain_parts(k=2.5, with_grid_input=False)
        internal = assemble_internal_response(
            [hw], [ctl], routing, identity_series(1), identity_series(1), iset
        )
        assert np.allclose(internal.model.a.toarray(), [[-2.5]])

    def test_ladder_at_hmax_one(self):
        iset = HarmonicIndexSet(1, 50.0)
        hw, ctl, routing = integrator_gain_parts(k=2.5, with_grid_input=False)
        internal = assemble_internal_response(
            [hw], [ctl], routing, identity_series(1), identity_series(1), iset
        )
        sol = eigen_decompose(internal.model)
        w1 = 2 * np.pi * 50.0
        expected = np.array([-2.5 - 1j * w1, -2.5, -2.5 + 1j * w1])
        perm, _ = match_eigenvalues(sol.eigenvalues, expected)
        assert np.max(np.abs(sol.eigenvalues - expected[perm])) < 1e-10 * w1

    def test_periodic_hardware_couples_adjacent_harmonics(self):
        # a(t) with one cosine term closed under static control: the state
        # matrix may only couple harmonics one step apart
        iset = HarmonicIndexSet(3, 50.0)
        hw = lti_block("p", [[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        hw = stack_blocks([hw], "hw")
        periodic = dict(hw.a)
        periodic[1] = [[0.3]]
        periodic[-1] = [[0.3]]
        from hss_stab.cider import LtpBlock

        hw_p = LtpBlock("p", periodic, hw.b, hw.c, hw.d)
        ctl = lti_block(
            "gain", np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[1.0]]
        )
        routing = InternalRouting((), (0,), (0,), (CtlInput("error", 0, 0),))
        internal = assemble_internal_response(
            [hw_p], [ctl], routing, identity_series(1), identity_series(1), iset
        )
        offsets = block_offsets(internal.model.a, iset, (1, 1))
        assert offsets == {0, -1, 1}

    def test_port_partition_matches_merged_close(self):
        # independent route: close the same open loop with the disturbance
        # ports merged into one and compare the column groups
        iset = HarmonicIndexSet(1, 50.0)
        hw, ctl, routing = integrator_gain_parts(k=1.5, with_grid_input=True)
        internal = assemble_internal_response(
            [hw], [ctl], routing, identity_series(1), identity_series(1), iset
        )
        n = iset.count
        k = 1.5
        # manual open loop: states x (integrator); y = (y_hw, y_ctl)
        a = np.zeros((n, n), complex)
        e_loop = np.hstack([np.eye(n), np.zeros((n, n))]).astype(complex)
        e_w = np.hstack([np.eye(n), np.zeros((n, n))]).astype(complex)  # [pi | kappa]
        c = np.vstack([np.eye(n), np.zeros((n, n))]).astype(complex)
        f_loop = np.zeros((2 * n, 2 * n), complex)
        f_loop[n:, n:] = -k * np.eye(n)  # control feedthrough on the error channel
        f_w = np.zeros((2 * n, 2 * n), complex)
        f_w[n:, n:] = k * np.eye(n)
        j = np.zeros((2 * n, 2 * n), complex)
        j[:n, n:] = np.eye(n)
        j[n:, :n] = np.eye(n)
        merged = close_loop(
            HssModel(
                index_set=iset,
                a=a,
                e={"loop": e_loop, "w": e_w},
                c=c,
                f={"loop": f_loop, "w": f_w},
                state_names=("x",),
            ),
            j,
            loop_port="loop",
        ).model
        assert np.allclose(internal.model.a.toarray(), merged.a.toarray())
        split = np.hstack([internal.model.e["pi"].toarray(), internal.model.e["kappa"].toarray()])
        assert np.array_equal(split, merged.e["w"].toarray())
        split_f = np.hstack([internal.model.f["pi"].toarray(), internal.model.f["kappa"].toarray()])
        assert np.array_equal(split_f, merged.f["w"].toarray())

    def test_singular_loop_reported(self):
        iset = HarmonicIndexSet(0, 50.0)
        hw = lti_block("d", np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[1.0]])
        ctl = lti_block(
            "gain", np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[-1.0]]
        )
        routing = InternalRouting((), (0,), (0,), (CtlInput("error", 0, 0),))
        with pytest.raises(WellPosednessError, match="feedthrough chain"):
            assemble_internal_response(
                [hw], [ctl], routing, identity_series(1), identity_series(1), iset
            )

    def test_routing_validated(self):
        iset = HarmonicIndexSet(0, 50.0)
        hw, ctl, _ = integrator_gain_parts()
        bad = InternalRouting((0, 1), (0,), (0,), (CtlInput("error", 0, 0),))
        with pytest.raises(ConfigurationError, match="partition"):
            assemble_internal_response(
                [hw], [ctl], bad, identity_series(1), identity_series(1), iset
            )


class TestParkTransforms:
    def test_lift_couples_only_adjacent_harmonics(self):
        iset = HarmonicIndexSet(5, 50.0)
        op = toeplitz_from_fourier(park_series(), iset)
        assert block_offsets(op.matrix, iset, (2, 3)) == {-1, 1}
        op_inv = toeplitz_from_fourier(inverse_park_series(), iset)
        assert block_offsets(op_inv.matrix, iset, (3, 2)) == {-1, 1}

    def test_left_inverse(self):
        from hss_stab.harmonic import sample_series

        iset = HarmonicIndexSet(3, 50.0)
        td = sample_series(park_series(0.3), iset, 48)
        ta = sample_series(inverse_park_series(0.3), iset, 48)
        prod = np.einsum("nij,njk->nik", td, ta)
        assert np.max(np.abs(prod - np.eye(2))) < 1e-12

    def test_pinv_of_rotation(self):
        # planar rotation: the pointwise inverse is the transpose rotation
        iset = HarmonicIndexSet(2, 50.0)
        rot = {
            1: 0.5 * np.array([[1.0, -1j], [1j, 1.0]]),
            -1: 0.5 * np.array([[1.0, 1j], [-1j, 1.0]]),
        }  # R(theta) = [[cos, -sin], [sin, cos]]
        inv = pinv_series(rot, iset)
        expected = {
            1: 0.5 * np.array([[1.0, 1j], [-1j, 1.0]]),
            -1: 0.5 * np.array([[1.0, -1j], [1j, 1.0]]),
        }
        for h in (-1, 1):
            assert np.max(np.abs(inv[h] - expected[h])) < 1e-12

    def test_pinv_nonsquare_rejected(self):
        with pytest.raises(ConfigurationError, match="pseudo-inverse"):
            pinv_series(park_series(), HarmonicIndexSet(2, 50.0))


def vf_identity_cider(iset, k=2.0, kp_only=True):
    """Single-channel resource with identity transforms and pass-through reference."""
    hw = lti_block("int", [[0.0]], [[1.0, 1.0]], [[1.0]], [[0.0, 0.0]])
    ctl = lti_block(
        "gain", np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[k]]
    )
    routing = InternalRouting((1,), (0,), (0,), (CtlInput("error", 0, 0),))
    internal = assemble_internal_response(
        [hw], [ctl], routing, identity_series(1), identity_series(1), iset
    )
    transforms = CiderTransforms(
        grid_to_hw=identity_series(1),
        hw_to_ctl=identity_series(1),
        ctl_to_hw=identity_series(1),
        grid_out_to_hw_out=identity_series(1),
    )
    plugin = VfReference(channels=1, d_rho=1)
    w_pi = signal_from_harmonics({}, 1, iset)
    w_sigma = signal_from_harmonics({0: np.array([1.0])}, 1, iset)
    op = make_operating_point(plugin, toeplitz_identity(iset, 1), w_pi, w_sigma, iset)
    return internal, plugin, transforms, op


class TestGridResponse:
    def test_identity_collapse(self):
        iset = HarmonicIndexSet(1, 50.0)
        internal, plugin, transforms, op = vf_identity_cider(iset)
        cider = assemble_cider_hss(
            internal, plugin, transforms, op, iset, "n1", "grid-forming"
        )
        n = iset.count
        assert np.array_equal(cider.model.e["gamma"].toarray(), internal.model.e["pi"].toarray())
        assert np.array_equal(
            cider.model.e["sigma"].toarray(), internal.model.e["kappa"].toarray()
        )
        # output selector [I_pi 0_kappa] picks the hardware rows
        assert np.array_equal(cider.model.c.toarray(), internal.model.c[:n, :].toarray())

    def test_zero_feedthrough_propagates(self):
        iset = HarmonicIndexSet(1, 50.0)
        internal, plugin, transforms, op = vf_identity_cider(iset)
        # hardware D = 0 and pure-gain control: only the kappa/sigma
        # feedthrough survives; gamma feedthrough keeps the loop term
        cider = assemble_cider_hss(
            internal, plugin, transforms, op, iset, "n1", "grid-forming"
        )
        assert not internal.model.f["pi"][: iset.count].toarray().any()

    def test_deterministic_reassembly(self, two_node):
        from hss_stab.pipeline import assemble_cider

        iset = HarmonicIndexSet(3, 50.0)
        cfg = two_node.ciders[1]
        a = assemble_cider(cfg, iset)
        b = assemble_cider(cfg, iset)
        assert np.array_equal(a.model.a.toarray(), b.model.a.toarray())
        for port in ("gamma", "sigma", "o"):
            assert np.array_equal(a.model.e[port].toarray(), b.model.e[port].toarray())
            assert np.array_equal(a.model.f[port].toarray(), b.model.f[port].toarray())
        assert np.array_equal(a.model.c.toarray(), b.model.c.toarray())

    def test_offset_propagation_bound(self, two_node):
        # nonzero blocks of E_gamma stay inside the Minkowski sum of the
        # factor offset sets
        from hss_stab.pipeline import assemble_cider

        iset = HarmonicIndexSet(5, 50.0)
        cfg = two_node.ciders[1]  # power-controlled resource
        cider = assemble_cider(cfg, iset)
        internal = assemble_internal_response(
            cfg.hardware,
            cfg.control,
            cfg.routing,
            cfg.transforms.ctl_to_hw,
            cfg.transforms.hw_to_ctl,
            iset,
            name="n2",
        )
        n_states = len(internal.model.state_names)
        e_pi_off = block_offsets(internal.model.e["pi"], iset, (n_states, 3))
        e_kp_off = block_offsets(internal.model.e["kappa"], iset, (n_states, 2))
        ctl_frame = toeplitz_from_fourier(cfg.transforms.hw_to_ctl, iset)
        op = cider.operating_point
        from hss_stab.references import linearize_reference

        r_rho, _ = linearize_reference(cfg.plugin, op, iset)
        r_off = block_offsets(r_rho.matrix, iset, (2, 2))
        park_off = {-1, 1}

        def minkowski(*sets):
            out = {0}
            for s in sets:
                out = {a + b for a in out for b in s}
            return out

        allowed = set(e_pi_off) | minkowski(e_kp_off, r_off, park_off)
        actual = block_offsets(cider.model.e["gamma"], iset, (n_states, 3))
        assert actual <= allowed

    def test_zero_injection_shape(self):
        iset = HarmonicIndexSet(2, 50.0)
        z = make_zero_injection(iset, "nx")
        assert z.model.state_dim == 0
        assert z.model.port_dim("gamma") == 15
        assert not z.model.f["gamma"].toarray().any()


class TestDqSignature:
    def test_park_measurement_path(self, two_node):
        # the rotating-frame transforms couple adjacent harmonics through the
        # integrator paths; the proportional path composes transform and
        # inverse pointwise and stays at offset zero (the rotations cancel)
        from hss_stab.pipeline import assemble_cider

        iset = HarmonicIndexSet(4, 50.0)
        cider = assemble_cider(two_node.ciders[0], iset)
        n = len(cider.model.state_names)
        offsets = block_offsets(cider.model.a, iset, (n, n))
        assert offsets == {-1, 0, 1}


def test_stack_blocks_offsets_phase_triples():
    three = lti_block("abc", -np.eye(3), np.eye(3), np.eye(3), np.zeros((3, 3)), phase_triples=(0,))
    two = lti_block("dq", -np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
    assert stack_blocks([three, two, three], "hw").phase_triples == (0, 5)


def test_block_phase_triples_validated():
    with pytest.raises(ShapeError, match="block 'dq'"):
        lti_block("dq", -np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)), phase_triples=(0,))
