import dataclasses

import numpy as np
import pytest

from hss_stab import (
    AffineReference,
    CiderConfig,
    CiderTransforms,
    ConfigurationError,
    CtlInput,
    HarmonicIndexSet,
    InternalRouting,
    ScenarioError,
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
    stack_blocks,
    toeplitz_from_fourier,
)
from hss_stab.model import HssModel
from hss_stab.pipeline import assemble_cider
from hss_stab.references import PqReference
from tests.test_references import block_offsets, coefficients, dft, periodic_samples


def resource_lifts(cfg, iset):
    """R_rho, R_sigma of a configured resource along its operating trajectories."""
    ctl_frame_op = toeplitz_from_fourier(cfg.transforms.hw_to_ctl, iset)
    return make_operating_point(cfg.plugin, ctl_frame_op, cfg.w_pi, cfg.setpoint, iset)


def unit_config(hw, ctl):
    """Single-channel resource around ``hw`` and ``ctl``: hardware input 0
    actuates, input 1 takes the grid, output 0 is measured; identity
    transforms and a reference law that passes its setpoint through."""
    identity = identity_series(1)
    return CiderConfig(
        node_id="n1",
        kind="grid-forming",
        hardware=(hw,),
        control=(ctl,),
        routing=InternalRouting((1,), (0,), (0,), (CtlInput("error", 0, 0),)),
        transforms=CiderTransforms(identity, identity, identity, identity),
        plugin=AffineReference(np.zeros((1, 1)), np.eye(1)),
        setpoint={0: np.ones(1)},
        w_pi={},
    )


def gain(k):
    return lti_block("gain", np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[k]])


def integrator_gain_config(k=2.5):
    """An integrator with an actuation and a grid input under gain ``k``."""
    return unit_config(lti_block("int", [[0.0]], [[1.0, 1.0]], [[1.0]], [[0.0, 0.0]]), gain(k))


class TestInternalResponse:
    def test_textbook_negative_feedback(self):
        iset = HarmonicIndexSet(0, 50.0)
        internal = assemble_internal_response(integrator_gain_config(k=2.5), iset)
        assert np.allclose(internal.a.toarray(), [[-2.5]])

    def test_ladder_at_hmax_one(self):
        iset = HarmonicIndexSet(1, 50.0)
        internal = assemble_internal_response(integrator_gain_config(k=2.5), iset)
        sol = eigen_decompose(internal)
        w1 = 2 * np.pi * 50.0
        expected = np.array([-2.5 - 1j * w1, -2.5, -2.5 + 1j * w1])
        perm, _ = match_eigenvalues(sol.eigenvalues, expected)
        assert np.max(np.abs(sol.eigenvalues - expected[perm])) < 1e-10 * w1

    def test_periodic_hardware_couples_adjacent_harmonics(self):
        # a(t) with one cosine term closed under static control: the state
        # matrix may only couple harmonics one step apart
        iset = HarmonicIndexSet(3, 50.0)
        hw = lti_block("p", [[-1.0]], [[1.0, 1.0]], [[1.0]], [[0.0, 0.0]])
        periodic = dict(hw.a)
        periodic[1] = [[0.3]]
        periodic[-1] = [[0.3]]
        from hss_stab.cider import LtpBlock

        hw_p = LtpBlock("p", periodic, hw.b, hw.c, hw.d)
        internal = assemble_internal_response(unit_config(hw_p, gain(1.0)), iset)
        offsets = block_offsets(internal.a, iset, (1, 1))
        assert offsets == {0, -1, 1}

    def test_port_partition_matches_merged_close(self):
        # independent route: close the same open loop with the disturbance
        # ports merged into one and compare the column groups
        iset = HarmonicIndexSet(1, 50.0)
        internal = assemble_internal_response(integrator_gain_config(k=1.5), iset)
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
        assert np.allclose(internal.a.toarray(), merged.a.toarray())
        split = np.hstack([internal.e["pi"].toarray(), internal.e["kappa"].toarray()])
        assert np.array_equal(split, merged.e["w"].toarray())
        # the internal response keeps the hardware output rows alone
        split_f = np.hstack([internal.f["pi"].toarray(), internal.f["kappa"].toarray()])
        assert np.array_equal(split_f, merged.f["w"].toarray()[:n])

    def test_singular_loop_reported(self):
        iset = HarmonicIndexSet(0, 50.0)
        hw = lti_block("d", np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), [[1.0, 0.0]])
        with pytest.raises(WellPosednessError, match="feedthrough chain"):
            assemble_internal_response(unit_config(hw, gain(-1.0)), iset)

    def test_routing_validated(self):
        # the routing is checked when the config is built, before any assembly
        bad = InternalRouting((0, 1), (0,), (0,), (CtlInput("error", 0, 0),))
        with pytest.raises(ScenarioError, match="partition") as exc:
            dataclasses.replace(integrator_gain_config(), routing=bad)
        assert exc.value.field == "routing"


class TestParkTransforms:
    def test_lift_couples_only_adjacent_harmonics(self):
        iset = HarmonicIndexSet(5, 50.0)
        op = toeplitz_from_fourier(park_series(), iset)
        assert block_offsets(op, iset, (2, 3)) == {-1, 1}
        op_inv = toeplitz_from_fourier(inverse_park_series(), iset)
        assert block_offsets(op_inv, iset, (3, 2)) == {-1, 1}

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


def vf_identity_cider(iset):
    """Single-channel resource with identity transforms and pass-through
    reference: its internal response and its grid response."""
    cfg = integrator_gain_config(2.0)
    internal = assemble_internal_response(cfg, iset)
    ctl_frame_op = toeplitz_from_fourier({0: np.eye(1)}, iset)
    r_rho, r_sigma = make_operating_point(cfg.plugin, ctl_frame_op, {}, cfg.setpoint, iset)
    return internal, assemble_cider_hss(cfg, internal, r_rho, r_sigma, ctl_frame_op, iset)


class TestGridResponse:
    def test_identity_collapse(self):
        iset = HarmonicIndexSet(1, 50.0)
        internal, cider = vf_identity_cider(iset)
        assert np.array_equal(cider.model.e["gamma"].toarray(), internal.e["pi"].toarray())
        assert np.array_equal(
            cider.model.e["sigma"].toarray(), internal.e["kappa"].toarray()
        )
        # the internal response holds the hardware rows alone; the identity output map keeps them
        assert np.array_equal(cider.model.c.toarray(), internal.c.toarray())

    def test_zero_feedthrough_propagates(self):
        iset = HarmonicIndexSet(1, 50.0)
        # hardware D = 0 and pure-gain control: only the kappa/sigma
        # feedthrough survives; gamma feedthrough keeps the loop term
        internal, _ = vf_identity_cider(iset)
        assert not internal.f["pi"].toarray().any()

    def test_offset_port_structure(self):
        # pass-through reference: R_rho = 0 and R_sigma = I, so E_o = [E_kappa | 0 | -E_kappa]
        iset = HarmonicIndexSet(1, 50.0)
        internal, cider = vf_identity_cider(iset)
        n = iset.count
        e_o = cider.model.e["o"].toarray()
        e_kappa = internal.e["kappa"].toarray()
        assert e_o.shape == (internal.state_dim, 3 * n)
        assert np.array_equal(e_o[:, :n], e_kappa)
        assert not e_o[:, n : 2 * n].any()
        assert np.max(np.abs(e_o[:, 2 * n :] + e_kappa)) < 1e-12

    def test_offset_port_consistency(self, two_node):
        # the o port acts on col(w_kappa, w_pi, w_sigma): E_o W_o + E_kappa R_rho W_rho
        # + E_sigma W_sigma returns E_kappa W_kappa.  W_rho and W_kappa are
        # computed here from samples: w_rho(t) = park(t) w_pi(t), w_kappa(t)
        # = evaluate(w_rho(t), w_sigma(t)), each transformed with numpy
        iset = HarmonicIndexSet(4, 50.0)
        cfg = two_node.ciders[1]  # power-controlled resource
        cider = assemble_cider(cfg, iset)
        t = cfg.transforms
        internal = assemble_internal_response(cfg, iset)
        r_rho, _ = resource_lifts(cfg, iset)
        w_pi = coefficients(cfg.w_pi, iset).reshape(-1)
        w_sigma = coefficients(cfg.setpoint, iset).reshape(-1)
        n = 8 * iset.count
        phases = np.exp(2j * np.pi * np.outer(np.arange(n), iset.orders) / n)
        park = [t.hw_to_ctl.get(h, np.zeros((2, 3))) for h in iset.orders]
        park_t = np.tensordot(phases, park, axes=1)
        rho_t = np.einsum("tij,tj->ti", park_t, periodic_samples(cfg.w_pi, iset, n)).real
        sigma_t = periodic_samples(cfg.setpoint, iset, n).real
        w_rho = dft(rho_t, iset)
        w_kappa = dft(cfg.plugin.evaluate(rho_t, sigma_t), iset)
        e_kappa = internal.e["kappa"]
        w_o = np.concatenate([w_kappa, w_pi, w_sigma])
        recovered = (
            cider.model.e["o"] @ w_o
            + e_kappa @ (r_rho @ w_rho)
            + cider.model.e["sigma"] @ w_sigma
        )
        expected = e_kappa @ w_kappa
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(recovered - expected)) <= 1e-8 * scale

    def test_deterministic_reassembly(self, two_node):
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
        iset = HarmonicIndexSet(5, 50.0)
        cfg = two_node.ciders[1]  # power-controlled resource
        cider = assemble_cider(cfg, iset)
        internal = assemble_internal_response(cfg, iset)
        n_states = len(internal.state_names)
        e_pi_off = block_offsets(internal.e["pi"], iset, (n_states, 3))
        e_kp_off = block_offsets(internal.e["kappa"], iset, (n_states, 2))
        r_rho, _ = resource_lifts(cfg, iset)
        r_off = block_offsets(r_rho, iset, (2, 2))
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


def real_series(rng, shape, scale=0.2):
    """Random real-valued matrix trajectory with a DC part and a fundamental."""
    m1 = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return {0: rng.standard_normal(shape), 1: m1, -1: np.conj(m1)}


def oracle_config(seed=3):
    """Resource whose every transform is time-varying and not an identity.

    The hardware has three outputs, two of them grid-facing and measured;
    its output map is a time-varying 2x3 series.  Control D acts on the
    reference channels alone, so the internal loop has no algebraic part.
    """
    rng = np.random.default_rng(seed)
    hw = lti_block(
        "hw",
        [[-1.0, 0.5], [-0.5, -2.0]],
        [[1.0, 0.0, 0.3, 0.0], [0.0, 1.0, 0.0, 0.4]],
        [[1.0, 0.0], [0.0, 1.0], [0.5, 0.2]],
        [[0.1, 0.0, 0.05, 0.0], [0.0, 0.2, 0.0, 0.07], [0.3, 0.1, 0.4, 0.1]],
    )
    ctl = lti_block(
        "ctl",
        -0.5 * np.eye(2),
        [[1.0, 0.0, 0.7, 0.0], [0.0, 1.0, 0.0, 0.9]],
        np.eye(2),
        [[0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 3.0]],
    )
    routing = InternalRouting(
        hw_grid_inputs=(2, 3),
        hw_actuation_inputs=(0, 1),
        ctl_measured_outputs=(0, 1),
        ctl_inputs=(
            CtlInput("measurement", meas_index=0),
            CtlInput("measurement", meas_index=1),
            CtlInput("reference", ref_index=0),
            CtlInput("reference", ref_index=1),
        ),
    )
    hw_to_ctl = real_series(rng, (2, 2))
    hw_to_ctl[0] += 2.0 * np.eye(2)
    transforms = CiderTransforms(
        grid_to_hw=real_series(rng, (2, 2)),
        hw_to_ctl=hw_to_ctl,
        ctl_to_hw=real_series(rng, (2, 2)),
        grid_out_to_hw_out={0: np.eye(3, 2)},
        hw_out_to_grid_out=real_series(rng, (2, 3)),
    )
    return CiderConfig(
        node_id="n1",
        kind="grid-following",
        hardware=(hw,),
        control=(ctl,),
        routing=routing,
        transforms=transforms,
        plugin=PqReference(),
        setpoint={0: np.array([5.0, 1.0])},
        w_pi={0: np.array([3.0, 0.5]), 1: np.array([0.4 - 0.2j, 0.1j]), -1: np.array([0.4 + 0.2j, -0.1j])},
    )


def with_routing(cfg, **changes):
    return {"routing": dataclasses.replace(cfg.routing, **changes)}


def with_transforms(cfg, **changes):
    return {"transforms": dataclasses.replace(cfg.transforms, **changes)}


def with_ctl_input(cfg, i, source):
    inputs = list(cfg.routing.ctl_inputs)
    inputs[i] = source
    return with_routing(cfg, ctl_inputs=tuple(inputs))


@pytest.mark.parametrize(
    "change, field",
    [
        (lambda c: with_ctl_input(c, 0, CtlInput("foo", 0)), "routing.ctl_inputs.0"),
        (lambda c: with_ctl_input(c, 2, CtlInput("error", ref_index=0)), "routing.ctl_inputs.2"),
        (lambda c: with_ctl_input(c, 2, CtlInput("reference")), "routing.ctl_inputs.2"),
        (lambda c: with_ctl_input(c, 1, CtlInput("measurement", 2)), "routing.ctl_inputs.1.meas"),
        (lambda c: with_routing(c, hw_grid_inputs=(1, 2)), "routing"),
        (lambda c: with_routing(c, ctl_inputs=c.routing.ctl_inputs[:3]), "routing.ctl_inputs"),
        (
            lambda c: with_ctl_input(c, 3, CtlInput("reference", ref_index=2)),
            "routing.ctl_inputs",
        ),
        (
            lambda c: with_routing(c, ctl_measured_outputs=(0, 3)),
            "routing.ctl_measured_outputs.1",
        ),
        (
            lambda c: with_transforms(c, ctl_to_hw={0: np.ones((3, 2))}),
            "transforms.control_to_hardware",
        ),
        (
            lambda c: with_transforms(c, hw_to_ctl={0: np.ones((3, 2))}),
            "transforms.hardware_to_control",
        ),
        (
            lambda c: with_transforms(c, grid_to_hw={0: np.ones((3, 2))}),
            "transforms.grid_to_hardware",
        ),
        (
            lambda c: with_transforms(c, hw_out_to_grid_out={0: np.ones((2, 2))}),
            "transforms.hardware_output_to_grid_output",
        ),
        (
            lambda c: with_transforms(c, hw_out_to_grid_out=None),
            "transforms.grid_output_to_hardware_output",
        ),
        (
            lambda c: with_transforms(
                c, hw_out_to_grid_out=None, grid_out_to_hw_out={0: np.zeros((3, 3))}
            ),
            "transforms.grid_output_to_hardware_output",
        ),
        (lambda c: with_transforms(c, grid_to_hw={}), "transforms.grid_to_hardware"),
        (
            lambda c: with_transforms(c, hw_out_to_grid_out={}),
            "transforms.hardware_output_to_grid_output",
        ),
        (lambda c: {"plugin": AffineReference(np.zeros((3, 2)), np.zeros((3, 2)))}, "reference"),
        (lambda c: {"setpoint": {0: np.ones(3)}}, "setpoint.harmonics.0"),
        (lambda c: {"w_pi": {0: np.ones(2), 1: np.ones(3)}}, "operating_point.w_pi.harmonics.1"),
    ],
    ids=[
        "ctl-input-kind",
        "error-without-meas",
        "reference-without-ref",
        "meas-index-range",
        "hardware-inputs-partition",
        "ctl-input-count",
        "reference-indices-contiguous",
        "measured-output-range",
        "control-to-hardware-shape",
        "hardware-to-control-reference-width",
        "grid-to-hardware-rows",
        "output-map-columns",
        "default-output-map-square",
        "default-output-map-singular",
        "grid-to-hardware-empty",
        "output-map-empty",
        "reference-output-width",
        "setpoint-width",
        "w-pi-width",
    ],
)
def test_config_widths_checked(change, field):
    # each rule a CiderConfig checks at construction, at its field in the
    # resource's scenario entry; the unchanged config passes every rule
    cfg = oracle_config()
    with pytest.raises(ScenarioError) as exc:
        dataclasses.replace(cfg, **change(cfg))
    assert exc.value.field == field


def test_time_varying_singular_output_map_names_resource():
    # 1 + cos(w t) on the third channel vanishes at half the period, a
    # sample of the inversion grid: only the assembly can see it
    cfg = oracle_config()
    varying = {0: np.eye(3), 1: np.diag([0.0, 0.0, 0.5]), -1: np.diag([0.0, 0.0, 0.5])}
    changes = with_transforms(cfg, hw_out_to_grid_out=None, grid_out_to_hw_out=varying)
    cfg = dataclasses.replace(cfg, **changes)
    with pytest.raises(ConfigurationError) as exc:
        assemble_cider(cfg, HarmonicIndexSet(2, 50.0))
    assert str(exc.value).startswith("n1: transforms.grid_output_to_hardware_output: ")
    assert "singular" in str(exc.value)


def dense_lift(series, iset):
    """Dense block-Toeplitz lift built block by block: block (i, k) is the order i - k."""
    series = {h: np.atleast_2d(np.asarray(m, dtype=complex)) for h, m in series.items()}
    m, n = next(iter(series.values())).shape
    out = np.zeros((iset.count * m, iset.count * n), dtype=complex)
    for i in range(iset.count):
        for k in range(iset.count):
            if i - k in series:
                out[i * m : (i + 1) * m, k * n : (k + 1) * n] = series[i - k]
    return out


def dense_internal(cfg, iset):
    """Internal closed loop written out densely, hardware output rows only:
    (A, E_pi, E_kappa, C, F_pi, F_kappa) over the h-major state."""
    from hss_stab.harmonic import node_major_order

    def lift(m):
        return np.kron(np.eye(iset.count), np.asarray(m, dtype=complex))

    hw, ctl = cfg.hardware[0], cfg.control[0]
    a_h, b_h, c_h, d_h = (getattr(hw, x)[0] for x in "abcd")
    a_c, b_c, c_c, d_c = (getattr(ctl, x)[0] for x in "abcd")
    t_act = dense_lift(cfg.transforms.ctl_to_hw, iset)
    meas = dense_lift(cfg.transforms.hw_to_ctl, iset) @ lift(np.eye(3)[:2])
    nh, nc = iset.count * 2, iset.count * 2
    # control output, actuation and hardware output as maps of (x, w_pi, w_kappa)
    yc_x = np.hstack([np.zeros((nc, nh)), lift(c_c)])
    u_x, u_k = t_act @ yc_x, t_act @ lift(d_c[:, 2:])
    yh_x = np.hstack([lift(c_h), np.zeros((3 * iset.count, nc))]) + lift(d_h[:, :2]) @ u_x
    yh_p, yh_k = lift(d_h[:, 2:]), lift(d_h[:, :2]) @ u_k
    a = np.vstack(
        [
            np.hstack([lift(a_h), np.zeros((nh, nc))]) + lift(b_h[:, :2]) @ u_x,
            np.hstack([np.zeros((nc, nh)), lift(a_c)]) + lift(b_c[:, :2]) @ meas @ yh_x,
        ]
    )
    e_p = np.vstack([lift(b_h[:, 2:]), lift(b_c[:, :2]) @ meas @ yh_p])
    e_k = np.vstack([lift(b_h[:, :2]) @ u_k, lift(b_c[:, :2]) @ meas @ yh_k + lift(b_c[:, 2:])])
    inv = np.argsort(node_major_order(iset.count, [2, 2]))
    return a[inv][:, inv], e_p[inv], e_k[inv], yh_x[:, inv], yh_p, yh_k


class TestGridResponseOracle:
    """assemble_cider against the dense products written out by hand."""

    @pytest.fixture(scope="class")
    def built(self):
        iset = HarmonicIndexSet(2, 50.0)
        cfg = oracle_config()
        cider = assemble_cider(cfg, iset)
        r_rho, r_sigma = resource_lifts(cfg, iset)
        return iset, cfg, cider, r_rho.toarray(), r_sigma.toarray()

    @staticmethod
    def close(actual, expected):
        actual = actual.toarray()
        assert actual.shape == expected.shape
        assert np.max(np.abs(actual - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    def test_internal_response(self, built):
        iset, cfg, _, _, _ = built
        internal = assemble_internal_response(cfg, iset)
        a, e_p, e_k, c, f_p, f_k = dense_internal(cfg, iset)
        for actual, expected in [
            (internal.a, a),
            (internal.e["pi"], e_p),
            (internal.e["kappa"], e_k),
            (internal.c, c),
            (internal.f["pi"], f_p),
            (internal.f["kappa"], f_k),
        ]:
            self.close(actual, expected)

    def test_ports_and_output_map(self, built):
        iset, cfg, cider, r_rho, r_sigma = built
        _, e_p, e_k, c, f_p, f_k = dense_internal(cfg, iset)
        t_pg = dense_lift(cfg.transforms.grid_to_hw, iset)
        k = r_rho @ dense_lift(cfg.transforms.hw_to_ctl, iset)
        out = dense_lift(cfg.transforms.hw_out_to_grid_out, iset)
        assert np.abs(t_pg - np.eye(t_pg.shape[0])).max() > 0.1
        for x_p, x_k, mats in [(e_p, e_k, cider.model.e), (out @ f_p, out @ f_k, cider.model.f)]:
            self.close(mats["gamma"], x_p @ t_pg + x_k @ k @ t_pg)
            self.close(mats["sigma"], x_k @ r_sigma)
            self.close(mats["o"], np.hstack([x_k, -x_k @ k, -x_k @ r_sigma]))
        self.close(cider.model.c, out @ c)


def test_hw_to_ctl_lifted_once(monkeypatch):
    import sys

    cfg = oracle_config()
    lifts = []

    def spy(original):
        def toeplitz(series, index_set):
            lifts.append(series is cfg.transforms.hw_to_ctl)
            return original(series, index_set)

        return toeplitz

    original = toeplitz_from_fourier
    for name, mod in list(sys.modules.items()):
        if name.startswith("hss_stab") and getattr(mod, "toeplitz_from_fourier", None) is original:
            monkeypatch.setattr(mod, "toeplitz_from_fourier", spy(original))
    assemble_cider(cfg, HarmonicIndexSet(2, 50.0))
    assert len(lifts) > 1
    assert sum(lifts) == 1
