import numpy as np
import pytest

from hss_stab import (
    AffineReference,
    ConfigurationError,
    HarmonicIndexSet,
    NumericalError,
    PqReference,
    SingularOperatingPointError,
    make_operating_point,
    toeplitz_from_fourier,
)
from hss_stab.harmonic import default_sample_count


def grid_frame(iset):
    """Lift of the identity map from the grid frame to the control frame."""
    return toeplitz_from_fourier({0: np.eye(2)}, iset)


def reference_lifts(plugin, w_pi, w_sigma, iset):
    """R_rho, R_sigma of ``plugin`` with the control frame equal to the grid frame."""
    return make_operating_point(plugin, grid_frame(iset), w_pi, w_sigma, iset)


def coefficients(harmonics, iset):
    """(count, channels) coefficients over -hmax..hmax of a non-empty
    {order: vector} map whose orders lie within hmax."""
    stack = np.zeros((iset.count, len(next(iter(harmonics.values())))), dtype=complex)
    for h, vec in harmonics.items():
        stack[h + iset.hmax] = vec
    return stack


def periodic_samples(harmonics, iset, n):
    """(n, channels) samples over one period of ``harmonics``, by numpy alone."""
    phases = np.exp(2j * np.pi * np.outer(np.arange(n), iset.orders) / n)
    return phases @ coefficients(harmonics, iset)


def dft(samples, iset):
    """Coefficients over -hmax..hmax (h-major) of samples over one period."""
    n = samples.shape[0]
    return (np.fft.fft(samples, axis=0) / n)[iset.orders % n].reshape(-1)


def alpha_beta_voltage(v_peak=325.0):
    """Rotating two-channel voltage: (V cos, V sin)."""
    half = v_peak / 2.0
    return {1: np.array([half, -1j * half]), -1: np.array([half, 1j * half])}


def make_pq_op(p=5000.0, q=1000.0, v_peak=325.0):
    """The power reference and its (w_pi, w_sigma) on a rotating voltage."""
    w_pi = alpha_beta_voltage(v_peak)
    w_sigma = {0: np.array([p, q])}
    return PqReference(), w_pi, w_sigma


def block_offsets(matrix, iset, block_shape, tol=1e-12):
    m, n = block_shape
    out = set()
    scale = max(1.0, np.max(np.abs(matrix)))
    for i in range(iset.count):
        for k in range(iset.count):
            blk = matrix[i * m : (i + 1) * m, k * n : (k + 1) * n]
            if np.max(np.abs(blk)) > tol * scale:
                out.add(i - k)
    return out


class TestVf:
    def test_jacobian_lift(self, two_node):
        # the vf template's reference passes the setpoint through
        iset = HarmonicIndexSet(2, 50.0)
        plugin = two_node.ciders[0].plugin
        w_pi = alpha_beta_voltage()
        w_sigma = {0: np.array([325.0, 0.0])}
        r_rho, r_sigma = reference_lifts(plugin, w_pi, w_sigma, iset)
        assert not r_rho.toarray().any()
        assert np.max(np.abs(r_sigma.toarray() - np.eye(iset.count * 2))) < 1e-12


class TestAffine:
    def test_constant_matrix_lift(self):
        iset = HarmonicIndexSet(2, 50.0)
        m = np.array([[1.0, 2.0], [0.5, -1.0]])
        plugin = AffineReference(m, np.zeros((2, 2)))
        w_pi = alpha_beta_voltage()
        w_sigma = {}
        r_rho, _ = reference_lifts(plugin, w_pi, w_sigma, iset)
        assert np.max(np.abs(r_rho.toarray() - np.kron(np.eye(iset.count), m))) < 1e-12


class TestPq:
    def test_jacobians_match_finite_difference(self):
        rng = np.random.default_rng(1)
        plugin = PqReference()
        w_rho = rng.uniform(100.0, 300.0, (40, 2))
        w_sigma = rng.uniform(-5000.0, 5000.0, (40, 2))
        jac_r = plugin.jac_rho(w_rho, w_sigma)
        jac_s = plugin.jac_sigma(w_rho, w_sigma)
        eps = 1e-4
        for k in range(2):
            dv = np.zeros(2)
            dv[k] = eps
            fd = (plugin.evaluate(w_rho + dv, w_sigma) - plugin.evaluate(w_rho - dv, w_sigma)) / (2 * eps)
            rel = np.max(np.abs(fd - jac_r[:, :, k]) / np.maximum(np.abs(fd), 1e-9))
            assert rel <= 1e-6
            fd = (plugin.evaluate(w_rho, w_sigma + dv) - plugin.evaluate(w_rho, w_sigma - dv)) / (2 * eps)
            rel = np.max(np.abs(fd - jac_s[:, :, k]) / np.maximum(np.abs(fd), 1e-9))
            assert rel <= 1e-6

    def test_sinusoidal_op_couples_second_harmonic(self):
        # circular trajectory: the DC part of the current-reference Jacobian
        # cancels exactly and only the +-2 coupling survives
        iset = HarmonicIndexSet(4, 50.0)
        r_rho, r_sigma = reference_lifts(*make_pq_op(), iset)
        assert block_offsets(r_rho, iset, (2, 2), tol=1e-10) == {-2, 2}
        assert block_offsets(r_sigma, iset, (2, 2), tol=1e-10) == {-1, 1}

    def test_elliptic_op_gives_even_harmonics_no_dc(self):
        # centred orbits average the current-reference Jacobian to zero:
        # only even couplings survive, with the +-2 blocks dominant
        iset = HarmonicIndexSet(6, 50.0)
        plugin = PqReference()
        v1, v2 = 325.0, 250.0
        w_pi = {
            1: np.array([v1 / 2, -1j * v2 / 2]),
            -1: np.array([v1 / 2, 1j * v2 / 2]),
        }
        w_sigma = {0: np.array([5000.0, 1000.0])}
        r_rho, _ = reference_lifts(plugin, w_pi, w_sigma, iset)
        offsets = block_offsets(r_rho, iset, (2, 2), tol=1e-8)
        assert {-2, 2} <= offsets
        assert all(off % 2 == 0 for off in offsets)

    def test_biased_op_restores_dc_coupling(self):
        # the Jacobian kernel is conjugate-linear with weight 1/conj(v)^2;
        # once the DC bias dominates the orbit no longer encircles the
        # origin and the Laurent expansion regains a direct (DC) term
        iset = HarmonicIndexSet(6, 50.0)
        plugin = PqReference()
        w_pi = {
            0: np.array([400.0, 0.0]),
            1: np.array([100.0, -1j * 100.0]),
            -1: np.array([100.0, 1j * 100.0]),
        }
        w_sigma = {0: np.array([5000.0, 1000.0])}
        r_rho, _ = reference_lifts(plugin, w_pi, w_sigma, iset)
        offsets = block_offsets(r_rho, iset, (2, 2), tol=1e-8)
        assert {0, -1, 1, -2, 2} <= offsets

    def test_balanced_op_lift_is_block_diagonal(self):
        # constant dq voltage: the Jacobians are constant, so each lift stores its
        # 2x2 diagonal blocks and no FFT rounding at the other orders
        iset = HarmonicIndexSet(25, 50.0)
        plugin = PqReference()
        v, pq = np.array([[325.0, 20.0]]), np.array([[5000.0, 1000.0]])
        w_pi = {0: v[0]}
        w_sigma = {0: pq[0]}
        for lift, jac in zip(
            reference_lifts(plugin, w_pi, w_sigma, iset),
            (plugin.jac_rho(v, pq), plugin.jac_sigma(v, pq)),
        ):
            assert lift.nnz == 4 * iset.count
            expected = np.kron(np.eye(iset.count), jac[0])
            assert np.max(np.abs(lift.toarray() - expected)) <= 1e-14 * np.max(np.abs(jac))

    def test_zero_voltage_rejected(self):
        iset = HarmonicIndexSet(2, 50.0)
        plugin = PqReference()
        w_pi = {}  # zero trajectory
        w_sigma = {0: np.array([100.0, 0.0])}
        with pytest.raises(SingularOperatingPointError):
            reference_lifts(plugin, w_pi, w_sigma, iset)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_small_signal_first_order(self, eps):
        iset = HarmonicIndexSet(6, 50.0)
        plugin, w_pi, w_sigma = make_pq_op()
        r_rho, _ = reference_lifts(plugin, w_pi, w_sigma, iset)
        err = _small_signal_error(plugin, w_pi, w_sigma, r_rho, eps, iset)
        assert err < 10 * eps  # first-order model: error is O(eps^2)

    def test_small_signal_quadratic_convergence(self):
        iset = HarmonicIndexSet(6, 50.0)
        plugin, w_pi, w_sigma = make_pq_op()
        r_rho, _ = reference_lifts(plugin, w_pi, w_sigma, iset)
        e3 = _small_signal_error(plugin, w_pi, w_sigma, r_rho, 1e-3, iset)
        e4 = _small_signal_error(plugin, w_pi, w_sigma, r_rho, 1e-4, iset)
        ratio = e3 / e4
        assert 80.0 <= ratio <= 120.0


def _small_signal_error(plugin, w_rho, w_sigma, r_rho, eps, iset):
    """Max coefficient error of the linearised reference under a perturbation.

    w_rho and w_kappa are sampled and transformed here, with numpy alone.
    """
    rng = np.random.default_rng(17)
    c1 = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * eps * 150.0
    delta = {
        0: rng.standard_normal(2) * eps * 300.0,
        1: c1,
        -1: np.conj(c1),  # keep the perturbation real in time domain
    }
    n = default_sample_count(iset)
    rho_t = periodic_samples(w_rho, iset, n).real
    sigma_t = periodic_samples(w_sigma, iset, n).real
    w_kappa = dft(plugin.evaluate(rho_t, sigma_t), iset)
    nonlinear = dft(plugin.evaluate(rho_t + periodic_samples(delta, iset, n).real, sigma_t), iset)
    linear = w_kappa + r_rho @ coefficients(delta, iset).reshape(-1)
    return float(np.max(np.abs(nonlinear - linear)))


class TestOperatingPoint:
    def test_residual_small(self):
        # w_kappa of the rotating-voltage operating point, at two sample
        # counts, agrees far inside the aliasing bound, and the lifts build
        iset = HarmonicIndexSet(4, 50.0)
        plugin, w_pi, w_sigma = make_pq_op()
        n = default_sample_count(iset)
        kappa = []
        for k in (n, 2 * n):
            rho_t, sigma_t = (
                periodic_samples(w_pi, iset, k).real,
                periodic_samples(w_sigma, iset, k).real,
            )
            kappa.append(dft(plugin.evaluate(rho_t, sigma_t), iset))
        assert np.max(np.abs(kappa[1] - kappa[0])) <= 1e-8 * max(1.0, np.max(np.abs(kappa[0])))
        reference_lifts(plugin, w_pi, w_sigma, iset)

    def test_deterministic(self):
        iset = HarmonicIndexSet(3, 50.0)
        first = reference_lifts(*make_pq_op(), iset)
        second = reference_lifts(*make_pq_op(), iset)
        for a, b in zip(first, second):
            assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("hmax, aliased", [(2, True), (4, False)])
    def test_aliasing_check(self, hmax, aliased):
        # v_d swings between 10 and 190 with v_q = 0, so the current
        # reference, through 1/|v|^2, has slowly decaying harmonics: at hmax 2
        # its trajectory aliases, at hmax 4 it does not
        iset = HarmonicIndexSet(hmax, 50.0)
        swing = np.array([45.0, 0.0])
        w_pi = {0: np.array([100.0, 0.0]), 1: swing, -1: swing}
        w_sigma = {0: np.array([5000.0, 1000.0])}
        if aliased:
            with pytest.raises(NumericalError, match="not band-limited enough for this hmax"):
                reference_lifts(PqReference(), w_pi, w_sigma, iset)
        else:
            reference_lifts(PqReference(), w_pi, w_sigma, iset)

    @pytest.mark.parametrize(
        "frame, w_pi, w_sigma, match",
        [
            (np.eye(2), {0: np.ones(3)}, {}, "w_pi at order 0 has 3 channels, the control-frame transform takes 2"),
            (np.eye(2), {}, {1: np.ones(1)}, "setpoint at order 1 has 1 channels, the reference law takes 2"),
            (np.eye(3), {}, {}, "transform gives 3 channels, the reference law takes 2"),
        ],
        ids=["w-pi", "setpoint", "control-frame"],
    )
    def test_widths_checked(self, frame, w_pi, w_sigma, match):
        # each width where the trajectories meet the law and the control-frame lift
        iset = HarmonicIndexSet(2, 50.0)
        ctl_frame_op = toeplitz_from_fourier({0: frame}, iset)
        with pytest.raises(ConfigurationError, match=match):
            make_operating_point(PqReference(), ctl_frame_op, w_pi, w_sigma, iset)

    def test_orders_beyond_hmax_dropped(self):
        iset = HarmonicIndexSet(2, 50.0)
        plugin, w_pi, w_sigma = make_pq_op()
        beyond = reference_lifts(
            plugin, {**w_pi, 3: np.ones(2)}, {**w_sigma, -5: np.ones(2)}, iset
        )
        for a, b in zip(beyond, reference_lifts(plugin, w_pi, w_sigma, iset)):
            assert np.array_equal(a.toarray(), b.toarray())
