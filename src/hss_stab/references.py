"""Reference calculation of a converter and its small-signal lift.

The reference law maps the grid disturbance (expressed in the control
frame) and the setpoint to the control-software disturbance.  It may be
nonlinear; around a periodic operating trajectory it is linearised in
time domain and the Jacobian trajectories are Toeplitz-lifted to CSR
arrays (``toeplitz_from_fourier``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConfigurationError,
    NumericalError,
    ShapeError,
    SingularOperatingPointError,
)
from .harmonic import (
    HarmonicIndexSet,
    HarmonicSignal,
    default_sample_count,
    fourier_from_samples,
    sample_series,
    series_from_samples,
    toeplitz_from_fourier,
)


class ReferencePlugin:
    """Base class: a differentiable reference law with explicit Jacobians.

    ``evaluate`` and the Jacobian methods are vectorised over a leading
    time axis and must be pure functions.
    """

    #: (dim of control-frame grid disturbance, dim of setpoint, dim of reference)
    d_rho: int
    d_sigma: int
    n_ref: int

    def evaluate(self, w_rho: np.ndarray, w_sigma: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jac_rho(self, w_rho: np.ndarray, w_sigma: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jac_sigma(self, w_rho: np.ndarray, w_sigma: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class VfReference(ReferencePlugin):
    """Grid-forming voltage reference: the setpoint is passed through."""

    def __init__(self, channels: int = 2, d_rho: int = 2):
        self.d_rho = d_rho
        self.d_sigma = channels
        self.n_ref = channels

    def evaluate(self, w_rho, w_sigma):
        return np.array(w_sigma, copy=True)

    def jac_rho(self, w_rho, w_sigma):
        n = w_rho.shape[0]
        return np.zeros((n, self.n_ref, self.d_rho))

    def jac_sigma(self, w_rho, w_sigma):
        n = w_rho.shape[0]
        return np.broadcast_to(np.eye(self.n_ref), (n, self.n_ref, self.n_ref)).copy()


class AffineReference(ReferencePlugin):
    """w_kappa = M * w_rho + S * w_sigma with constant matrices."""

    def __init__(self, m_rho: np.ndarray, m_sigma: np.ndarray):
        self.m_rho = np.atleast_2d(np.asarray(m_rho, dtype=float))
        self.m_sigma = np.atleast_2d(np.asarray(m_sigma, dtype=float))
        if self.m_rho.shape[0] != self.m_sigma.shape[0]:
            raise ShapeError("row counts of the two gain matrices differ")
        self.n_ref = self.m_rho.shape[0]
        self.d_rho = self.m_rho.shape[1]
        self.d_sigma = self.m_sigma.shape[1]

    def evaluate(self, w_rho, w_sigma):
        return w_rho @ self.m_rho.T + w_sigma @ self.m_sigma.T

    def jac_rho(self, w_rho, w_sigma):
        return np.broadcast_to(self.m_rho, (w_rho.shape[0],) + self.m_rho.shape).copy()

    def jac_sigma(self, w_rho, w_sigma):
        return np.broadcast_to(self.m_sigma, (w_rho.shape[0],) + self.m_sigma.shape).copy()


class PqReference(ReferencePlugin):
    """Grid-following power reference: current setpoints from instantaneous
    power relations in the control frame.

    With grid voltage v = (v_d, v_q) and setpoint (p, q):

        i_d = (p*v_d + q*v_q) / (v_d^2 + v_q^2)
        i_q = (p*v_q - q*v_d) / (v_d^2 + v_q^2)
    """

    d_rho = 2
    d_sigma = 2
    n_ref = 2

    #: squared-voltage floor below which the law is considered singular
    min_norm = 1e-9

    def _norm(self, w_rho):
        norm = w_rho[..., 0] ** 2 + w_rho[..., 1] ** 2
        if np.min(norm) < self.min_norm:
            raise SingularOperatingPointError(
                "power reference undefined at (near-)zero voltage operating point"
            )
        return norm

    def evaluate(self, w_rho, w_sigma):
        vd, vq = w_rho[..., 0], w_rho[..., 1]
        p, q = w_sigma[..., 0], w_sigma[..., 1]
        norm = self._norm(w_rho)
        return np.stack([(p * vd + q * vq) / norm, (p * vq - q * vd) / norm], axis=-1)

    def jac_rho(self, w_rho, w_sigma):
        vd, vq = w_rho[..., 0], w_rho[..., 1]
        p, q = w_sigma[..., 0], w_sigma[..., 1]
        norm = self._norm(w_rho)
        i_d = (p * vd + q * vq) / norm
        i_q = (p * vq - q * vd) / norm
        jac = np.empty(w_rho.shape[:-1] + (2, 2))
        jac[..., 0, 0] = (p - 2.0 * vd * i_d) / norm
        jac[..., 0, 1] = (q - 2.0 * vq * i_d) / norm
        jac[..., 1, 0] = (-q - 2.0 * vd * i_q) / norm
        jac[..., 1, 1] = (p - 2.0 * vq * i_q) / norm
        return jac

    def jac_sigma(self, w_rho, w_sigma):
        vd, vq = w_rho[..., 0], w_rho[..., 1]
        norm = self._norm(w_rho)
        jac = np.empty(w_rho.shape[:-1] + (2, 2))
        jac[..., 0, 0] = vd / norm
        jac[..., 0, 1] = vq / norm
        jac[..., 1, 0] = vq / norm
        jac[..., 1, 1] = -vd / norm
        return jac


@dataclass(frozen=True)
class OperatingPoint:
    """Periodic trajectory around which the reference law is linearised.

    The reference-side trajectory is always recomputed from the plugin,
    so that its harmonic coefficients are consistent with the evaluate
    function by construction.
    """

    w_pi: HarmonicSignal
    w_sigma: HarmonicSignal
    w_rho: HarmonicSignal
    w_kappa: HarmonicSignal
    residual: float


def make_operating_point(
    plugin: ReferencePlugin,
    ctl_frame_op: sp.csr_array,
    w_pi: HarmonicSignal,
    w_sigma: HarmonicSignal,
    index_set: HarmonicIndexSet,
) -> OperatingPoint:
    """Complete an operating point from the grid-side and setpoint trajectories.

    ``ctl_frame_op`` is the CSR lift of the hardware-to-control transform; it
    maps the hardware-frame trajectory into the frame the reference law acts in.
    """
    w_rho_coeffs = ctl_frame_op @ w_pi.coeffs
    d_rho = ctl_frame_op.shape[0] // index_set.count
    w_rho = HarmonicSignal(index_set, d_rho, w_rho_coeffs)
    if d_rho != plugin.d_rho or w_sigma.channels != plugin.d_sigma:
        raise ConfigurationError(
            f"operating trajectories ({d_rho}, {w_sigma.channels}) do not match "
            f"the reference law dims ({plugin.d_rho}, {plugin.d_sigma})"
        )
    n = default_sample_count(index_set)
    rho_t = w_rho.sample(n).real
    sigma_t = w_sigma.sample(n).real
    kappa_t = plugin.evaluate(rho_t, sigma_t)
    w_kappa = fourier_from_samples(kappa_t, index_set)
    # aliasing residual of the round trip through the sampled evaluate
    check = plugin.evaluate(w_rho.sample(2 * n).real, w_sigma.sample(2 * n).real)
    residual = float(
        np.max(np.abs(fourier_from_samples(check, index_set).coeffs - w_kappa.coeffs))
    )
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(w_kappa.coeffs)))):
        raise NumericalError(
            f"reference trajectory is not band-limited enough for this hmax "
            f"(aliasing residual {residual:.3e})"
        )
    return OperatingPoint(w_pi, w_sigma, w_rho, w_kappa, residual)


def linearize_reference(
    plugin: ReferencePlugin, op: OperatingPoint, index_set: HarmonicIndexSet
) -> tuple[sp.csr_array, sp.csr_array]:
    """Sample the Jacobian trajectories over one period; their lifts R_rho, R_sigma in CSR."""
    n = default_sample_count(index_set)
    rho_t = op.w_rho.sample(n).real
    sigma_t = op.w_sigma.sample(n).real
    r_rho = series_from_samples(plugin.jac_rho(rho_t, sigma_t), index_set)
    r_sigma = series_from_samples(plugin.jac_sigma(rho_t, sigma_t), index_set)
    return (
        toeplitz_from_fourier(r_rho, index_set),
        toeplitz_from_fourier(r_sigma, index_set),
    )

