"""Reference calculation of a converter and its small-signal lift.

The reference law maps the grid disturbance (expressed in the control
frame) and the setpoint to the control-software disturbance.  It may be
nonlinear; around a periodic operating trajectory it is linearised in
time domain and the Jacobian trajectories are Toeplitz-lifted to CSR
arrays (``toeplitz_from_fourier``).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import (
    ConfigurationError,
    NumericalError,
    ShapeError,
    SingularOperatingPointError,
)
from .harmonic import (
    HarmonicIndexSet,
    default_sample_count,
    series_from_samples,
    toeplitz_from_fourier,
)
from .sparse import Csr


class ReferencePlugin:
    """Base class: a differentiable reference law with explicit Jacobians.

    ``evaluate`` and the Jacobian methods are vectorised over a leading
    time axis and must be pure functions.
    """

    #: dims of the control-frame grid disturbance, the setpoint and the output
    d_rho: int
    d_sigma: int
    d_kappa: int

    def evaluate(self, w_rho: np.ndarray, w_sigma: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jac_rho(self, w_rho: np.ndarray, w_sigma: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jac_sigma(self, w_rho: np.ndarray, w_sigma: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class AffineReference(ReferencePlugin):
    """w_kappa = M * w_rho + S * w_sigma with constant matrices."""

    def __init__(self, m_rho: np.ndarray, m_sigma: np.ndarray):
        self.m_rho = np.atleast_2d(np.asarray(m_rho, dtype=float))
        self.m_sigma = np.atleast_2d(np.asarray(m_sigma, dtype=float))
        if self.m_rho.shape[0] != self.m_sigma.shape[0]:
            raise ShapeError("row counts of the two gain matrices differ")
        self.d_kappa, self.d_rho = self.m_rho.shape
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
    d_kappa = 2

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


def make_operating_point(
    plugin: ReferencePlugin,
    ctl_frame_op: Csr,
    w_pi: Mapping[int, np.ndarray],
    w_sigma: Mapping[int, np.ndarray],
    index_set: HarmonicIndexSet,
    state_only: bool = False,
) -> tuple[Csr, Csr | None]:
    """The lifts R_rho, R_sigma (CSR) of the reference law's Jacobians along
    the operating trajectories; with ``state_only`` R_sigma, which only the
    sigma and o ports read, is None.

    ``w_pi`` (hardware frame) and ``w_sigma`` (the setpoint) are
    {order: channel vector} maps, as the scenario gives them; orders beyond
    hmax are dropped, and absent orders are zero.  ``ctl_frame_op`` is the
    CSR lift of the hardware-to-control transform; it maps w_pi into the
    frame the reference law acts in.  The trajectories are sampled once, at
    twice the default count; the Jacobians are read at every other sample.
    The law's own trajectory w_kappa, from both sample counts, must agree to
    1e-8 of its size: else it is not band-limited enough for the harmonic
    grid.
    """
    count = index_set.count
    d_rho, d_pi = ctl_frame_op.shape[0] // count, ctl_frame_op.shape[1] // count
    if d_rho != plugin.d_rho:
        raise ConfigurationError(
            f"control-frame transform gives {d_rho} channels, "
            f"the reference law takes {plugin.d_rho}"
        )
    pi = _stack(w_pi, d_pi, index_set, "w_pi", "control-frame transform")
    sigma = _stack(w_sigma, plugin.d_sigma, index_set, "setpoint", "reference law")
    w_rho = (ctl_frame_op @ pi.reshape(-1)).reshape(count, d_rho)
    # one uniform sampling of the period at twice the default count
    n = 2 * default_sample_count(index_set)
    t = np.arange(n) / (n * index_set.f1)
    phases = np.exp(2j * np.pi * index_set.f1 * np.outer(t, index_set.orders))
    rho_2n, sigma_2n = (phases @ w_rho).real, (phases @ sigma).real
    rho_t, sigma_t = rho_2n[::2], sigma_2n[::2]

    def w_kappa(rho, sigma):
        series = series_from_samples(plugin.evaluate(rho, sigma)[..., None], index_set)
        return np.stack(list(series.values()))

    coeffs = w_kappa(rho_t, sigma_t)
    residual = float(np.max(np.abs(w_kappa(rho_2n, sigma_2n) - coeffs)))
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(coeffs)))):
        raise NumericalError(
            f"reference trajectory is not band-limited enough for this hmax "
            f"(aliasing residual {residual:.3e})"
        )
    r_rho = series_from_samples(plugin.jac_rho(rho_t, sigma_t), index_set)
    r_rho = toeplitz_from_fourier(r_rho, index_set)
    if state_only:
        return r_rho, None
    r_sigma = series_from_samples(plugin.jac_sigma(rho_t, sigma_t), index_set)
    return r_rho, toeplitz_from_fourier(r_sigma, index_set)


def _stack(
    harmonics: Mapping[int, np.ndarray],
    channels: int,
    index_set: HarmonicIndexSet,
    name: str,
    taker: str,
) -> np.ndarray:
    """The coefficients of ``harmonics`` on the harmonic grid, shape (count, channels)."""
    stack = np.zeros((index_set.count, channels), dtype=complex)
    for h, vec in harmonics.items():
        if np.shape(vec) != (channels,):
            raise ConfigurationError(
                f"{name} at order {h} has {np.size(vec)} channels, the {taker} takes {channels}"
            )
        if abs(h) <= index_set.hmax:  # orders beyond the grid are not representable
            stack[index_set.order_index(h)] = vec
    return stack
