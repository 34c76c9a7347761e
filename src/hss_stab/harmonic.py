"""Fourier-series and block-Toeplitz machinery.

Time-periodic signals are stored as column stacks of complex Fourier
coefficients over the harmonic orders -hmax..+hmax (ascending, "h-major":
all channels of the most negative order come first).  A matrix-valued
Fourier series lifts to a plain ``scipy.sparse.csr_array`` whose (i, k)
block is the coefficient at order i - k; multiplication by that lift
realises the time-domain product as a spectral convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, ShapeError

#: coefficients produced by exact constructions must match to this
CONSTRUCTION_TOL = 1e-14
#: sampled/DFT-based oracles are trusted to this accuracy
NUMERIC_TOL = 1e-9
#: absolute tolerance for the conjugate-symmetry (real signal) check
CONJ_SYM_TOL = 1e-12


@dataclass(frozen=True)
class HarmonicIndexSet:
    """Truncated set of harmonic orders {-hmax..+hmax} at fundamental f1 [Hz]."""

    hmax: int
    f1: float

    def __post_init__(self):
        if self.hmax < 0:
            raise ConfigurationError(f"hmax must be >= 0, got {self.hmax}")
        if not self.f1 > 0:
            raise ConfigurationError(f"f1 must be > 0, got {self.f1}")

    @property
    def count(self) -> int:
        return 2 * self.hmax + 1

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.hmax, self.hmax + 1)

    @property
    def omega1(self) -> float:
        """Fundamental angular frequency 2*pi*f1 [rad/s]."""
        return 2.0 * np.pi * self.f1

    def order_index(self, h: int) -> int:
        if abs(h) > self.hmax:
            raise ShapeError(f"order {h} outside +-{self.hmax}")
        return h + self.hmax

    def block_slice(self, h: int, dim: int) -> slice:
        i = self.order_index(h)
        return slice(i * dim, (i + 1) * dim)


def default_sample_count(index_set: HarmonicIndexSet) -> int:
    # 8x oversampling over the Nyquist requirement keeps aliasing of smooth
    # trajectories far below the numeric tolerances.
    return 8 * index_set.count


@dataclass(frozen=True)
class HarmonicSignal:
    """Column stack of Fourier coefficients of an n-channel periodic signal."""

    index_set: HarmonicIndexSet
    channels: int
    coeffs: np.ndarray
    real_valued: bool = False

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        object.__setattr__(self, "coeffs", coeffs)
        expected = self.index_set.count * self.channels
        if self.channels < 1:
            raise ShapeError("channels must be >= 1")
        if coeffs.shape != (expected,):
            raise ShapeError(
                f"coefficient vector has length {coeffs.shape[0]}, expected {expected}"
            )
        if self.real_valued:
            err = self._conjugate_symmetry_error()
            if err > CONJ_SYM_TOL:
                raise ShapeError(
                    f"signal flagged real-valued but X(-h) != conj(X(+h)); "
                    f"max deviation {err:.3e}"
                )

    def _conjugate_symmetry_error(self) -> float:
        stack = self.coeffs.reshape(self.index_set.count, self.channels)
        return float(np.max(np.abs(stack[::-1] - np.conj(stack))))

    def coeff(self, h: int) -> np.ndarray:
        """Coefficient vector (one entry per channel) at order h."""
        return self.coeffs[self.index_set.block_slice(h, self.channels)]

    def sample(self, n_samples: int | None = None) -> np.ndarray:
        """Reconstruct one fundamental period on a uniform grid, shape (N, channels)."""
        n = n_samples or default_sample_count(self.index_set)
        t = np.arange(n) / (n * self.index_set.f1)
        stack = self.coeffs.reshape(self.index_set.count, self.channels)
        phases = np.exp(
            2j * np.pi * self.index_set.f1 * np.outer(t, self.index_set.orders)
        )
        out = phases @ stack
        if self.real_valued:
            return out.real
        return out


def fourier_from_samples(samples: np.ndarray, index_set: HarmonicIndexSet) -> HarmonicSignal:
    """DFT of uniform samples over exactly one fundamental period.

    ``samples`` has shape (N,) or (N, channels); N must be at least twice
    the number of retained orders.  Real input yields a signal flagged
    conjugate-symmetric.
    """
    samples = np.asarray(samples)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2:
        raise ShapeError(f"samples must be 1-D or 2-D, got shape {samples.shape}")
    n, channels = samples.shape
    if n < 2 * index_set.count:
        raise ShapeError(
            f"{n} samples insufficient for hmax={index_set.hmax}; "
            f"need at least {2 * index_set.count}"
        )
    real_input = not np.iscomplexobj(samples)
    spec = np.fft.fft(samples, axis=0) / n
    stack = np.empty((index_set.count, channels), dtype=complex)
    for h in index_set.orders:
        stack[index_set.order_index(h)] = spec[h % n]
    if real_input:
        # the FFT of real samples is conjugate-symmetric only up to rounding;
        # symmetrise so the real-signal invariant holds exactly
        stack = 0.5 * (stack + np.conj(stack[::-1]))
    return HarmonicSignal(index_set, channels, stack.reshape(-1), real_valued=real_input)


def series_from_samples(
    samples: np.ndarray, index_set: HarmonicIndexSet, order: int | None = None
) -> dict[int, np.ndarray]:
    """Entry-wise DFT of a matrix trajectory, shape (N, m, n) -> {h: (m, n)}.

    Coefficients are retained for |h| <= order (default hmax).  Those at or
    below ``CONSTRUCTION_TOL`` times the largest retained coefficient are
    FFT rounding, about 1e-16 of it, and are set to zero, so that a lift
    does not store them.
    """
    samples = np.asarray(samples)
    if samples.ndim != 3:
        raise ShapeError(f"matrix trajectory must have shape (N, m, n), got {samples.shape}")
    n = samples.shape[0]
    if n < 2 * index_set.count:
        raise ShapeError(f"{n} samples insufficient for hmax={index_set.hmax}")
    hc = index_set.hmax if order is None else order
    orders = range(-hc, hc + 1)
    coeffs = (np.fft.fft(samples, axis=0) / n)[np.asarray(orders) % n]
    coeffs[np.abs(coeffs) <= CONSTRUCTION_TOL * np.max(np.abs(coeffs), initial=0.0)] = 0.0
    return dict(zip(orders, coeffs))


def sample_series(
    series: Mapping[int, np.ndarray], index_set: HarmonicIndexSet, n_samples: int | None = None
) -> np.ndarray:
    """Evaluate a matrix-valued Fourier series on one period, shape (N, m, n)."""
    n = n_samples or default_sample_count(index_set)
    t = np.arange(n) / (n * index_set.f1)
    mats = normalize_series(series)
    shape = next(iter(mats.values())).shape
    out = np.zeros((n,) + shape, dtype=complex)
    for h, a in mats.items():
        out += np.exp(2j * np.pi * index_set.f1 * h * t)[:, None, None] * a
    return out


def normalize_series(series: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """{int order: complex 2-D coefficient}, all of one shape; empty series are rejected."""
    out = {}
    shape = None
    for h, a in series.items():
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        if a.ndim != 2:
            raise ShapeError(f"coefficient at order {h} is not a matrix")
        if shape is None:
            shape = a.shape
        elif a.shape != shape:
            raise ShapeError(
                f"coefficient at order {h} has shape {a.shape}, others have {shape}"
            )
        out[int(h)] = a
    if shape is None:
        raise ShapeError("empty Fourier series")
    return out


def toeplitz_from_fourier(
    series: Mapping[int, np.ndarray], index_set: HarmonicIndexSet
) -> sp.csr_array:
    """The block-Toeplitz lift of a Fourier series, as a CSR array.

    Block (i, k) of the result equals the series coefficient at order
    i - k; orders absent from the series give zero blocks.  Series orders
    beyond hmax are rejected: truncation is the caller's decision.

    One pass, with no sort: block row i holds the coefficients of orders
    hc, ..., -hc side by side from block column i - hc on, so the nonzeros
    of that band, shifted along the block rows and cut at the matrix
    edges (the truncation), are the entries in CSR order.  No zero is
    stored, and entries are only copied, so every block holds its
    coefficient bit for bit.
    """
    mats = normalize_series(series)
    hc = max(abs(h) for h in mats)
    if hc > index_set.hmax:
        raise ShapeError(
            f"series contains order {hc} > hmax={index_set.hmax}; truncate explicitly"
        )
    m, n = next(iter(mats.values())).shape
    count = index_set.count
    zero = np.zeros((m, n), complex)
    band = np.hstack([mats.get(h, zero) for h in range(hc, -hc - 1, -1)])
    r, c = np.nonzero(band)
    i = np.arange(count)[:, None]
    cols = (i - hc) * n + c
    keep = (cols >= 0) & (cols < count * n)
    rows = (i * m + r)[keep]
    data = np.broadcast_to(band[r, c], keep.shape)[keep]
    indptr = np.searchsorted(rows, np.arange(count * m + 1))
    return sp.csr_array((data, cols[keep], indptr), shape=(count * m, count * n))


def toeplitz_identity(index_set: HarmonicIndexSet, dim: int) -> sp.csr_array:
    return toeplitz_from_fourier({0: np.eye(dim)}, index_set)


def omega_diagonal(index_set: HarmonicIndexSet, block_dim: int) -> np.ndarray:
    """Diagonal of the frequency shift Omega = 2*pi*f1*diag_h(h), block_dim entries per order."""
    return np.repeat(index_set.omega1 * index_set.orders.astype(float), block_dim)


def node_major_order(count: int, dims) -> np.ndarray:
    """Index array p with v_node_major = v_harmonic_major[p].

    A harmonic-major vector stacks, for each of the ``count`` orders, the
    channels of every node (``dims[k]`` channels for node k) in node order;
    the node-major vector holds all orders of node 0, then of node 1, ...
    Every ``HssModel`` keeps its state harmonic-major, so a block-diagonal
    stack of subsystems, which is node-major, is re-interleaved with this
    map; ports grouped per node use it the other way round.  A zero-width
    node adds no indices.
    """
    node = np.repeat(np.arange(len(dims)), np.asarray(dims, dtype=int))
    # harmonic-major positions sorted stably by node: within a node they already run by order
    return np.argsort(np.tile(node, count), kind="stable")
