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


def default_sample_count(index_set: HarmonicIndexSet) -> int:
    # 8x oversampling over the Nyquist requirement keeps aliasing of smooth
    # trajectories far below the numeric tolerances.
    return 8 * index_set.count


def series_from_samples(
    samples: np.ndarray, index_set: HarmonicIndexSet
) -> dict[int, np.ndarray]:
    """Entry-wise DFT of a matrix trajectory, shape (N, m, n) -> {h: (m, n)}.

    Coefficients are retained for |h| <= hmax.  Those at or below
    ``CONSTRUCTION_TOL`` times the largest retained coefficient are FFT
    rounding, about 1e-16 of it, and are set to zero, so that a lift does
    not store them.
    """
    samples = np.asarray(samples)
    if samples.ndim != 3:
        raise ShapeError(f"matrix trajectory must have shape (N, m, n), got {samples.shape}")
    n = samples.shape[0]
    if n < 2 * index_set.count:
        raise ShapeError(f"{n} samples insufficient for hmax={index_set.hmax}")
    orders = range(-index_set.hmax, index_set.hmax + 1)
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
