"""Generic harmonic state-space model container.

An ``HssModel`` holds the quadruple (A, E, C, F) over stacked Fourier
coefficients, with E and F keyed per disturbance port.  The Laplace
variable is never stored: callers assemble s*I + j*Omega at evaluation
sites (transfer functions, eigenvalue problems).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, ShapeError
from .harmonic import HarmonicIndexSet, node_major_order, toeplitz_from_fourier


@dataclass(frozen=True)
class HssModel:
    """Quadruple (A, E, C, F) over the stacked Fourier coefficients.

    Representation rule: every model an assembly builds holds CSR
    matrices, because a Toeplitz lift couples only nearby harmonics: the
    per-resource leaves and their internal loops, the grid lift, the
    stacked resources, the open loop and every closed loop, the system
    closed loop that ``assemble`` returns included.  Only
    ``assemble_system``, a view for readers that take ndarrays, densifies
    that one (``dense``).  Either form is valid input to the analysis
    functions: ``evaluate_htf`` and the eigen solve both read A - j*Omega
    from one CSR construction that takes a dense or a CSR A
    (``analysis._shifted_csr``).

    The state is stacked h-major.  The order of disturbance columns and
    output rows is the builder's to document (the grid lift and the
    resources group the gamma port per node); the model does not record it.

    ``phase_triples`` lists the first state channel of each abc phase
    triple (channels t, t+1, t+2).  The eigen solve reads it to split the
    spectrum by symmetrical components; a triple that is not balanced
    costs speed there, never accuracy.
    """

    index_set: HarmonicIndexSet
    a: np.ndarray | sp.csr_array
    e: Mapping[str, np.ndarray | sp.csr_array]
    c: np.ndarray | sp.csr_array
    f: Mapping[str, np.ndarray | sp.csr_array]
    state_names: tuple[str, ...]
    phase_triples: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "e", MappingProxyType(dict(self.e)))
        object.__setattr__(self, "f", MappingProxyType(dict(self.f)))
        object.__setattr__(self, "state_names", tuple(self.state_names))
        object.__setattr__(
            self, "phase_triples", check_phase_triples(self.phase_triples, self.state_channels)
        )
        n = self.state_dim
        if self.a.shape != (n, n):
            raise ShapeError(f"A has shape {self.a.shape}, state dim is {n}")
        if set(self.e) != set(self.f):
            raise ShapeError("E and F must share the same port names")
        ny = self.c.shape[0]
        if self.c.shape != (ny, n):
            raise ShapeError(f"C has shape {self.c.shape}, expected ({ny}, {n})")
        for port, mat in self.e.items():
            if mat.shape[0] != n:
                raise ShapeError(f"E[{port}] has {mat.shape[0]} rows, expected {n}")
            if self.f[port].shape != (ny, mat.shape[1]):
                raise ShapeError(
                    f"F[{port}] has shape {self.f[port].shape}, expected ({ny}, {mat.shape[1]})"
                )

    @property
    def state_channels(self) -> int:
        return len(self.state_names)

    @property
    def state_dim(self) -> int:
        return self.index_set.count * self.state_channels

    @property
    def output_dim(self) -> int:
        return self.c.shape[0]

    @property
    def ports(self) -> tuple[str, ...]:
        return tuple(self.e.keys())

    def port_dim(self, port: str) -> int:
        return self.e[port].shape[1]

    def dense(self) -> "HssModel":
        """The same CSR-held model with every matrix as a dense ndarray;
        only ``assemble_system`` and tests call it."""
        return replace(
            self,
            a=self.a.toarray(),
            e={p: m.toarray() for p, m in self.e.items()},
            c=self.c.toarray(),
            f={p: m.toarray() for p, m in self.f.items()},
        )

    def with_ports(self, ports: tuple[str, ...]) -> "HssModel":
        """The same model with only the given disturbance ports; no matrix is copied."""
        return replace(
            self, e={p: self.e[p] for p in ports}, f={p: self.f[p] for p in ports}
        )

    def state_labels(self) -> tuple[tuple[str, int], ...]:
        """(channel name, harmonic order) for every row of the stacked state."""
        return tuple(
            (name, int(h))
            for h in self.index_set.orders
            for name in self.state_names
        )


def lift_ltp(
    a_series: Mapping[int, np.ndarray],
    e_series: Mapping[str, Mapping[int, np.ndarray]],
    c_series: Mapping[int, np.ndarray],
    f_series: Mapping[str, Mapping[int, np.ndarray]],
    index_set: HarmonicIndexSet,
    state_names: tuple[str, ...],
    phase_triples: tuple[int, ...] = (),
) -> HssModel:
    """Toeplitz-lift a time-domain LTP quadruple onto the harmonic grid."""
    a = toeplitz_from_fourier(a_series, index_set)
    e = {p: toeplitz_from_fourier(s, index_set) for p, s in e_series.items()}
    c = toeplitz_from_fourier(c_series, index_set)
    f = {p: toeplitz_from_fourier(s, index_set) for p, s in f_series.items()}
    if a.shape[0] != a.shape[1]:
        raise ShapeError("state matrix series must be square")
    if len(state_names) != a.shape[0] // index_set.count:
        raise ShapeError(
            f"{len(state_names)} state names for {a.shape[0] // index_set.count} state channels"
        )
    return HssModel(
        index_set=index_set,
        a=a,
        e=e,
        c=c,
        f=f,
        state_names=state_names,
        phase_triples=phase_triples,
    )


def check_phase_triples(triples, channels: int, what: str = "model") -> tuple[int, ...]:
    """``triples`` as a sorted tuple, each triple inside ``channels`` and
    disjoint from the others."""
    triples = tuple(sorted(int(t) for t in triples))
    if triples and (triples[0] < 0 or triples[-1] + 3 > channels):
        raise ShapeError(f"{what}: phase triples {triples} exceed {channels} state channels")
    if any(b - a < 3 for a, b in zip(triples, triples[1:])):
        raise ShapeError(f"{what}: phase triples {triples} overlap")
    return triples


def stack_phase_triples(parts) -> tuple[int, ...]:
    """Phase triples of a stack of parts given as (channels, triples) pairs:
    each part's triples move by the channels of the parts before it."""
    out, offset = [], 0
    for channels, triples in parts:
        out += [offset + t for t in triples]
        offset += channels
    return tuple(out)


def check_same_grid(models, what="models") -> HarmonicIndexSet:
    """All models must share (hmax, f1); returns the common index set."""
    sets = {m.index_set for m in models}
    if len(sets) != 1:
        raise ConfigurationError(f"{what} use different harmonic grids: {sets}")
    return next(iter(sets))


def block_diag_csr(mats, rows=None, cols=None) -> sp.csr_array:
    """Complex CSR block diagonal of dense or sparse blocks, with row r of
    ``block_diag(mats)`` moved to ``rows[r]`` and column c to ``cols[c]``.

    One pass: the entries of every block (the nonzeros of a dense one, the
    stored ones of a sparse one), offset by the rows and columns of the
    blocks before it, are concatenated, mapped through ``rows`` and
    ``cols``, and built into one CSR array without stored zeros (duplicate
    entries of a sparse block are summed).  ``rows``
    and ``cols`` must be permutations.  Entries are only copied, so the
    result holds the blocks' values bit for bit.
    """
    parts, n_rows, n_cols = [], 0, 0
    for mat in mats:
        if sp.issparse(mat):
            coo = mat.tocoo()
            row, col, data = coo.row, coo.col, coo.data
        else:
            mat = np.asarray(mat)
            row, col = np.nonzero(mat)
            data = mat[row, col]
        parts.append((row + n_rows, col + n_cols, data))
        n_rows += mat.shape[0]
        n_cols += mat.shape[1]
    row, col, data = (np.concatenate(x) for x in zip(*parts))
    row = row if rows is None else rows[row]
    col = col if cols is None else cols[col]
    out = sp.csr_array((data.astype(complex), (row, col)), shape=(n_rows, n_cols))
    out.eliminate_zeros()  # a sparse block may store zeros
    return out


def component_labels(n: int, rows, cols) -> np.ndarray:
    """Weakly connected component of each of ``n`` vertices joined by the
    edges ``rows[k]``--``cols[k]``, numbered in the order of their smallest
    vertex, as ``scipy.sparse.csgraph.connected_components`` numbers them.

    Hook and jump.  Every vertex points to a smaller vertex of its tree,
    and a root to itself, so a root is its tree's smallest vertex.  Each
    round points every root at the smallest root an edge joins it to, when
    that one is smaller, and then every vertex at its root.  Trees only
    merge, so an edge whose ends share a root is dropped.
    """
    parent = np.arange(n)
    # one index type throughout: np.minimum.at is several times slower on mixed ones
    a, b = np.asarray(rows, np.intp), np.asarray(cols, np.intp)
    while a.size:
        np.minimum.at(parent, a, b)
        np.minimum.at(parent, b, a)
        while not np.array_equal(root := parent[parent], parent):
            parent = root
        a, b = parent[a], parent[b]
        joins = a != b
        a, b = a[joins], b[joins]
    return np.cumsum(parent == np.arange(n))[parent] - 1


def stack_models(models) -> HssModel:
    """Block-diagonal composition of HSS models, held in CSR.

    Disturbance columns concatenate per port (a port a model lacks adds no
    columns) and outputs stack in model order; the stacked state is
    re-interleaved h-major.
    """
    index_set = check_same_grid(models)
    idx = node_major_order(index_set.count, [m.state_channels for m in models])
    ports = tuple(dict.fromkeys(p for m in models for p in m.ports))
    return HssModel(
        index_set=index_set,
        a=block_diag_csr([m.a for m in models], idx, idx),
        e={
            p: block_diag_csr([m.e.get(p, np.zeros((m.state_dim, 0))) for m in models], idx)
            for p in ports
        },
        c=block_diag_csr([m.c for m in models], cols=idx),
        f={
            p: block_diag_csr([m.f.get(p, np.zeros((m.output_dim, 0))) for m in models])
            for p in ports
        },
        state_names=tuple(name for m in models for name in m.state_names),
        phase_triples=stack_phase_triples((m.state_channels, m.phase_triples) for m in models),
    )
