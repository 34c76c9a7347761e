"""Eigenvalue analysis of harmonic state-space models.

Covers the spectrum of A - j*Omega, transfer-function evaluation,
assignment-based eigenvalue tracking along parameter sweeps, the
invariance classification of eigenvalues, truncation-artefact detection
and folding of the ladder spectrum to the fundamental strip.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, HssError, NumericalError, PoleProximityError, ShapeError
from .harmonic import omega_diagonal
from .model import HssModel, component_labels
from .pipeline import assemble

RESIDUAL_TOL = 1e-8
#: largest conjugate-symmetry defect max|P conj(M) P - M| / max|M| at which
#: the spectrum of M = A - j*Omega is solved in real form; it sits at the
#: backward error of the dense solver itself, so the discarded imaginary
#: part moves no eigenvalue by more than the solver's own rounding does
REAL_FORM_TOL = 1e-12
#: an eigenvalue counts as unstable only when its real part exceeds the
#: margin by this fraction of the largest |Re| in the spectrum: about 100
#: times the rounding noise that leaves truncation-rim modes at Re ~ +1e-12
VERDICT_RTOL = 1e-10
#: eigenvector columns per chunk of the back-map's normalisation and of the
#: residual products, which bounds their temporaries
_CHUNK_COLUMNS = 128
#: scratch bytes of one chunk of mode-to-probe distances in ``detect_spurious``
_SCRATCH_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class Partition:
    """The unitary similarity a spectrum was solved in (``form``: "sequence",
    "parity" or "complex") and the row index sets of the diagonal blocks its
    matrix decouples into.  ``classes[k]`` is the solved block whose
    spectrum, shifted, block k took (k itself when block k was solved; see
    ``_solve_spectrum``).  Equality reads the form and the rows alone.
    """

    form: str
    rows: tuple[np.ndarray, ...]
    classes: tuple[int, ...] = ()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.form == other.form
            and len(self.rows) == len(other.rows)
            and all(np.array_equal(a, b) for a, b in zip(self.rows, other.rows))
        )


@dataclass(frozen=True)
class Spectrum:
    """Spectrum of A - j*Omega and the decoupled block each eigenvalue was
    solved in: ``block[i]`` indexes ``partition.rows``."""

    eigenvalues: np.ndarray
    block: np.ndarray
    partition: Partition

    def reordered(self, order) -> "Spectrum":
        """The same eigenvalues, with their blocks, in the order given by ``order``."""
        return replace(self, eigenvalues=self.eigenvalues[order], block=self.block[order])


@dataclass(frozen=True)
class EigenSolution(Spectrum):
    """Full spectrum of A - j*Omega with unit-norm right eigenvectors.

    ``vectors`` holds the eigenvectors as the columns of a CSC array that
    stores only each eigenvector's support: the rows its diagonal block of
    the eigen solve maps back to.  ``reordered`` keeps eigenvalues, blocks
    and vectors together.
    """

    vectors: sp.csc_array
    labels: tuple[tuple[str, int], ...]

    def reordered(self, order) -> "EigenSolution":
        return replace(super().reordered(order), vectors=self.vectors[:, order])

    def energy_by(self, group: np.ndarray, groups: int) -> np.ndarray:
        """Eigenvector energy |v|^2 summed per row group, shape (groups, n).

        ``group[r]`` in ``range(groups)`` is the group of state row r.
        """
        v = self.vectors
        n = v.shape[1]
        flat = np.bincount(
            group[v.indices] * n + _column_ids(v.indptr),
            weights=np.abs(v.data) ** 2,
            minlength=groups * n,
        )
        return flat.reshape(groups, n)


def spectral_order(eigenvalues: np.ndarray, descending: bool = False) -> np.ndarray:
    """Indices that sort ``eigenvalues`` by real part, then imaginary part.

    Real parts that lie within ``VERDICT_RTOL`` times the largest |Re| of
    their neighbour in sorted order count as equal, so copies of one mode
    whose real parts differ only by rounding sort by Im alone.
    ``descending`` puts the largest real part first.
    """
    lam = np.asarray(eigenvalues, complex)
    re = -lam.real if descending else lam.real
    by_re = np.argsort(re, kind="stable")
    tol = VERDICT_RTOL * float(np.max(np.abs(re), initial=0.0))
    tier = np.empty(lam.size, int)
    tier[by_re] = np.cumsum(np.diff(re[by_re], prepend=-np.inf) > tol)
    return np.lexsort((lam.imag, tier))


def by_real_part(solution: EigenSolution) -> EigenSolution:
    """``solution`` in ``spectral_order``."""
    return solution.reordered(spectral_order(solution.eigenvalues))


def _shifted_csr(model: HssModel) -> sp.csr_array:
    """A - j*Omega in CSR, from a dense or a CSR A, storing exactly its
    nonzero entries: entries that cancel to zero are dropped."""
    shift = 1j * omega_diagonal(model.index_set, model.state_channels)
    m = sp.csr_array(model.a, dtype=complex) - sp.diags_array(shift, format="csr")
    m.eliminate_zeros()
    return m


def _compressed_columns(data: np.ndarray, indices: np.ndarray, counts: np.ndarray):
    """A square CSC array from its stored entries in column order and their
    count per column, with 32-bit indices where they fit."""
    n = counts.size
    index = sp.get_index_dtype(maxval=max(n, data.size))
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(index)
    return sp.csc_array((data, indices.astype(index), indptr), shape=(n, n))


def _decoupled_blocks(a: sp.csr_array) -> list[np.ndarray]:
    """Ascending index sets of the diagonal blocks ``a`` decouples into.

    The blocks are the weakly connected components of the nonzero pattern,
    so no entry of ``a`` couples two of them.
    """
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    labels = component_labels(a.shape[0], rows, a.indices)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def _largest(blocks: list[np.ndarray]) -> int:
    return max(b.size for b in blocks)


def _dense_blocks(a: sp.csr_array, blocks: list[np.ndarray]):
    """Yield ``a[rows][:, rows]`` densely for each of the ``blocks``, the
    index sets ``_decoupled_blocks`` split ``a`` into, from one pass over
    its entries; no entry of ``a`` lies outside these blocks."""
    label = np.empty(a.shape[0], int)
    pos = np.empty(a.shape[0], int)
    for k, rows in enumerate(blocks):
        label[rows] = k
        pos[rows] = np.arange(rows.size)
    coo = a.tocoo()
    coo.sum_duplicates()
    order = np.argsort(label[coo.row], kind="stable")
    bounds = np.searchsorted(label[coo.row[order]], np.arange(len(blocks) + 1))
    for k, rows in enumerate(blocks):
        take = order[bounds[k] : bounds[k + 1]]
        block = np.zeros((rows.size, rows.size), a.dtype)
        block[pos[coo.row[take]], pos[coo.col[take]]] = coo.data[take]
        yield block


def _parity_form(model: HssModel, m: sp.csr_array):
    """``(T^H M T, T, "parity")`` in real form, or ``(M, I, "complex")`` when
    M has no real form.

    A real trajectory A(t) makes M conjugate-symmetric under the harmonic
    flip P (order h -> -h, channel kept): P conj(M) P = M.  The unitary
    T = e^{-j pi/4} (I + j P) / sqrt(2) then makes
    T^H M T = (M + j M P - j P M + P M P) / 2 real, so the real solver
    (dgeev) does the work of the costlier complex one (zgeev).  A model
    whose defect exceeds ``REAL_FORM_TOL`` keeps its complex form.
    """
    n = m.shape[0]
    eye = sp.eye_array(n, dtype=complex, format="csr")
    p = np.arange(n).reshape(model.index_set.count, -1)[::-1].ravel()
    mpp = m[p][:, p]
    defect = (mpp.conj() - m).data
    if np.max(np.abs(defect), initial=0.0) > REAL_FORM_TOL * np.max(np.abs(m.data), initial=0.0):
        return m, eye, "complex"
    a = 0.5 * (m.real + mpp.real - m.imag[:, p] + m.imag[p, :])
    a.eliminate_zeros()
    return a, np.exp(-0.25j * np.pi) / np.sqrt(2.0) * (eye + 1j * eye[p]), "parity"


#: columns: the zero, positive and negative sequence of an abc triple
FORTESCUE = np.exp(-2j * np.pi / 3 * np.outer([0, 1, 2], [0, 1, -1])) / np.sqrt(3.0)


def _sequence_form(model: HssModel, m: sp.csr_array):
    """``(U^H M U, U, "sequence")`` with U the symmetrical-component unitary.

    U is block diagonal: ``FORTESCUE`` on each declared phase triple at
    each harmonic, identity on the other channels.  Entries of U^H M U at
    or below ``REAL_FORM_TOL * max|M|`` are rounding residue of exact
    zeros for a balanced triple; dropping them perturbs M no more than the
    dense solver's own backward error, by the argument of ``_parity_form``.
    """
    per_order = np.eye(model.state_channels, dtype=complex)
    for t in model.phase_triples:
        per_order[t : t + 3, t : t + 3] = FORTESCUE
    u = sp.kron(sp.eye_array(model.index_set.count), sp.csr_array(per_order), format="csr")
    s = (u.conj().T @ m @ u).tocsr()
    s.data[np.abs(s.data) <= REAL_FORM_TOL * np.max(np.abs(m.data), initial=0.0)] = 0.0
    s.eliminate_zeros()
    return s, u, "sequence"


def _back_map(t: sp.csc_array, y: sp.csc_array) -> sp.csc_array:
    """Unit-norm columns of V = T Y, in CSC with ascending rows.

    Column j of ``y`` holds eigenvector j of T^H M T on the rows of its
    diagonal block, so column j of T Y is an eigenvector of M, stored on
    the rows T maps that block to.  Each squared norm sums Re(conj(v) v)
    in row order, as ``np.linalg.norm`` of a dense column does, so the
    columns equal the dense back-map's bit for bit.  The columns are
    normalised in place, ``_CHUNK_COLUMNS`` at a time, which bounds the
    temporaries.
    """
    v = t @ y
    v.sort_indices()
    for start in range(0, v.shape[1], _CHUNK_COLUMNS):
        ends = v.indptr[start : start + _CHUNK_COLUMNS + 1]
        d = v.data[ends[0] : ends[-1]]
        cols = _column_ids(ends)
        norms = np.sqrt(np.bincount(cols, weights=(d.conj() * d).real, minlength=ends.size - 1))
        norms[norms == 0] = 1.0
        d /= norms[cols]
    return v


def _column_ids(indptr: np.ndarray) -> np.ndarray:
    """The column of every stored entry of a CSC array with ``indptr``,
    counted from the first column it covers."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _similarity(model: HssModel, m: sp.csr_array):
    """``(T^H M T, T, form, diagonal blocks of T^H M T)`` for the unitary
    similarity the spectrum of M is solved in:

    * the sequence form (``_sequence_form``) when the model declares phase
      triples and its split then yields a smaller largest block; each
      block is solved in complex form;
    * otherwise the real form (``_parity_form``).

    The parity form is built only when the largest sequence block is not
    smaller than M's own largest block, which bounds the parity split's
    from below: the flip joins harmonics h and -h.  Where M already couples
    them (``two_node`` and ``four_cider_six_node``), the parity split is as
    coarse as M's.  Where it does not, the parity split is coarser:
    ``rlc_grid`` at hmax >= 1 has 2-state blocks in M and 4-state ones in
    parity form, and keeps the sequence form (2 states); ``toy_gain``, which
    declares no triples, has 1 and 2 and takes the parity form at every
    hmax.  Both forms are exact.
    """
    form = _sequence_form(model, m) if model.phase_triples else None
    blocks = _decoupled_blocks(form[0]) if form else None
    if form is None or _largest(blocks) >= _largest(_decoupled_blocks(m)):
        parity = _parity_form(model, m)
        parity_blocks = _decoupled_blocks(parity[0])
        if form is None or _largest(blocks) >= _largest(parity_blocks):
            form, blocks = parity, parity_blocks
    return (*form, blocks)


def _solve_spectrum(model: HssModel, vectors: bool):
    """``(M, eigenvalues, unit-norm right eigenvectors or None, partition)``
    of M = A - j*Omega.

    M is returned in CSR, built in one bounded pass (``_shifted_csr``).
    The spectrum is solved as that of a unitary similarity T^H M T
    (``_similarity``), whose eigenvectors map back as v = T y.  The
    matrix solved stays sparse until it is split into the diagonal blocks
    its nonzero pattern decouples into (one rotating-frame rung: positive
    sequence at harmonic m+1, negative at m-1, dq states at m, for a
    balanced converter model in sequence form; a state channel at even
    harmonics and at odd ones in real form); only the blocks are densified.
    The spectrum of a block-diagonal matrix is the union of its blocks'
    spectra, so the split is exact.

    One LAPACK call is made per ladder class, not per block.  The HSS lift
    of a balanced model repeats one rung per harmonic, so most blocks are
    an earlier block M_r plus c*I, whose eigenvalues are M_r's plus c and
    whose eigenvectors are M_r's.  A block whose size, dtype and nonzero
    off-diagonal entries (positions and bytes) equal those of a solved
    block, and whose diagonal differs from it by a constant
    (``_ladder_shift``), takes that block's eigenpairs so shifted; any
    other block is solved.  The ``Partition`` records each block's class.

    Eigenvalues come block by block, in the order of the returned
    ``Partition``'s index sets.  Every block's eigenvectors are gathered
    into one CSC Y, each on its block's rows, and mapped back with one
    product (``_back_map``); each column of the CSC result stores only the
    rows T maps its block to.
    """
    m = _shifted_csr(model)
    n = m.shape[0]
    if n == 0:
        v = sp.csc_array((0, 0), dtype=complex) if vectors else None
        return m, np.zeros(0, complex), v, Partition("complex", ())
    a, t, name, blocks = _similarity(model, m)
    w = np.empty(n, complex)
    data, indices = [], []
    representatives, classes = {}, []
    start = 0
    for k, (rows, block) in enumerate(zip(blocks, _dense_blocks(a, blocks))):
        cols = slice(start, start + rows.size)
        start += rows.size
        if vectors:
            indices.append(np.tile(rows, rows.size))
        diagonal = block.diagonal().copy()
        off = np.flatnonzero((block != 0) & ~np.eye(rows.size, dtype=bool))
        key = (rows.size, block.dtype.str, off.tobytes(), block.flat[off].tobytes())
        for r, rep_cols, rep_diagonal in representatives.get(key, ()):
            shift = _ladder_shift(diagonal, rep_diagonal, np.max(np.abs(block)))
            if shift is not None:
                w[cols] = w[rep_cols] + shift
                if vectors:
                    data.append(data[r])
                classes.append(r)
                break
        else:
            if vectors:
                w[cols], y = np.linalg.eig(block)
                data.append(y.ravel(order="F"))
            else:
                w[cols] = np.linalg.eigvals(block)
            representatives.setdefault(key, []).append((k, cols, diagonal))
            classes.append(k)
    partition = Partition(name, tuple(blocks), tuple(classes))
    if not vectors:
        return m, w, None, partition
    del a  # only its blocks were solved: free it before the back-map
    sizes = [rows.size for rows in blocks]
    y = _compressed_columns(np.concatenate(data), np.concatenate(indices), np.repeat(sizes, sizes))
    del data, indices  # the blocks' own arrays, copied into y
    return m, w, _back_map(t.tocsc(), y), partition


def _ladder_shift(diagonal: np.ndarray, representative: np.ndarray, scale: float):
    """The mean c of ``diagonal - representative`` when every entry lies
    within ``REAL_FORM_TOL * scale`` of it, else None: by the argument of
    ``_parity_form``, a shift that is constant to this tolerance moves no
    eigenvalue more than the dense solver's own backward error does."""
    d = diagonal - representative
    c = d.mean()
    return c if np.max(np.abs(d - c)) <= REAL_FORM_TOL * scale else None


def _worst_residual(m: sp.csr_array, w: np.ndarray, v: sp.csc_array) -> tuple[float, int]:
    """``(largest ||M v - lambda v||, its column)`` over the eigenpairs.

    The residuals are formed in sparse chunks of ``_CHUNK_COLUMNS``
    columns, which bounds their size; each chunk's column norms are summed
    from the CSR entries of M V - V diag(lambda) by their column index.
    """
    norms = np.empty(w.size)
    for start in range(0, w.size, _CHUNK_COLUMNS):
        chunk = v[:, start : start + _CHUNK_COLUMNS]
        lam = w[start : start + _CHUNK_COLUMNS]
        scaled = sp.csc_array(
            (chunk.data * lam[_column_ids(chunk.indptr)], chunk.indices, chunk.indptr),
            shape=chunk.shape,
        )
        r = (m @ chunk - scaled).tocsr()
        sq = np.bincount(r.indices, weights=r.data.real**2 + r.data.imag**2, minlength=lam.size)
        norms[start : start + lam.size] = np.sqrt(sq)
    worst = int(np.argmax(norms))
    return float(norms[worst]), worst


def eigen_decompose(model: HssModel) -> EigenSolution:
    """Spectrum and right eigenvectors of the shifted state matrix.

    Eigenvalues are reported in solver order; any ordering across
    parameter variations is the matcher's job.  The residual of every
    eigenpair is checked against the full complex matrix A - j*Omega, so
    a fault in the block split, the ladder classes (a copy's eigenpairs
    are its representative's, shifted) or the back-mapping cannot pass; a
    failure reports the 1-norm condition of the failing eigenpair's block, the
    matrix its eigenvalue was solved from.
    """
    m, w, v, partition = _solve_spectrum(model, vectors=True)
    block = _block_ids(partition)
    if w.size == 0:
        return EigenSolution(w, block, partition, v, ())
    worst, col = _worst_residual(m, w, v)
    if worst > RESIDUAL_TOL:
        k = block[col]
        raise NumericalError(
            f"eigen decomposition residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e} "
            f"(block {k} of {partition.rows[k].size} states, 1-norm condition "
            f"~{_block_condition(model, m, partition, k):.3e})"
        )
    return EigenSolution(w, block, partition, v, model.state_labels())


def _block_condition(model: HssModel, m: sp.csr_array, partition: Partition, k: int) -> float:
    """1-norm condition of block ``k`` of the matrix ``partition`` was solved in."""
    form = {"sequence": _sequence_form, "parity": _parity_form}.get(partition.form)
    a = form(model, m)[0] if form else m
    rows = partition.rows[k]
    return float(np.linalg.cond(a[rows][:, rows].toarray(), 1))


def eigenvalues_only(model: HssModel) -> Spectrum:
    """Spectrum of the shifted state matrix, without eigenvectors, in solver order."""
    _, w, _, partition = _solve_spectrum(model, vectors=False)
    return Spectrum(w, _block_ids(partition), partition)


def _block_ids(partition: Partition) -> np.ndarray:
    """Block of each eigenvalue of a spectrum solved block by block in ``partition``."""
    sizes = [rows.size for rows in partition.rows]
    return np.repeat(np.arange(len(sizes)), sizes)


def evaluate_htf(
    model: HssModel, s: complex, ports: tuple[str, ...] | None = None
) -> np.ndarray:
    """Transfer matrix C*(s*I + j*Omega - A)^-1*E + F at the Laplace point s.

    ``ports`` selects and orders the disturbance columns (all ports by
    default), each port at most once.  s*I - M is formed from the CSR
    M = A - j*Omega that the eigen solve reads (``_shifted_csr``), and E and
    F are stacked over the ports in CSR; each is densified once, for the
    dense LU and its condition estimate.  Points too close to a pole are
    rejected.
    """
    names = model.ports if ports is None else ports
    unknown = [p for p in names if p not in model.ports]
    if unknown:
        raise ConfigurationError(f"unknown port(s) {unknown}; the model has {list(model.ports)}")
    repeated = sorted({p for p in names if names.count(p) > 1})
    if repeated:
        raise ConfigurationError(f"port(s) {repeated} given more than once")
    e = _port_stack(model.e, names, model.state_dim)
    f = _port_stack(model.f, names, model.output_dim)
    if model.state_dim == 0:
        return f
    m = (s * sp.eye_array(model.state_dim, format="csr") - _shifted_csr(model)).toarray()
    import scipy.linalg  # for LAPACK's zgecon; loaded here so only htf maps its BLAS

    anorm = np.linalg.norm(m, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m)
    rcond, info = scipy.linalg.lapack.zgecon(lu, anorm)
    if info != 0 or rcond < 1e-12:
        eigs = eigenvalues_only(model).eigenvalues
        nearest = eigs[np.argmin(np.abs(eigs - s))] if eigs.size else None
        raise PoleProximityError(
            f"resolvent nearly singular at s={s} (rcond={rcond:.2e}); "
            f"nearest pole {nearest}",
            nearest_pole=nearest,
        )
    return model.c @ scipy.linalg.lu_solve((lu, piv), e) + f


def _port_stack(mats, names, rows: int) -> np.ndarray:
    """The ``names`` ports of E or F (``mats``, with ``rows`` rows) side by
    side, stacked in CSR and densified once."""
    blocks = [sp.csr_array(mats[p]) for p in names] or [sp.csr_array((rows, 0), dtype=complex)]
    return sp.hstack(blocks, format="csr").toarray()


def _assign(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-total-cost assignment of the square,
    finite ``cost``.

    Each row first takes its nearest column, the first row to claim a
    column keeping it.  When every row gets its own column this is optimal,
    since the sum of the row minima bounds every assignment from below.
    Otherwise those pairs, with row potentials at the row minima, are a
    dual-feasible partial assignment, and each free row is added along a
    shortest augmenting path in the reduced costs (Jonker and Volgenant,
    Computing 38, 1987, in the form of Crouse, IEEE Trans. AES 52, 2016).
    Every step of a path scans a new column, so a search ends within n
    steps.
    """
    n = cost.shape[0]
    col4row = cost.argmin(axis=1) if n else np.zeros(0, int)
    if np.bincount(col4row, minlength=1).max() <= 1:
        return col4row
    taken, first = np.unique(col4row, return_index=True)
    row4col = np.full(n, -1)
    row4col[taken] = first
    col4row = np.full(n, -1)
    col4row[first] = taken
    u = np.zeros(n)
    u[first] = cost[first, taken]
    v = np.zeros(n)
    for free in np.flatnonzero(col4row < 0):
        shortest = np.full(n, np.inf)
        path = np.full(n, -1)
        scanned = np.zeros(n, bool)
        visited = []
        i, low = free, 0.0
        while True:
            visited.append(i)
            r = low + cost[i] - u[i] - v
            better = (r < shortest) & ~scanned
            path[better] = i
            shortest[better] = r[better]
            reach = np.where(scanned, np.inf, shortest)
            low = reach.min()
            if not np.isfinite(low):
                raise NumericalError("assignment cost matrix is not finite")
            ties = np.flatnonzero(reach == low)
            open_ties = ties[row4col[ties] < 0]
            j = open_ties[0] if open_ties.size else ties[0]
            scanned[j] = True
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[free] += low
        visited = np.array(visited[1:], int)
        u[visited] += low - shortest[col4row[visited]]
        v[scanned] -= low - shortest[scanned]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == free:
                break
    return col4row


def match_eigenvalues(lam, lam_other):
    """Minimum-total-distance bijection between two equally sized spectra.

    Returns ``(perm, total_cost)`` with ``lam[i]`` paired to
    ``lam_other[perm[i]]``.  Either argument is an eigenvalue array or a
    ``Spectrum``.  When both are ``Spectrum``s solved in equal partitions,
    block k of one is matched to block k of the other only: an eigenvalue
    cannot move between decoupled blocks, and one assignment per block
    never pairs a mode with a ladder copy of another block.  Otherwise one
    assignment covers the whole spectra.  Ties are broken deterministically
    by first sorting each matched set lexicographically by (Re, Im).
    Non-finite eigenvalues raise ``NumericalError``.
    """
    blocks = None
    if isinstance(lam, Spectrum) and isinstance(lam_other, Spectrum):
        if lam.partition == lam_other.partition:
            blocks = lam.block, lam_other.block
    lam, lam_other = (
        np.asarray(x.eigenvalues if isinstance(x, Spectrum) else x, complex)
        for x in (lam, lam_other)
    )
    if lam.shape != lam_other.shape or lam.ndim != 1:
        raise ShapeError(
            f"eigenvalue sets must be 1-D and equally sized, got "
            f"{lam.shape} and {lam_other.shape}"
        )
    if not (np.isfinite(lam).all() and np.isfinite(lam_other).all()):
        raise NumericalError("cannot match eigenvalues that are not finite")
    n = lam.size
    if blocks is None:
        blocks = np.zeros(n, int), np.zeros(n, int)
    # block by block, each block sorted by (Re, Im); equal partitions give
    # equal block sizes on both sides
    order_a = np.lexsort((lam.imag, lam.real, blocks[0]))
    order_b = np.lexsort((lam_other.imag, lam_other.real, blocks[1]))
    a, b = lam[order_a], lam_other[order_b]
    sizes = np.bincount(blocks[0])
    ends = np.cumsum(sizes)
    cols = np.empty(n, dtype=int)
    for start, end in zip(ends - sizes, ends):
        cols[start:end] = start + _assign(np.abs(a[start:end, None] - b[None, start:end]))
    perm = np.empty(n, dtype=int)
    perm[order_a] = order_b[cols]
    return perm, float(np.abs(a - b[cols]).sum())


def fold_to_strip(eigenvalues: np.ndarray, f1: float) -> np.ndarray:
    """Each eigenvalue translated by an integer multiple of j*2*pi*f1 into
    the fundamental strip Im in (-pi*f1, +pi*f1]; the upper boundary is
    inclusive."""
    if not f1 > 0:
        raise ConfigurationError("f1 must be positive")
    lam = np.asarray(eigenvalues, complex)
    w1 = 2.0 * np.pi * f1
    half = np.pi * f1
    shifts = np.floor((half - lam.imag) / w1)
    return lam + 1j * w1 * shifts


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    margin: float
    worst_eigenvalue: complex | None
    n_unstable: int


def stability_verdict(
    eigenvalues: np.ndarray, margin: float = 0.0, spurious: np.ndarray | None = None
) -> StabilityVerdict:
    """Unstable iff any non-spurious eigenvalue lies right of the margin.

    The margin is widened by ``VERDICT_RTOL`` times the largest |Re| of the
    eigenvalues passed in, so rounding noise around it decides nothing.
    """
    lam = np.asarray(eigenvalues, complex)
    tol = VERDICT_RTOL * float(np.max(np.abs(lam.real))) if lam.size else 0.0
    keep = np.ones(lam.shape, bool) if spurious is None else ~np.asarray(spurious, bool)
    lam = lam[keep]
    if lam.size == 0:
        return StabilityVerdict(True, margin, None, 0)
    worst = lam[np.argmax(lam.real)]
    n_bad = int(np.sum(lam.real > margin + tol))
    return StabilityVerdict(n_bad == 0, margin, complex(worst), n_bad)


# ---------------------------------------------------------------------------
# scenario-driven operations (rebuild the model per parameter value)


def _rebuild_eigenvalues(scenario, like):
    """``Spectrum`` of the analysis model of a scenario (no eigenvectors),
    assembled with the pieces of ``like`` it leaves unchanged."""
    return eigenvalues_only(assemble(scenario, state_only=True, like=like).model)


@dataclass(frozen=True)
class EigenTrace:
    """Assignment-matched eigenvalue loci along one parameter sweep."""

    values: tuple[float, ...]
    traces: np.ndarray  # (n_eigenvalues, n_values)
    unresolved: np.ndarray  # bool, (n_eigenvalues, n_values - 1)


def _step_threshold(costs: np.ndarray, scale: float) -> float:
    return max(10.0 * float(np.median(costs)), 1e-12 * scale)


def sweep_parameter(scenario, path: str, values) -> EigenTrace:
    """Trace eigenvalue loci over a parameter sweep with assignment matching.

    Consecutive spectra are matched by the assignment solver, block by
    block when their partitions are equal and in one assignment otherwise
    (``match_eigenvalues``): each trace carries its eigenvalue's block
    along.  A step whose worst pair cost is far above the step median is
    re-matched through a bisected intermediate point, matched the same way,
    and pairs that stay ambiguous are marked unresolved rather than
    silently guessed.  Every rebuild after the first
    reuses the first point's unchanged pieces (``assemble(like=...)``).  A
    parameter whose values change the eigenvalue count (``system.hmax``)
    has no loci to trace and is rejected.
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ConfigurationError("a sweep needs at least 2 parameter values")
    scenario.resolve_parameter(path)  # raises if not a numeric scalar

    first = assemble(scenario.with_parameter(path, values[0]), state_only=True)
    spectra = [eigenvalues_only(first.model)]
    spectra += [_rebuild_eigenvalues(scenario.with_parameter(path, v), first) for v in values[1:]]
    n = spectra[0].eigenvalues.size
    for v, spectrum in zip(values, spectra):
        if spectrum.eigenvalues.size != n:
            raise ConfigurationError(
                f"sweeping {path} changes the eigenvalue count: {n} at {values[0]:g}, "
                f"{spectrum.eigenvalues.size} at {v:g}"
            )
    scale = max(float(np.max(np.abs(s.eigenvalues))) for s in spectra) if n else 1.0

    # trace identities follow the spectral order of the first spectrum
    current = spectra[0].reordered(spectral_order(spectra[0].eigenvalues))
    traces = np.empty((n, len(values)), complex)
    traces[:, 0] = current.eigenvalues
    unresolved = np.zeros((n, len(values) - 1), bool)

    for k in range(1, len(values)):
        nxt = spectra[k]
        perm, _ = match_eigenvalues(current, nxt)
        pair = np.abs(current.eigenvalues - nxt.eigenvalues[perm])
        if np.any(pair > _step_threshold(pair, scale)):
            mid_value = 0.5 * (values[k - 1] + values[k])
            mid = _rebuild_eigenvalues(scenario.with_parameter(path, mid_value), first)
            perm_a, _ = match_eigenvalues(current, mid)
            mid = mid.reordered(perm_a)
            perm, _ = match_eigenvalues(mid, nxt)
            pair_a = np.abs(current.eigenvalues - mid.eigenvalues)
            pair_b = np.abs(mid.eigenvalues - nxt.eigenvalues[perm])
            bad = (pair_a > _step_threshold(pair_a, scale)) | (
                pair_b > _step_threshold(pair_b, scale)
            )
            unresolved[:, k - 1] = bad
        current = nxt.reordered(perm)
        traces[:, k] = current.eigenvalues

    return EigenTrace(tuple(values), traces, unresolved)


CDV = "CDV"
CDI = "CDI"
DI = "DI"
UNRESOLVED = "unresolved"

#: relative perturbations applied to every classified parameter
DEFAULT_PERTURBATIONS = (-0.2, -0.1, 0.1, 0.2)


@dataclass(frozen=True)
class EigenClassification:
    """Invariance classification of the nominal spectrum.

    ``solution`` is the nominal decomposition in (Re, Im) order.
    ``control_displacements`` and ``hardware_displacements`` hold the
    maximum matched displacement of each eigenvalue over all sweeps of
    the respective parameter group (NaN where a sweep failed); each
    perturbed eigenvalue is matched within its decoupled block when the
    rebuild keeps the nominal partition (``match_eigenvalues``).
    """

    solution: EigenSolution
    labels: tuple[str, ...]
    control_displacements: np.ndarray
    hardware_displacements: np.ndarray
    epsilon: float

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.solution.eigenvalues


def _labels_from_evidence(ctl_disp, hw_disp, epsilon) -> tuple[str, ...]:
    labels = []
    for c, h in zip(ctl_disp, hw_disp):
        if not (np.isfinite(c) and np.isfinite(h)):
            labels.append(UNRESOLVED)
        elif c > epsilon:
            labels.append(CDV)
        elif h <= epsilon:
            labels.append(DI)
        else:
            labels.append(CDI)
    return tuple(labels)


def classify_eigenvalues(
    scenario,
    control_parameters,
    hardware_parameters,
    epsilon: float | None = None,
) -> EigenClassification:
    """Classify eigenvalues by their displacement under parameter sweeps.

    Every parameter is perturbed by each relative step of
    ``DEFAULT_PERTURBATIONS`` around its nominal value; each perturbed
    spectrum is matched back to the nominal one, block by block while the
    rebuild keeps the nominal block partition and in one global assignment
    otherwise (``match_eigenvalues``), and the per-eigenvalue displacement
    recorded.  An eigenvalue is control-design invariant when no control
    perturbation moves it beyond epsilon, and design invariant when the
    hardware sweeps stay below epsilon as well.  ``epsilon`` defaults to 1e-6 times the spectral
    radius; a negative one is rejected.  Every perturbed rebuild reuses the
    nominal system's unchanged pieces (``assemble(like=...)``).
    """
    control_parameters = tuple(control_parameters)
    hardware_parameters = tuple(hardware_parameters)
    if not control_parameters or not hardware_parameters:
        raise ConfigurationError(
            "classification needs non-empty control and hardware parameter sets"
        )
    if epsilon is not None and not epsilon >= 0:
        raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
    system = assemble(scenario, state_only=True)
    solution = by_real_part(eigen_decompose(system.model))
    nominal = solution.eigenvalues
    n = nominal.size
    radius = float(np.max(np.abs(nominal))) if n else 1.0
    eps = 1e-6 * radius if epsilon is None else float(epsilon)

    def sweep_group(params):
        disp = np.zeros(n)
        # paths and values are checked outside the try: a bad one is an
        # error of the request, not an unresolved label
        bases = [scenario.resolve_parameter(path) for path in params]
        for path, base in zip(params, bases):
            for rel in DEFAULT_PERTURBATIONS:
                sc = scenario.with_parameter(path, base * (1.0 + rel))
                try:
                    lam = _rebuild_eigenvalues(sc, system)
                except HssError:
                    return np.full(n, np.nan)
                if lam.eigenvalues.size != n:
                    return np.full(n, np.nan)
                perm, _ = match_eigenvalues(solution, lam)
                disp = np.maximum(disp, np.abs(nominal - lam.eigenvalues[perm]))
        return disp

    ctl_disp = sweep_group(control_parameters)
    hw_disp = sweep_group(hardware_parameters)
    labels = _labels_from_evidence(ctl_disp, hw_disp, eps)
    return EigenClassification(solution, labels, ctl_disp, hw_disp, eps)


@dataclass(frozen=True)
class SpuriousReport:
    """Truncation-artefact detection by probing a finer harmonic grid.

    ``solution`` is the nominal decomposition in (Re, Im) order; the flags
    follow that order.
    """

    solution: EigenSolution
    spurious: np.ndarray  # probe-convergence failures
    boundary_suspect: np.ndarray  # eigenvector energy concentrated at the rim
    delta: float
    hmax: int
    hmax_probe: int

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.solution.eigenvalues


def detect_spurious(
    scenario,
    hmax_probe: int | None = None,
    delta: float | None = None,
) -> SpuriousReport:
    """Flag eigenvalues that do not persist on a finer harmonic grid.

    The scenario is rebuilt at ``hmax_probe``; both spectra are folded to
    the fundamental strip, and eigenvalues whose nearest folded probe
    counterpart is farther than delta, measured across the strip edges
    too, are flagged spurious.  Eigenvalues whose eigenvector energy sits
    mostly in the outermost two harmonic blocks are additionally flagged
    boundary-suspect.  ``delta`` defaults to 1e-4 times the spectral
    radius; one that is not positive is rejected.
    """
    hmax = scenario.hmax
    probe = hmax + 3 if hmax_probe is None else int(hmax_probe)
    if probe < hmax + 2:
        raise ConfigurationError(f"hmax_probe must be >= hmax + 2 = {hmax + 2}")
    if delta is not None and not delta > 0:
        raise ConfigurationError(f"delta must be > 0, got {delta}")

    system = assemble(scenario, state_only=True)
    sol = by_real_part(eigen_decompose(system.model))
    lam = sol.eigenvalues
    index_set, channels = system.index_set, system.model.state_channels
    del system  # the probe assembly need not share memory with the nominal one

    probe_lam = eigenvalues_only(
        assemble(scenario.with_hmax(probe), state_only=True).model
    ).eigenvalues
    f1 = index_set.f1
    folded = fold_to_strip(lam, f1)
    folded_probe = fold_to_strip(probe_lam, f1)

    radius = float(np.max(np.abs(lam))) if lam.size else 1.0
    tol = 1e-4 * radius if delta is None else float(delta)

    if folded_probe.size:
        # a mode just under +j*pi*f1 lies next to a probe mode folded to just
        # over -j*pi*f1.  A probe mode's copy one strip up (down) can be
        # nearer than the probe mode itself only when that probe mode lies
        # in the lower (upper) half of the strip, so those copies are all
        # the wrap needs.
        w1 = 2.0 * np.pi * f1
        lower, upper = folded_probe[folded_probe.imag < 0], folded_probe[folded_probe.imag > 0]
        near = np.concatenate((folded_probe, lower + 1j * w1, upper - 1j * w1))
        # nearest distance per mode, a bounded chunk of modes at a time
        rows = max(1, _SCRATCH_BYTES // (16 * near.size))
        chunks = np.split(folded, range(rows, folded.size, rows))
        dist = np.concatenate([np.abs(near - x[:, None]).min(axis=1) for x in chunks])
    else:
        dist = np.full(lam.shape, np.inf)
    spurious = dist > tol

    orders = np.abs(index_set.orders)
    rim = orders >= max(hmax - 1, 1)
    if rim.any() and hmax >= 1:
        rim_rows = np.repeat(rim, channels).astype(int)
        boundary = sol.energy_by(rim_rows, 2)[1] >= 0.5
    else:
        boundary = np.zeros(lam.shape, bool)

    return SpuriousReport(sol, spurious, boundary, tol, hmax, probe)
