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

from .errors import ConfigurationError, HssError, NumericalError, PoleProximityError, ShapeError
from .harmonic import omega_diagonal
from .model import HssModel, component_labels
from .pipeline import assemble
from .sparse import Csr, csr, diag, eye, from_coo, kron_eye

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
#: eigenpairs per batch of the residual products, which bounds their
#: temporaries
_CHUNK_COLUMNS = 128
#: tiles per piece of the sequence form's mixing (``_mix``)
_MIX_TILES = 4096
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

    Eigenvector i is column ``column[i]`` of the vectors of block
    ``block[i]`` (``block_vectors``).  Each block's eigenvectors lie on
    its support, the ascending state rows ``supports[k]`` that its block
    of the eigen solve maps back to, and are the columns of the dense
    array ``arrays[uses[k]]``.  A ladder copy has its representative's
    eigenvectors on rows of its own, so ``arrays`` holds each distinct
    array once, one per ladder class.  ``reordered`` permutes the
    eigenvalues, blocks and columns together and copies no vector.
    """

    column: np.ndarray
    supports: tuple[np.ndarray, ...]
    uses: tuple[int, ...]
    arrays: tuple[np.ndarray, ...]
    labels: tuple[tuple[str, int], ...]

    def reordered(self, order) -> "EigenSolution":
        return replace(super().reordered(order), column=self.column[order])

    def block_vectors(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, vectors)`` of block ``k``: its eigenvectors are the
        columns of ``vectors``, on the ascending state ``rows``."""
        return self.supports[k], self.arrays[self.uses[k]]

    def _by_block(self) -> list[np.ndarray]:
        """The eigenpairs of each block, in the order of its columns."""
        order = np.lexsort((self.column, self.block))
        ends = np.searchsorted(self.block[order], np.arange(len(self.supports) + 1))
        return [order[a:b] for a, b in zip(ends, ends[1:])]

    def energy_by(self, group: np.ndarray, groups: int) -> np.ndarray:
        """Eigenvector energy |v|^2 summed per row group, shape (groups, n).

        ``group[r]`` in ``range(groups)`` is the group of state row r.
        Each sum adds its terms in ascending row order, starting from zero.
        """
        out = np.empty((groups, self.eigenvalues.size))
        energy = [np.abs(a) ** 2 for a in self.arrays]
        for k, pairs in enumerate(self._by_block()):
            e = energy[self.uses[k]]
            bins = group[self.supports[k], None] * e.shape[1] + np.arange(e.shape[1])
            flat = np.bincount(bins.ravel(), weights=e.ravel(), minlength=groups * e.shape[1])
            out[:, pairs] = flat.reshape(groups, e.shape[1])
        return out


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


def _shifted_csr(model: HssModel) -> Csr:
    """A - j*Omega as a Csr, from a dense or a Csr A, storing exactly its
    nonzero entries: entries that cancel to zero are dropped."""
    shift = 1j * omega_diagonal(model.index_set, model.state_channels)
    return csr(model.a).astype(complex) - diag(shift)


def _decoupled_blocks(a: Csr) -> list[np.ndarray]:
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


def _dense_blocks(a: Csr, blocks: list[np.ndarray]):
    """Yield ``a[rows][:, rows]`` densely for each of the ``blocks``, the
    index sets ``_decoupled_blocks`` split ``a`` into, from one pass over
    its entries; no entry of ``a`` lies outside these blocks."""
    label = np.empty(a.shape[0], int)
    pos = np.empty(a.shape[0], int)
    for k, rows in enumerate(blocks):
        label[rows] = k
        pos[rows] = np.arange(rows.size)
    row, col, data = a.triplets()
    order = np.argsort(label[row], kind="stable")
    bounds = np.searchsorted(label[row[order]], np.arange(len(blocks) + 1))
    for k, rows in enumerate(blocks):
        take = order[bounds[k] : bounds[k + 1]]
        block = np.zeros((rows.size, rows.size), a.dtype)
        block[pos[row[take]], pos[col[take]]] = data[take]
        yield block


def _parity_form(model: HssModel, m: Csr):
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
    p = np.arange(n).reshape(model.index_set.count, -1)[::-1].ravel()
    mpp = m[p][:, p]
    defect = (mpp.conj() - m).data
    if np.max(np.abs(defect), initial=0.0) > REAL_FORM_TOL * np.max(np.abs(m.data), initial=0.0):
        return m, eye(n), "complex"
    a = 0.5 * (m.real + mpp.real - m.imag[:, p] + m.imag[p, :])
    return a, np.exp(-0.25j * np.pi) / np.sqrt(2.0) * (eye(n) + 1j * eye(n)[p]), "parity"


#: columns: the zero, positive and negative sequence of an abc triple
FORTESCUE = np.exp(-2j * np.pi / 3 * np.outer([0, 1, 2], [0, 1, -1])) / np.sqrt(3.0)


def _sequence_form(model: HssModel, m: Csr):
    """``(U^H M U, U, "sequence")`` with U the symmetrical-component unitary.

    U is block diagonal: ``FORTESCUE`` on each declared phase triple at
    each harmonic, identity on the other channels.  Entries of U^H M U at
    or below ``REAL_FORM_TOL * max|M|`` are rounding residue of exact
    zeros for a balanced triple; dropping them perturbs M no more than the
    dense solver's own backward error, by the argument of ``_parity_form``.

    U^H M U is formed tile by tile.  The states of one triple, or of one
    other channel, at one harmonic form a group, and M's entries between
    two groups form a tile of 3 x 3, 3 x 1, 1 x 3 or 1 x 1 (``_mix``).
    """
    channels = model.state_channels
    place = np.zeros(channels, int)  # a channel's place in its group
    triple = np.zeros(channels, bool)  # whether a channel leads a triple
    for t in model.phase_triples:
        place[t : t + 3], triple[t] = (0, 1, 2), True
    n = m.shape[0]
    first = np.arange(n) - place[np.arange(n) % channels]  # the first state of each group
    row, col, value = m.triplets()
    tiles, tile = np.unique(first[row] * n + first[col], return_inverse=True)
    top, left = np.divmod(tiles, n)  # each tile's first row and column
    block = np.zeros((3, 3, top.size), complex)  # tile k is block[:, :, k], zero-padded
    block[place[row % channels], place[col % channels], tile] = value
    values = np.zeros_like(block)
    for tall in (False, True):
        for wide in (False, True):
            k = np.flatnonzero((triple[top % channels] == tall) & (triple[left % channels] == wide))
            r, c = (3 if tall else 1), (3 if wide else 1)
            mixed = _mix(block[:r, :c, k], FORTESCUE if tall else _ONE, FORTESCUE if wide else _ONE)
            values.real[:r, :c, k], values.imag[:r, :c, k] = mixed
    keep = np.abs(values) > REAL_FORM_TOL * np.max(np.abs(m.data), initial=0.0)  # padding is 0
    a, b, k = np.nonzero(keep)
    u = kron_eye(model.index_set.count, _fortescue_block(channels, model.phase_triples))
    return from_coo(top[k] + a, left[k] + b, values[keep], m.shape), u, "sequence"


def _fortescue_block(channels: int, triples) -> Csr:
    """U's block at one harmonic: ``FORTESCUE`` on each phase triple, a
    unit diagonal on the other channels."""
    lead = np.asarray(triples, int)[:, None]
    single = np.setdiff1d(np.arange(channels), lead + np.arange(3))
    i, j = np.divmod(np.arange(9), 3)  # FORTESCUE's entries, row by row
    return from_coo(
        np.concatenate((single, (lead + i).ravel())),
        np.concatenate((single, (lead + j).ravel())),
        np.concatenate((np.ones(single.size, complex), np.tile(FORTESCUE.ravel(), lead.size))),
        (channels, channels),
    )


_ONE = np.ones((1, 1), complex)


def _mix(tiles: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of ``left^H t right`` for every tile t =
    ``tiles[:, :, k]``: each entry of ``left^H t``, then of its product
    with ``right``, sums at most three products, formed from real
    operations, in ascending order from zero.  These are the terms and the
    order of the sparse products U^H M and (U^H M) U, so the result is
    theirs bit for bit; a missing entry of M adds a zero term, which
    changes no sum that starts from zero.  Tiles are mixed
    ``_MIX_TILES`` at a time, which keeps the temporaries in cache.
    """
    s = np.zeros((2, left.shape[1], right.shape[1], tiles.shape[2]))
    for lo in range(0, tiles.shape[2], _MIX_TILES):
        piece, out = tiles[:, :, lo : lo + _MIX_TILES], s[..., lo : lo + _MIX_TILES]
        x = np.zeros((2, left.shape[1], *piece.shape[1:]))
        for a, conj_u in enumerate(left.conj()):
            _add_times(x, piece.real[a], piece.imag[a], conj_u[:, None, None])
        for b, u in enumerate(right):
            _add_times(out, x[0, :, b, None], x[1, :, b, None], u[None, :, None])
    return s


def _add_times(acc: np.ndarray, ar: np.ndarray, ai: np.ndarray, b: np.ndarray):
    """acc += (ar + j ai) b, with ``acc`` holding real and imaginary parts
    and the product formed from real operations, as scipy's sparse
    products form it."""
    acc[0] += ar * b.real - ai * b.imag
    acc[1] += ar * b.imag + ai * b.real


def _back_map(t: Csr, y):
    """Unit-norm eigenvectors v = T y of M, as ``(supports, uses, arrays)``.

    ``y`` lists, block by block, the ascending rows of a diagonal block of
    T^H M T and the block's eigenvectors, the columns of a dense matrix.
    Block k's eigenvectors of M are the columns of the dense array
    ``arrays[uses[k]]`` on the ascending rows ``supports[k]`` that T maps
    the block to.  T is block diagonal per harmonic (an abc triple or a
    harmonic pair), so each entry of ``T[:, rows] @ vectors`` sums at most
    three terms, in the order of T's columns, as the sparse product T Y
    does.  Each squared norm sums Re(conj(v) v) in row order (a cumulative
    sum), as ``np.linalg.norm`` of a dense column does.

    Every block's map, ``T[:, rows]`` on the rows it reaches, comes from
    one sorted pass over T's entries.  A block whose map and eigenvectors
    equal an earlier block's (a ladder copy in sequence form) uses that
    block's array, which holds the same bits, on its own support: an array
    is mapped once per distinct map.
    """
    sizes = np.array([rows.size for rows, _ in y])
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    col, row, coef = _transposed(t)[np.concatenate([rows for rows, _ in y])].triplets()
    block = np.repeat(np.arange(sizes.size), sizes)[col]
    order = np.lexsort((row, block))  # stable: each row's terms stay in column order
    col, row, coef, block = col[order], row[order], coef[order], block[order]
    pair = np.flatnonzero(np.diff(block * t.shape[0] + row, prepend=-1))  # (block, row) starts
    pairs = np.searchsorted(block[pair], np.arange(sizes.size + 1))  # block k: pairs[k]:pairs[k+1]
    ends = np.append(pair, col.size)
    supports, uses, arrays, mapped = [], [], [], {}
    for k, (_, vectors) in enumerate(y):
        q0, q1 = pairs[k], pairs[k + 1]
        e0, e1 = ends[q0], ends[q1]
        local = Csr(  # T[:, rows] on the rows it reaches
            coef[e0:e1], col[e0:e1] - offsets[k], ends[q0 : q1 + 1] - e0, (q1 - q0, sizes[k])
        )
        key = (id(vectors), local.indptr.tobytes(), local.indices.tobytes(), local.data.tobytes())
        if key not in mapped:
            v = local @ vectors  # column j: eigenvector j on the support
            norms = np.sqrt(np.cumsum((v.conj() * v).real, axis=0)[-1])
            norms[norms == 0] = 1.0
            v /= norms
            mapped[key] = len(arrays)
            arrays.append(v)
        supports.append(row[pair[q0:q1]])
        uses.append(mapped[key])
    return tuple(supports), tuple(uses), tuple(arrays)


def _transposed(a: Csr) -> Csr:
    """a^T as a Csr: a's columns as its rows."""
    rows, cols, values = a.triplets()
    return from_coo(cols, rows, values, a.shape[::-1])


def _similarity(model: HssModel, m: Csr):
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
    """``(M, eigenvalues, eigenvectors or None, partition)`` of
    M = A - j*Omega, the eigenvectors unit-norm and right, as ``_back_map``
    returns them.

    M is returned as a Csr, built in one bounded pass (``_shifted_csr``).
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
    ``Partition``'s index sets.  Every block's eigenvectors, on its rows,
    are mapped back block by block (``_back_map``) onto the rows T maps
    its block to, and stored once per ladder class: a copy takes its
    representative's array.
    """
    m = _shifted_csr(model)
    n = m.shape[0]
    if n == 0:
        return m, np.zeros(0, complex), ((), (), ()) if vectors else None, Partition("complex", ())
    a, t, name, blocks = _similarity(model, m)
    w = np.empty(n, complex)
    y = []
    representatives, classes = {}, []
    start = 0
    for k, (rows, block) in enumerate(zip(blocks, _dense_blocks(a, blocks))):
        cols = slice(start, start + rows.size)
        start += rows.size
        diagonal = block.diagonal().copy()
        off = np.flatnonzero((block != 0) & ~np.eye(rows.size, dtype=bool))
        key = (rows.size, block.dtype.str, off.tobytes(), block.flat[off].tobytes())
        for r, rep_cols, rep_diagonal in representatives.get(key, ()):
            shift = _ladder_shift(diagonal, rep_diagonal, np.max(np.abs(block)))
            if shift is not None:
                w[cols] = w[rep_cols] + shift
                if vectors:
                    y.append((rows, y[r][1]))
                classes.append(r)
                break
        else:
            if vectors:
                w[cols], eigenvectors = np.linalg.eig(block)
                y.append((rows, eigenvectors))
            else:
                w[cols] = np.linalg.eigvals(block)
            representatives.setdefault(key, []).append((k, cols, diagonal))
            classes.append(k)
    partition = Partition(name, tuple(blocks), tuple(classes))
    if not vectors:
        return m, w, None, partition
    del a  # only its blocks were solved: free it before the back-map
    return m, w, _back_map(t, y), partition


def _ladder_shift(diagonal: np.ndarray, representative: np.ndarray, scale: float):
    """The mean c of ``diagonal - representative`` when every entry lies
    within ``REAL_FORM_TOL * scale`` of it, else None: by the argument of
    ``_parity_form``, a shift that is constant to this tolerance moves no
    eigenvalue more than the dense solver's own backward error does."""
    d = diagonal - representative
    c = d.mean()
    return c if np.max(np.abs(d - c)) <= REAL_FORM_TOL * scale else None


def _worst_residual(m: Csr, solution: EigenSolution) -> tuple[float, int]:
    """``(largest ||M v - lambda v||, its eigenpair)`` over the eigenpairs of
    ``solution``.

    The blocks that use one stored array, a ladder class, are checked
    together: M's columns on each member's support are stacked, and one
    product with the array forms the members' residuals, on every row
    those columns reach and on the support, so no row of M v - lambda v
    that can be nonzero is left out of a norm.  A product covers at most
    ``_CHUNK_COLUMNS`` eigenpairs: as many members as fit, or a range of
    a larger block's columns, which bounds its temporaries.
    """
    columns = _transposed(m)
    n = m.shape[0]
    norms = np.empty(solution.eigenvalues.size)
    by_block = solution._by_block()
    for a, vectors in enumerate(solution.arrays):
        members = [k for k, used in enumerate(solution.uses) if used == a]
        s, size = vectors.shape
        per = max(1, _CHUNK_COLUMNS // size)
        for batch in (members[i : i + per] for i in range(0, len(members), per)):
            offset = np.arange(len(batch))[:, None] * n  # member j's rows: j*n + row
            supports = np.stack([solution.supports[k] for k in batch])
            at, reached, value = columns[supports.ravel()].triplets()
            keys = np.concatenate(((at // s) * n + reached, (offset + supports).ravel()))
            out, row = np.unique(keys, return_inverse=True)
            stacked = from_coo(row[: at.size], at % s, value, (out.size, s))
            firsts = np.searchsorted(out, offset[:, 0])
            for lo in range(0, size, _CHUNK_COLUMNS):
                x = vectors[:, lo : lo + _CHUNK_COLUMNS]
                pairs = np.stack([by_block[k][lo : lo + _CHUNK_COLUMNS] for k in batch])
                r = _times_dense(stacked, x)
                lam = solution.eigenvalues[pairs][:, None, :]
                r[row[at.size :]] -= (x * lam).reshape(-1, x.shape[1])
                norms[pairs] = np.sqrt(np.add.reduceat((r.conj() * r).real, firsts, axis=0))
    worst = int(np.argmax(norms))
    return float(norms[worst]), worst


def _times_dense(a: Csr, x: np.ndarray) -> np.ndarray:
    """a @ x in numpy's complex arithmetic, one batched product per group
    of rows with equally many entries.  It is about twice as fast as
    ``Csr @ x``, which sums as scipy does; the residual, compared only
    with ``RESIDUAL_TOL``, needs no particular rounding."""
    out = np.zeros((a.shape[0], x.shape[1]), complex)
    lengths = np.diff(a.indptr)
    for length in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == length)
        at = a.indptr[rows, None] + np.arange(length)
        out[rows] = np.matmul(a.data[at][:, None, :], x[a.indices[at]])[:, 0]
    return out


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
    m, w, vectors, partition = _solve_spectrum(model, vectors=True)
    block = _block_ids(partition)
    column = np.arange(w.size) - np.searchsorted(block, block)
    solution = EigenSolution(w, block, partition, column, *vectors, model.state_labels())
    if w.size == 0:
        return solution
    worst, i = _worst_residual(m, solution)
    if worst > RESIDUAL_TOL:
        k = block[i]
        raise NumericalError(
            f"eigen decomposition residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e} "
            f"(block {k} of {partition.rows[k].size} states, 1-norm condition "
            f"~{_block_condition(model, m, partition, k):.3e})"
        )
    return solution


def _block_condition(model: HssModel, m: Csr, partition: Partition, k: int) -> float:
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
    default), each port at most once.  s*I - M is formed from the Csr
    M = A - j*Omega that the eigen solve reads (``_shifted_csr``) and
    densified once, for the dense LU and its condition estimate; E and F
    are densified port by port.  Points too close to a pole are rejected.
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
    m = (s * eye(model.state_dim) - _shifted_csr(model)).toarray()
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
    side, densified."""
    return np.hstack([csr(mats[p]).toarray() for p in names] or [np.zeros((rows, 0), complex)])


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
