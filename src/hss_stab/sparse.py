"""Compressed sparse arrays on numpy alone.

``Csr`` holds a matrix row by row in the canonical format: within each
row the column indices ascend, no position is stored twice and no stored
value is zero.  Arrays built from outside triplets are checked; every
operation here returns canonical arrays, with 32-bit indices where they
fit.

The arithmetic reproduces scipy.sparse on canonical operands bit for bit:

* a product sums, for each output entry, the partial products in the
  order the left operand stores them, starting from zero, and drops the
  entries that sum to exactly zero, as scipy's ``csr_matmat`` and
  ``csr_matvecs`` do;
* a complex partial product is formed from real operations,
  ``ar*br - ai*bi`` and ``ar*bi + ai*br``: numpy's complex multiply may
  fuse a multiply and an add and round differently;
* a sum or difference applies its operation to the two values of every
  position stored in either operand, a missing value read as zero, and
  drops the results that are zero;
* scaling multiplies the stored values by the scalar with numpy.

Only the operations the package uses are provided.
"""

from __future__ import annotations

import numpy as np

_INT32_MAX = np.iinfo(np.int32).max


def _runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, sorted keys, first): the stable sort of ``key``, and where a
    run of equal keys starts in it."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return order, key, first


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges ``start[k], ..., start[k] + count[k] - 1``, concatenated."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(start - ends + count, count)


class Csr:
    """A canonical compressed sparse row array: the entries of row k are
    ``data[indptr[k]:indptr[k+1]]`` in the columns
    ``indices[indptr[k]:indptr[k+1]]``.

    Building from outside arrays checks the canonical format and raises
    ``ValueError`` when it does not hold.  The attributes cannot be
    rebound; the stored values are ordinary arrays.
    """

    __slots__ = ("data", "indices", "indptr", "shape")
    __array_ufunc__ = None  # numpy scalars and arrays defer to the operators here

    def __init__(self, data, indices, indptr, shape):
        _fill(self, np.asarray(data), np.asarray(indices), np.asarray(indptr), shape)
        problem = self._format_problem()
        if problem:
            raise ValueError(f"not a canonical Csr: {problem}")

    @classmethod
    def _new(cls, data, indices, indptr, shape):
        """An array from triplets that are canonical by construction."""
        out = object.__new__(cls)
        _fill(out, data, indices, indptr, shape)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Csr is immutable")

    def _format_problem(self) -> str | None:
        n_rows, n_cols = self.shape
        data, indices, indptr = self.data, self.indices, self.indptr
        if data.ndim != 1 or indices.shape != data.shape or indptr.shape != (n_rows + 1,):
            return f"arrays of shapes {data.shape}, {indices.shape}, {indptr.shape}"
        if indptr[0] != 0 or indptr[-1] != data.size or np.any(np.diff(indptr) < 0):
            return "indptr does not delimit the stored entries"
        if data.size and (indices.min() < 0 or indices.max() >= n_cols):
            return "an index lies outside the shape"
        unsorted = indices[1:] <= indices[:-1]  # one boolean per entry is the largest temporary
        starts = indptr[1:-1]
        unsorted[starts[(starts > 0) & (starts < data.size)] - 1] = False
        if np.any(unsorted):
            return "indices do not ascend within a row"
        del unsorted
        if not np.all(data):
            return "a stored value is zero"
        return None

    @property
    def has_canonical_format(self) -> bool:
        """Whether the stored arrays are (still) canonical."""
        return self._format_problem() is None

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def count_nonzero(self) -> int:
        return int(np.count_nonzero(self.data))

    def _row_ids(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def _with_data(self, data) -> "Csr":
        """The same positions with new values; zero values are dropped."""
        out = Csr._new(data, self.indices, self.indptr, self.shape)
        return out if np.all(data) else out._select(data != 0)

    def _select(self, keep: np.ndarray) -> "Csr":
        """The array with only the stored entries where ``keep`` is True."""
        kept = np.concatenate(([0], np.cumsum(keep)))
        return Csr._new(self.data[keep], self.indices[keep], kept[self.indptr], self.shape)

    def astype(self, dtype):
        return self._with_data(self.data.astype(dtype))

    def conj(self):
        return self._with_data(self.data.conj())

    @property
    def real(self):
        return self._with_data(self.data.real.copy())

    @property
    def imag(self):
        return self._with_data(self.data.imag.copy())

    def __neg__(self):
        return self._with_data(-self.data)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return self._with_data(self.data * scalar)

    __rmul__ = __mul__

    def _take(self, rows) -> "Csr":
        """The rows ``rows`` (indices or a slice), in that order."""
        if isinstance(rows, slice):
            rows = np.arange(self.shape[0])[rows]
        rows = np.asarray(rows)
        start = self.indptr[rows]
        count = self.indptr[rows + 1] - start
        at = _ranges(start, count)
        indptr = np.concatenate(([0], np.cumsum(count)))
        return Csr._new(self.data[at], self.indices[at], indptr, (rows.size, self.shape[1]))

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, column, value) of every stored entry, in storage order."""
        return self._row_ids(), self.indices, self.data

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, self.dtype)
        out[self._row_ids(), self.indices] = self.data
        return out

    def __getitem__(self, key) -> "Csr":
        """``m[rows]`` and ``m[rows, cols]``: rows and columns gathered by
        index arrays (each without repeats) or slices."""
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        out = self if _is_everything(rows) else self._take(rows)
        return out if _is_everything(cols) else out._columns(cols)

    def _columns(self, cols) -> "Csr":
        cols = np.arange(self.shape[1])[cols] if isinstance(cols, slice) else np.asarray(cols)
        position = np.full(self.shape[1], -1)
        position[cols] = np.arange(cols.size)
        new = position[self.indices]
        keep = new >= 0
        rows, new = self._row_ids()[keep], new[keep]
        order = np.argsort(rows * cols.size + new, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=self.shape[0]))))
        return Csr._new(self.data[keep][order], new[order], indptr, (self.shape[0], cols.size))

    def __add__(self, other):
        return _elementwise(self, other, np.add)

    def __sub__(self, other):
        return _elementwise(self, other, np.subtract)

    def __matmul__(self, other):
        if isinstance(other, Csr):
            return _product(self, other)
        return _dense_product(self, np.asarray(other))


def _fill(out: Csr, data, indices, indptr, shape):
    shape = tuple(int(s) for s in shape)
    index = np.int32 if max(*shape, data.size) <= _INT32_MAX else np.int64
    for name, value in (
        ("data", data),
        ("indices", indices.astype(index, copy=False)),
        ("indptr", indptr.astype(index, copy=False)),
        ("shape", shape),
    ):
        object.__setattr__(out, name, value)


def _is_everything(key) -> bool:
    return isinstance(key, slice) and key == slice(None)


def csr(a) -> Csr:
    """``a`` as a Csr: a Csr as it is, anything else read as a dense matrix."""
    return a if isinstance(a, Csr) else from_dense(a)


def from_dense(a) -> Csr:
    """The nonzero entries of the 2-D array ``a``."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"a dense matrix must be 2-D, not {a.ndim}-D")
    rows, cols = np.nonzero(a)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(a, axis=1))))
    return Csr._new(a[rows, cols], cols, indptr, a.shape)


def from_coo(rows, cols, data, shape) -> Csr:
    """The matrix with ``data[k]`` at (``rows[k]``, ``cols[k]``): entries at
    one position are added in the given order, and zero sums are dropped."""
    rows, cols, data = np.asarray(rows), np.asarray(cols), np.asarray(data)
    n_rows, n_cols = (int(s) for s in shape)
    for index, size in ((rows, n_rows), (cols, n_cols)):
        if index.size and not 0 <= index.min() <= index.max() < size:
            raise ValueError(f"a position lies outside the shape {shape}")
    order, key, first = _runs(rows.astype(np.int64) * n_cols + cols)
    values = data[order]
    summed = values[first]
    if not np.all(first):
        np.add.at(summed, np.cumsum(first)[~first] - 1, values[~first])
    return _from_keys(key[first], summed, (n_rows, n_cols))


def _from_keys(keys: np.ndarray, values: np.ndarray, shape) -> Csr:
    """The Csr of ascending keys ``row * n_cols + col``, without the zero values."""
    keep = values != 0
    rows, cols = np.divmod(keys[keep], max(shape[1], 1))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return Csr._new(values[keep], cols, indptr, shape)


def zeros(shape, dtype=complex) -> Csr:
    return Csr._new(np.zeros(0, dtype), np.zeros(0, int), np.zeros(shape[0] + 1, int), shape)


def diag(values) -> Csr:
    """The square matrix with ``values`` on its diagonal."""
    values = np.asarray(values)
    n = values.size
    return Csr._new(values, np.arange(n), np.arange(n + 1), (n, n))._with_data(values)


def eye(n: int) -> Csr:
    return diag(np.ones(n))


def hstack(mats) -> Csr:
    """The Csr arrays ``mats``, all of one height, side by side."""
    n_rows = {m.shape[0] for m in mats}
    if len(n_rows) != 1:
        raise ValueError(f"side by side arrays differ in height: {sorted(n_rows)}")
    offsets = np.cumsum([0] + [m.shape[1] for m in mats])
    rows = np.concatenate([m._row_ids() for m in mats])
    order = np.argsort(rows, kind="stable")  # per row, the arrays' entries in array order
    indices = np.concatenate([m.indices + off for m, off in zip(mats, offsets)])
    data = np.concatenate([m.data for m in mats])
    indptr = np.sum([m.indptr.astype(np.int64) for m in mats], axis=0)
    return Csr._new(data[order], indices[order], indptr, (n_rows.pop(), offsets[-1]))


def kron_eye(count: int, block: Csr) -> Csr:
    """kron(I_count, block): ``count`` copies of ``block`` down the diagonal."""
    copies = np.arange(count)[:, None]
    indices = (block.indices + block.shape[1] * copies).ravel()
    indptr = np.concatenate(([0], (block.indptr[1:] + block.nnz * copies).ravel()))
    shape = (count * block.shape[0], count * block.shape[1])
    return Csr._new(np.tile(block.data, count), indices, indptr, shape)


def anti_diagonal(upper: Csr, lower: Csr) -> Csr:
    """The block array [[0, upper], [lower, 0]]."""
    shift = lower.shape[1]
    data = np.concatenate((upper.data, lower.data))
    indices = np.concatenate((upper.indices + shift, lower.indices))
    indptr = np.concatenate((upper.indptr, lower.indptr[1:].astype(np.int64) + upper.nnz))
    shape = (upper.shape[0] + lower.shape[0], shift + upper.shape[1])
    return Csr._new(data, indices, indptr, shape)


def _parts(values: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``values`` read as ``dtype`` (complex)."""
    values = values.astype(dtype, copy=False)
    return values.real, values.imag


def _product(a: Csr, b: Csr) -> Csr:
    """a @ b, summed as scipy's ``csr_matmat`` sums it (module docstring)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shapes {a.shape} and {b.shape} do not align")
    shape = (a.shape[0], b.shape[1])
    dtype = np.result_type(a.data, b.data)
    start = b.indptr[a.indices]
    count = b.indptr[a.indices + 1] - start
    owner = np.repeat(np.arange(a.nnz), count)  # the a entry of every partial product
    at = _ranges(start, count)  # and its b entry
    if not at.size:
        return zeros(shape, dtype)
    key = np.repeat(a._row_ids().astype(np.int64) * shape[1], count) + b.indices[at]
    order, key, first = _runs(key)  # stable: each output entry's terms stay in a's order
    owner, at = owner[order], at[order]
    slot = np.cumsum(first) - 1  # the output entry of every partial product
    size = int(slot[-1]) + 1
    if dtype.kind == "c":
        (ar, ai), (br, bi) = _parts(a.data, dtype), _parts(b.data, dtype)
        ar, ai, br, bi = ar[owner], ai[owner], br[at], bi[at]
        values = np.empty(size, dtype)
        values.real = np.bincount(slot, ar * br - ai * bi, size)
        values.imag = np.bincount(slot, ar * bi + ai * br, size)
    else:
        values = np.bincount(slot, a.data[owner] * b.data[at], size).astype(dtype, copy=False)
    return _from_keys(key[first], values, shape)


def _dense_product(a: Csr, x: np.ndarray) -> np.ndarray:
    """a @ x for a 1-D or 2-D array x, summed as scipy's ``csr_matvecs``:
    each row adds its terms in storage order, starting from zero."""
    if x.shape[0] != a.shape[1] or x.ndim not in (1, 2):
        raise ValueError(f"matmul shapes {a.shape} and {x.shape} do not align")
    cols = x[:, None] if x.ndim == 1 else x
    dtype = np.result_type(a.data, x)
    lengths = np.diff(a.indptr)
    order = np.argsort(-lengths, kind="stable")  # longest rows first: a prefix has a t-th entry
    first, falling = a.indptr[order], -lengths[order]
    if dtype.kind == "c":
        (ar, ai), (xr, xi) = _parts(a.data, dtype), _parts(cols, dtype)
        xr, xi = np.ascontiguousarray(xr), np.ascontiguousarray(xi)
        parts = np.zeros((2, a.shape[0], cols.shape[1]))
    else:
        parts = np.zeros((1, a.shape[0], cols.shape[1]))
    for t in range(-int(falling[0]) if falling.size else 0):  # every row's t-th stored entry
        c = int(np.searchsorted(falling, -t))
        at = first[:c] + t
        k = a.indices[at]
        if dtype.kind == "c":
            parts[0, :c] += ar[at, None] * xr[k] - ai[at, None] * xi[k]
            parts[1, :c] += ar[at, None] * xi[k] + ai[at, None] * xr[k]
        else:
            parts[0, :c] += a.data[at, None] * cols[k]
    out = np.empty((a.shape[0], cols.shape[1]), dtype)
    if dtype.kind == "c":
        out.real[order], out.imag[order] = parts
    else:
        out[order] = parts[0]
    return out.reshape(a.shape[0], *x.shape[1:])


def _elementwise(a: Csr, b: Csr, op) -> Csr:
    """op(a, b) on every position stored in a or b (module docstring)."""
    if not isinstance(b, Csr):
        return NotImplemented
    if a.shape != b.shape:
        raise ValueError(f"shapes {a.shape} and {b.shape} differ")
    dtype = np.result_type(a.data, b.data)
    keys = np.concatenate((a._row_ids(), b._row_ids())).astype(np.int64) * a.shape[1]
    order, keys, first = _runs(keys + np.concatenate((a.indices, b.indices)))
    slot = np.empty(keys.size, np.intp)  # the output entry of every stored entry
    slot[order] = np.cumsum(first) - 1
    va, vb = (np.zeros(int(np.count_nonzero(first)), dtype) for _ in "ab")
    va[slot[: a.nnz]] = a.data
    vb[slot[a.nnz :]] = b.data
    return _from_keys(keys[first], op(va, vb), a.shape)
