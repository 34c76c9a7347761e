import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from hss_stab import (
    HarmonicIndexSet,
    HarmonicSignal,
    ShapeError,
    node_major_order,
    omega_diagonal,
    sample_series,
    series_from_samples,
    toeplitz_from_fourier,
)
from hss_stab.errors import ConfigurationError
from hss_stab.harmonic import default_sample_count


def sample_product_dft(series, signal_coeffs, index_set, channels=1):
    """Independent convolution oracle: sample a(t)*x(t) and DFT it."""
    n = 8 * index_set.count
    t = np.arange(n) / (n * index_set.f1)
    a_t = np.zeros((n, channels, channels), dtype=complex)
    for h, mat in series.items():
        a_t += np.exp(2j * np.pi * index_set.f1 * h * t)[:, None, None] * np.atleast_2d(mat)
    x_t = np.zeros((n, channels), dtype=complex)
    stack = signal_coeffs.reshape(index_set.count, channels)
    for i, h in enumerate(index_set.orders):
        x_t += np.exp(2j * np.pi * index_set.f1 * h * t)[:, None] * stack[i]
    prod = np.einsum("nij,nj->ni", a_t, x_t)
    spec = np.fft.fft(prod, axis=0) / n
    out = np.zeros((index_set.count, channels), dtype=complex)
    for i, h in enumerate(index_set.orders):
        out[i] = spec[h % n]
    return out.reshape(-1)


class TestIndexSet:
    def test_orders(self):
        iset = HarmonicIndexSet(3, 50.0)
        assert list(iset.orders) == [-3, -2, -1, 0, 1, 2, 3]
        assert iset.count == 7

    @pytest.mark.parametrize("hmax,f1", [(-1, 50.0), (2, 0.0), (2, -1.0)])
    def test_invalid(self, hmax, f1):
        with pytest.raises(ConfigurationError):
            HarmonicIndexSet(hmax, f1)


class TestToeplitz:
    def test_dc_scalar_is_diagonal(self):
        op = toeplitz_from_fourier({0: [[3.0]]}, HarmonicIndexSet(1, 50.0))
        assert np.array_equal(op.toarray(), 3.0 * np.eye(3))

    def test_all_zero(self):
        iset = HarmonicIndexSet(2, 50.0)
        op = toeplitz_from_fourier({0: np.zeros((2, 2))}, iset)
        assert op.shape == (10, 10)
        assert not op.toarray().any()

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0)], ids=["3x0", "0x2", "0x0"])
    def test_empty_block_lifts_to_empty_shape(self, shape):
        # blocks without inputs, states or outputs lift to (count*m, count*n)
        iset = HarmonicIndexSet(2, 50.0)
        op = toeplitz_from_fourier({0: np.zeros(shape), 1: np.zeros(shape)}, iset)
        assert op.shape == (5 * shape[0], 5 * shape[1])

    def test_cos_series_product(self):
        # a(t) = 2cos(2 pi f1 t) acting on x(t) = e^{j 2 pi f1 t}
        iset = HarmonicIndexSet(1, 50.0)
        op = toeplitz_from_fourier({1: [[1.0]], -1: [[1.0]]}, iset)
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        assert np.array_equal(op.toarray(), expected)
        x = np.array([0, 1, 0], dtype=complex)
        oracle = sample_product_dft({1: [[1.0]], -1: [[1.0]]}, x, iset)
        assert np.max(np.abs(op @ x - oracle)) < 1e-12

    def test_blocks_bit_identical(self):
        rng = np.random.default_rng(7)
        series = {h: rng.standard_normal((2, 3)) for h in (-1, 0, 2)}
        op = toeplitz_from_fourier(series, HarmonicIndexSet(3, 50.0))
        for i in range(7):
            for k in range(7):
                h = i - k
                blk = op[i * 2 : (i + 1) * 2, k * 3 : (k + 1) * 3].toarray()
                if h in series:
                    assert np.array_equal(blk, series[h])
                else:
                    assert not blk.any()

    @pytest.mark.parametrize("hmax", [0, 3])
    @pytest.mark.parametrize("shape", [(2, 3), (2, 0), (0, 2)])
    @pytest.mark.parametrize("orders", [(0,), (-1, 2), (-3, 3)])
    def test_lift_is_canonical_csr(self, hmax, shape, orders):
        # against a dense loop that writes every block: same values bit for
        # bit, sorted indices, no duplicates and no stored zeros
        orders = [h for h in orders if abs(h) <= hmax] or [0]
        rng = np.random.default_rng(hmax + 10 * len(orders))
        series = {
            h: (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            * (rng.random(shape) < 0.6)
            for h in orders
        }
        iset = HarmonicIndexSet(hmax, 50.0)
        m, n = shape
        ref = np.zeros((iset.count * m, iset.count * n), complex)
        for i in range(iset.count):
            for k in range(iset.count):
                if i - k in series:
                    ref[i * m : (i + 1) * m, k * n : (k + 1) * n] = series[i - k]
        op = toeplitz_from_fourier(series, iset)
        assert isinstance(op, sp.csr_array) and op.has_canonical_format
        assert op.nnz == np.count_nonzero(ref)
        assert np.array_equal(op.toarray(), ref)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            toeplitz_from_fourier(
                {0: np.eye(2), 1: np.eye(3)}, HarmonicIndexSet(2, 50.0)
            )

    def test_order_beyond_hmax_rejected(self):
        with pytest.raises(ShapeError):
            toeplitz_from_fourier({3: [[1.0]]}, HarmonicIndexSet(2, 50.0))

    @given(
        st.integers(1, 4),
        st.lists(
            st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, hmax, coeffs):
        iset = HarmonicIndexSet(hmax, 50.0)
        orders = [h for h in range(-hmax, hmax + 1)][: len(coeffs)]
        sa = {h: [[c]] for h, c in zip(orders, coeffs)}
        sb = {h: [[c * 1j - 0.5]] for h, c in zip(orders, coeffs)}
        alpha, beta = 1.7, -0.3 + 2j
        combo = {h: [[alpha * sa[h][0][0] + beta * sb[h][0][0]]] for h in sa}
        lhs = toeplitz_from_fourier(combo, iset)
        rhs = (
            alpha * toeplitz_from_fourier(sa, iset)
            + beta * toeplitz_from_fourier(sb, iset)
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * max(1.0, np.max(np.abs(rhs)))

    @given(st.integers(0, 123456))
    @settings(max_examples=25, deadline=None)
    def test_convolution_oracle(self, seed):
        rng = np.random.default_rng(seed)
        hmax = int(rng.integers(2, 7))
        iset = HarmonicIndexSet(hmax, 50.0)
        ha = int(rng.integers(0, hmax))
        hx = hmax - ha
        series = {
            h: [[complex(*rng.standard_normal(2))]] for h in range(-ha, ha + 1)
        }
        coeffs = np.zeros(iset.count, dtype=complex)
        for h in range(-hx, hx + 1):
            coeffs[iset.order_index(h)] = complex(*rng.standard_normal(2))
        product = toeplitz_from_fourier(series, iset) @ coeffs
        oracle = sample_product_dft(series, coeffs, iset)
        assert np.max(np.abs(product - oracle)) <= 1e-9

    def test_conjugate_symmetry_preserved(self):
        # real time-domain series maps conjugate-symmetric to conjugate-symmetric
        rng = np.random.default_rng(3)
        iset = HarmonicIndexSet(4, 50.0)
        base = {h: rng.standard_normal((2, 2)) for h in (1, 2)}
        series = {0: rng.standard_normal((2, 2))}
        for h, m in base.items():
            series[h] = m
            series[-h] = m  # real cosine series
        coeffs = np.zeros((iset.count, 2), dtype=complex)
        for h in range(0, 5):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2) * (h > 0)
            coeffs[iset.order_index(h)] = c
            coeffs[iset.order_index(-h)] = np.conj(c)
        out = (toeplitz_from_fourier(series, iset) @ coeffs.reshape(-1)).reshape(iset.count, 2)
        # X(-h) = conj(X(h)), order by order
        assert np.max(np.abs(out[::-1] - np.conj(out))) <= 1e-12


class TestFourierFromSamples:
    """``series_from_samples`` on scalar trajectories, shape (N, 1, 1)."""

    @staticmethod
    def scalar_series(samples, iset):
        return {h: c[0, 0] for h, c in series_from_samples(samples[:, None, None], iset).items()}

    def test_constant(self):
        iset = HarmonicIndexSet(2, 50.0)
        x = self.scalar_series(np.full(64, 5.0), iset)
        assert abs(x[0] - 5.0) < 1e-12
        for h in (-2, -1, 1, 2):
            assert abs(x[h]) < 1e-12

    def test_cosine(self):
        iset = HarmonicIndexSet(2, 50.0)
        t = np.arange(64) / (64 * 50.0)
        x = self.scalar_series(np.cos(2 * np.pi * 50.0 * t), iset)
        assert abs(x[1] - 0.5) < 1e-12
        assert abs(x[-1] - 0.5) < 1e-12
        assert abs(x[0]) < 1e-12

    def test_cosine_cubed(self):
        # cos^3 = 0.75 cos + 0.25 cos(3 .)  ->  X(+-1)=0.375, X(+-3)=0.125
        iset = HarmonicIndexSet(3, 50.0)
        t = np.arange(128) / (128 * 50.0)
        x = self.scalar_series(np.cos(2 * np.pi * 50.0 * t) ** 3, iset)
        assert abs(x[1] - 0.375) < 1e-12
        assert abs(x[3] - 0.125) < 1e-12
        assert abs(x[2]) < 1e-12

    def test_too_few_samples(self):
        with pytest.raises(ShapeError):
            series_from_samples(np.ones((9, 1, 1)), HarmonicIndexSet(2, 50.0))

    def test_round_trip(self):
        iset = HarmonicIndexSet(3, 50.0)
        rng = np.random.default_rng(11)
        series = series_from_samples(rng.standard_normal((56, 2, 1)), iset)
        # resample and re-extract: band-limited part is reproduced exactly
        again = series_from_samples(sample_series(series, iset, 56).real, iset)
        assert max(np.max(np.abs(again[h] - series[h])) for h in series) < 1e-12


class TestOmega:
    def test_basic(self):
        om = omega_diagonal(HarmonicIndexSet(1, 50.0), 1)
        assert np.allclose(om, [-100 * np.pi, 0.0, 100 * np.pi])

    def test_hmax_zero(self):
        om = omega_diagonal(HarmonicIndexSet(0, 50.0), 3)
        assert not np.diag(om).any()
        assert np.diag(om).shape == (3, 3)

    def test_block_dim(self):
        om = omega_diagonal(HarmonicIndexSet(2, 60.0), 2)
        assert om.shape == (10,)
        assert om[0] == om[1] == -2 * np.pi * 60.0 * 2

    def test_skew_effect_ladder(self):
        # eigenvalues of (D - j Omega) for a DC-lifted block
        rng = np.random.default_rng(2)
        d = rng.standard_normal((3, 3))
        iset = HarmonicIndexSet(2, 50.0)
        lifted = np.kron(np.eye(iset.count), d).astype(complex)
        lifted[np.diag_indices_from(lifted)] -= 1j * omega_diagonal(iset, 3)
        lam = np.linalg.eigvals(lifted)
        base = np.linalg.eigvals(d)
        expected = np.concatenate(
            [base - 1j * 2 * np.pi * 50.0 * h for h in iset.orders]
        )
        from hss_stab import match_eigenvalues

        perm, _ = match_eigenvalues(lam, expected)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(lam - expected[perm])) <= 1e-10 * scale


class TestGrouping:
    def test_single_node_identity(self):
        assert np.array_equal(node_major_order(7, (2,)), np.arange(14))

    def test_two_node_example(self):
        v = np.array([0.0, 10.0, 1.0, 11.0, 2.0, 12.0])  # (a-1,b-1,a0,b0,a+1,b+1)
        out = v[node_major_order(3, (1, 1))]
        assert np.array_equal(out, [0.0, 1.0, 2.0, 10.0, 11.0, 12.0])

    @given(
        st.lists(st.integers(0, 4), max_size=4),
        st.integers(0, 3),
    )
    @example(dims=[1, 0, 2], hmax=1)  # a zero-width node adds no indices
    @example(dims=[], hmax=0)
    @settings(max_examples=40, deadline=None)
    def test_involution_and_orthogonality(self, dims, hmax):
        count = 2 * hmax + 1
        idx = node_major_order(count, dims)
        # written out: node k, order i, channel c sits at i*sum(dims) + offset_k + c
        expected = [
            i * sum(dims) + sum(dims[:k]) + c
            for k, d in enumerate(dims)
            for i in range(count)
            for c in range(d)
        ]
        assert np.array_equal(idx, np.array(expected, dtype=int))
        n = idx.size
        p = np.zeros((n, n))
        p[np.arange(n), idx] = 1.0
        assert np.array_equal(p @ p.T, np.eye(n))
        # node-major and back, through the inverse the grid lift scatters with
        v = np.random.default_rng(0).standard_normal(n)
        assert np.array_equal(v[idx][np.argsort(idx)], v)

    def test_similarity_preserves_spectrum(self):
        rng = np.random.default_rng(5)
        idx = node_major_order(3, (2, 1))
        m = rng.standard_normal((9, 9))
        permuted = m[np.ix_(idx, idx)]
        lam1 = np.sort_complex(np.linalg.eigvals(m))
        lam2 = np.sort_complex(np.linalg.eigvals(permuted))
        assert np.max(np.abs(lam1 - lam2)) < 1e-10 * max(1.0, np.max(np.abs(lam1)))


class TestHarmonicSignal:
    def test_length_checked(self):
        with pytest.raises(ShapeError):
            HarmonicSignal(HarmonicIndexSet(1, 50.0), 2, np.zeros(5))

    def test_sample_count_default(self):
        assert default_sample_count(HarmonicIndexSet(3, 50.0)) == 56
