import numpy as np
import pytest

from hybridtherm.linalg import (
    ExpRangeError,
    HERMITICITY_RTOL,
    NonHermitianError,
    check_hermitian,
    eigh,
    eigvalsh_2x2,
    eigvalsh_stack,
    frobenius,
    herm_exp,
    log_cosh,
    logsumexp,
    shifted_softmax,
    trace_distance,
    trace_norm_stack,
)
from hybridtherm.verify import random_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def taylor_exp(mat, scale, terms=60):
    # series oracle, independent of the spectral route
    acc = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ (scale * mat) / k
        acc = acc + term
    return acc


class TestHermExp:
    def test_matches_taylor_series(self, rng):
        m = random_hermitian(rng, 4)
        got = herm_exp(m, -0.7)
        want = taylor_exp(m, -0.7)
        assert frobenius(got - want) < 1e-12

    def test_identity_at_zero_scale(self, rng):
        m = random_hermitian(rng, 3)
        assert frobenius(herm_exp(m, 0.0) - np.eye(3)) < 1e-14

    def test_inverse_pair(self, rng):
        m = random_hermitian(rng, 4)
        prod = herm_exp(m, 0.3) @ herm_exp(m, -0.3)
        assert frobenius(prod - np.eye(4)) < 1e-12

    def test_range_guard(self):
        m = np.diag([1.0, -1.0])
        with pytest.raises(ExpRangeError):
            herm_exp(m, 1e6)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError):
            herm_exp(m, 1.0)


class TestEigh:
    def test_reconstruction(self, rng):
        m = random_hermitian(rng, 6)
        es = eigh(m)
        assert frobenius(es.reconstruct() - m) < 1e-12

    def test_ascending_order(self, rng):
        es = eigh(random_hermitian(rng, 5))
        assert np.all(np.diff(es.eigenvalues) >= 0)

    def test_phase_convention_sigma_x(self):
        # eigenvectors (1, -1)/sqrt2 and (1, 1)/sqrt2 with the largest
        # component made real positive; the tie picks the first row
        es = eigh(SIGMA_X)
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(es.eigenvectors[:, 0], [r, -r], atol=1e-14)
        assert np.allclose(es.eigenvectors[:, 1], [r, r], atol=1e-14)

    def test_phase_pivot_is_real_positive(self, rng):
        es = eigh(random_hermitian(rng, 7))
        for k in range(7):
            col = es.eigenvectors[:, k]
            pivot = np.argmax(np.abs(col))
            assert col[pivot].imag == 0.0
            assert col[pivot].real > 0.0

    def test_deterministic(self, rng):
        m = random_hermitian(rng, 5)
        a = eigh(m)
        b = eigh(m.copy())
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_stack_is_bit_equal_to_per_block_formula(self, rng, dim):
        stack = np.stack([random_hermitian(rng, dim) for _ in range(40)])
        # a sigma_x block has exact magnitude ties in every column
        stack[0] = np.eye(dim)[::-1]
        es = eigh(stack)
        for m, w_got, v_got in zip(stack, es.eigenvalues, es.eigenvectors):
            w, v = np.linalg.eigh(m)
            for k in range(dim):
                pivot = int(np.argmax(np.abs(v[:, k])))
                ref = v[pivot, k]
                if ref != 0:
                    v[:, k] *= np.abs(ref) / ref
                v[pivot, k] = v[pivot, k].real
            assert np.array_equal(w_got, w)
            assert np.array_equal(v_got, v)


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_distance(a, b) - 1.0) < 1e-14

    def test_identical_states(self, rng):
        m = random_hermitian(rng, 3)
        rho = herm_exp(m, -1.0)
        rho = rho / np.trace(rho).real
        assert trace_distance(rho, rho) == 0.0

    def test_known_mixture(self):
        a = np.diag([0.75, 0.25]).astype(complex)
        b = np.diag([0.5, 0.5]).astype(complex)
        assert abs(trace_distance(a, b) - 0.25) < 1e-14


class TestScalarHelpers:
    def test_logsumexp_against_direct(self, rng):
        v = rng.normal(size=20)
        assert abs(logsumexp(v) - np.log(np.sum(np.exp(v)))) < 1e-12

    def test_logsumexp_extreme_range(self):
        v = np.array([-2000.0, 0.0, 1.0])
        direct = np.log(np.exp(-2001.0) + np.exp(-1.0) + 1.0) + 1.0
        assert abs(logsumexp(v) - direct) < 1e-12

    def test_softmax_sums_to_one(self, rng):
        p = shifted_softmax(rng.normal(size=8) * 50)
        assert abs(p.sum() - 1.0) < 1e-14
        assert np.all(p >= 0)

    def test_log_cosh_large_argument(self):
        # cosh overflows around 710; the log form must not
        x = 5000.0
        assert abs(log_cosh(x) - (x - np.log(2.0))) < 1e-12

    def test_log_cosh_small_argument(self):
        x = 1e-4
        assert abs(log_cosh(x) - np.log(np.cosh(x))) < 1e-15

    def test_log_cosh_elementwise(self):
        x = np.array([-5000.0, -3.0, -1e-4, 0.0, 1e-4, 0.7, 5000.0])
        assert np.array_equal(log_cosh(x), [log_cosh(float(v)) for v in x])


class TestCheckHermitian:
    def test_accepts_hermitian(self, rng):
        check_hermitian(random_hermitian(rng, 4), "m")

    def test_rejects_with_location(self):
        m = np.eye(3, dtype=complex)
        m[0, 2] = 1e-3
        with pytest.raises(NonHermitianError) as err:
            check_hermitian(m, "m")
        assert "(0, 2)" in str(err.value) or "(2, 0)" in str(err.value)

    def test_rejects_non_square(self):
        with pytest.raises(NonHermitianError):
            check_hermitian(np.zeros((2, 3)), "m")

    def test_rejects_nan(self):
        m = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NonHermitianError):
            check_hermitian(m, "m")
        with pytest.raises(NonHermitianError):
            trace_distance(m, np.eye(2))

    def test_stack_keeps_each_block_tolerance(self, rng):
        # the big block's scale must not widen the small block's tolerance
        small = np.eye(2, dtype=complex)
        small[0, 1] = 1e-6
        stack = np.stack([1e8 * random_hermitian(rng, 2), small])
        check_hermitian(stack[:1], "m")
        with pytest.raises(NonHermitianError, match=r"m\[1\] is not Hermitian"):
            check_hermitian(stack, "m")

    def test_stack_accepts_defect_inside_each_tolerance(self, rng):
        big = 1e8 * random_hermitian(rng, 2)
        big[0, 1] += 0.5 * HERMITICITY_RTOL * np.max(np.abs(big))
        check_hermitian(np.stack([big, np.eye(2)]), "m")


def exact_roots(a, b, c):
    """Both eigenvalues of [[a, conj(c)], [c, b]] to 50 digits."""
    from decimal import Decimal, getcontext

    getcontext().prec = 50
    a, b = Decimal(float(a)), Decimal(float(b))
    c2 = Decimal(float(c.real)) ** 2 + Decimal(float(c.imag)) ** 2
    r = (((a - b) / 2) ** 2 + c2).sqrt()
    return float((a + b) / 2 - r), float((a + b) / 2 + r)


class TestClosedForm2x2:
    @staticmethod
    def parts(blocks):
        return blocks[..., 0, 0].real, blocks[..., 1, 1].real, blocks[..., 1, 0]

    def test_matches_eigvalsh_on_random_blocks(self, rng):
        blocks = np.stack([random_hermitian(rng, 2) * 10.0 ** rng.uniform(-6, 6) for _ in range(500)])
        low, high = eigvalsh_2x2(*self.parts(blocks))
        want = np.linalg.eigvalsh(blocks)
        scale = np.max(np.abs(want), axis=1)
        assert np.all(np.abs(low - want[:, 0]) <= 2e-15 * scale)
        assert np.all(np.abs(high - want[:, 1]) <= 2e-15 * scale)
        assert np.array_equal(eigvalsh_stack(blocks), np.stack([low, high], axis=-1))

    def test_near_degenerate_blocks(self, rng):
        base = rng.uniform(-2.0, 2.0, size=200)
        split = 10.0 ** rng.uniform(-17, -8, size=200)
        c = split * np.exp(2j * np.pi * rng.random(200))
        low, high = eigvalsh_2x2(base, base + split, c)
        blocks = np.zeros((200, 2, 2), dtype=complex)
        blocks[:, 0, 0], blocks[:, 1, 1] = base, base + split
        blocks[:, 1, 0], blocks[:, 0, 1] = c, c.conj()
        want = np.linalg.eigvalsh(blocks)
        scale = np.max(np.abs(want), axis=1)
        assert np.all(np.abs(low - want[:, 0]) <= 2e-15 * scale)
        assert np.all(np.abs(high - want[:, 1]) <= 2e-15 * scale)
        assert np.all(low <= high)

    def test_zero_blocks_give_zero(self):
        zero = np.zeros(3)
        with np.errstate(all="raise"):
            low, high = eigvalsh_2x2(zero, zero, zero.astype(complex))
        assert np.array_equal(low, zero) and np.array_equal(high, zero)
        assert np.array_equal(trace_norm_stack(np.zeros((3, 2, 2), dtype=complex)), zero)

    def test_tiny_root_keeps_relative_digits(self):
        # nearly pure states: the lower root is far below the rounding of m - r
        a = np.array([1.0, 0.7, 1.0, -1e-3])
        b = np.array([1e-18, 2e-20, 1e-30, -3.0])
        c = np.array([1e-12j, 3e-12 + 4e-12j, 0.0, 1e-14])
        low, high = eigvalsh_2x2(a, b, c)
        for i in range(a.size):
            want = exact_roots(a[i], b[i], c[i])
            k = int(abs(want[1]) < abs(want[0]))  # the root nearer zero
            got = (low[i], high[i])[k]
            assert abs(got - want[k]) <= 1e-15 * abs(want[k]), (i, got, want)
        # m - r cancels to the rounding of the larger root
        m = 0.5 * (a[0] + b[0])
        assert abs(m - np.hypot(0.5 * (a[0] - b[0]), abs(c[0])) - low[0]) > 0.5 * low[0]

    def test_non_finite_block_stays_non_finite(self):
        low, high = eigvalsh_2x2(np.array([np.nan, 1.0]), np.array([0.0, 1.0]), np.zeros(2, complex))
        assert np.isnan(low[0]) and np.isnan(high[0]) and low[1] == high[1] == 1.0

    def test_trace_norms_match_eigvalsh(self, rng):
        for d in (2, 3):
            blocks = np.stack([random_hermitian(rng, d) for _ in range(50)])
            want = np.sum(np.abs(np.linalg.eigvalsh(blocks)), axis=1)
            assert np.max(np.abs(trace_norm_stack(blocks) - want)) < 1e-14
        assert np.array_equal(eigvalsh_stack(blocks), np.linalg.eigvalsh(blocks))
