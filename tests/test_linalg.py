import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gweave.linalg import (
    DEFAULT_TOL,
    Tolerance,
    _reals,
    hermitian_extremes,
    op_norm,
    pinv,
    rank,
    singular_extremes,
)

from _support import power_extremes


def random_matrix(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(n, seed):
    a = random_matrix(n, n, seed)
    return (a + a.conj().T) / 2


class TestTolerance:
    def test_defaults_valid(self):
        assert DEFAULT_TOL.rank_rtol > 0

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 0.5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Tolerance(rank_rtol=bad)


class TestReals:
    def test_python_and_numpy_reals_read_as_floats(self):
        values = _reals((1, 0.5, np.int8(-3), np.float32(0.25), np.float64(2.0)), "bad")
        assert values == (1.0, 0.5, -3.0, 0.25, 2.0)
        assert all(type(x) is float for x in values)

    @pytest.mark.parametrize(
        "bad", [True, np.bool_(True), "0.5", 1j, np.complex128(1), None, np.nan, -np.inf,
                np.float32(np.inf), pytest.param(10**400, id="1e400"), [1.0]]
    )
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError, match="^bad$"):
            _reals((0.0, bad), "bad")


class TestHermitianExtremes:
    def test_diagonal(self):
        assert hermitian_extremes(np.diag([4.0, 1.0])) == (1.0, 4.0)

    def test_identity(self):
        assert hermitian_extremes(np.eye(3)) == (1.0, 1.0)

    def test_matches_power_iteration_oracle(self):
        # Two-sided 1e-6 agreement needs a convergent oracle; plain Rayleigh
        # sampling cannot reach that accuracy in finitely many draws, so the
        # sampling check below is one-sided containment instead.
        m = random_hermitian(4, seed=11)
        lo, hi = hermitian_extremes(m)
        plo, phi = power_extremes(m)
        assert abs(lo - plo) < 1e-6
        assert abs(hi - phi) < 1e-6

    def test_rayleigh_quotients_contained(self):
        m = random_hermitian(4, seed=3)
        lo, hi = hermitian_extremes(m)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 10_000)) + 1j * rng.standard_normal((4, 10_000))
        x /= np.linalg.norm(x, axis=0)
        q = np.real(np.sum(x.conj() * (m @ x), axis=0))
        assert np.all(q >= lo - DEFAULT_TOL.eq_atol)
        assert np.all(q <= hi + DEFAULT_TOL.eq_atol)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_extremes(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_extremes(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            hermitian_extremes(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e6])
    def test_accepts_rounding_drift_at_any_scale(self, scale):
        # Each b* b product is Hermitian only up to rounding, and that drift
        # grows with the entries; the check must not depend on the scale.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = np.zeros((5, 5), dtype=np.complex128)
            for _ in range(40):
                b = scale * (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
                m += b.conj().T @ b
            lo, hi = hermitian_extremes(m)
            w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
            assert (lo, hi) == (w[0], w[-1])

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    def test_rejects_non_hermitian_at_any_scale(self, scale):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_extremes(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestSingularExtremes:
    def test_identity(self):
        assert singular_extremes(np.eye(2)) == (1.0, 1.0)

    def test_diagonal_with_zero_row(self):
        smin, smax = singular_extremes(np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        assert (smin, smax) == (1.0, 2.0)

    def test_matches_gram_matrix_oracle(self):
        m = random_matrix(5, 3, seed=2)
        smin, smax = singular_extremes(m)
        lo, hi = hermitian_extremes(m.conj().T @ m)
        assert abs(smin - np.sqrt(lo)) < 1e-9
        assert abs(smax - np.sqrt(hi)) < 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            singular_extremes(np.zeros((0, 3)))


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_singular_diagonal(self):
        np.testing.assert_allclose(
            pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
        )

    def test_zero_matrix(self):
        np.testing.assert_allclose(pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_left_inverse_of_full_rank(self):
        m = random_matrix(3, 3, seed=9)
        np.testing.assert_allclose(pinv(m) @ m, np.eye(3), atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 10**6),
    )
    def test_penrose_identities(self, rows, cols, seed):
        m = random_matrix(rows, cols, seed)
        p = pinv(m)
        atol = DEFAULT_TOL.eq_atol
        np.testing.assert_allclose(m @ p @ m, m, atol=atol)
        np.testing.assert_allclose(p @ m @ p, p, atol=atol)
        np.testing.assert_allclose((m @ p).conj().T, m @ p, atol=atol)
        np.testing.assert_allclose((p @ m).conj().T, p @ m, atol=atol)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
    def test_involution(self, rows, cols, seed):
        m = random_matrix(rows, cols, seed)
        np.testing.assert_allclose(pinv(pinv(m)), m, atol=DEFAULT_TOL.eq_atol)


class TestOpNormAndRank:
    def test_op_norm_identity(self):
        assert op_norm(np.eye(4)) == 1.0

    def test_op_norm_scaled_identity(self):
        assert op_norm(2.0 * np.eye(3)) == pytest.approx(2.0, abs=1e-14)

    def test_op_norm_equals_sigma_max(self):
        m = random_matrix(4, 2, seed=17)
        assert op_norm(m) == singular_extremes(m)[1]

    def test_rank_identity(self):
        assert rank(np.eye(5)) == 5

    def test_rank_zero(self):
        assert rank(np.zeros((3, 3))) == 0

    def test_rank_duplicated_rows(self):
        assert rank(np.vstack([np.eye(2), np.eye(2)])) == 2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6))
    def test_rank_bounded_by_min_dim(self, rows, cols, seed):
        m = random_matrix(rows, cols, seed)
        assert 0 <= rank(m) <= min(rows, cols)
