import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gweave.linalg import (
    DEFAULT_TOL,
    Tolerance,
    _complex_array,
    _reals,
    as_matrix,
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

    @pytest.mark.parametrize("name", ["rank_rtol", "frame_rtol", "eq_atol"])
    @pytest.mark.parametrize("bad", ["1e-3", True, np.bool_(True), None, 1e-3 + 0j, np.nan, np.inf])
    def test_rejects_non_reals(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be a finite real, got "):
            Tolerance(**{name: bad})

    def test_numpy_reals_read_as_floats(self):
        tol = Tolerance(np.float32(0.0009765625), np.float64(1e-12), np.int64(0) + 1e-9)
        assert (tol.rank_rtol, tol.frame_rtol, tol.eq_atol) == (2.0**-10, 1e-12, 1e-9)
        assert all(type(x) is float for x in (tol.rank_rtol, tol.frame_rtol, tol.eq_atol))


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


class TestComplexArray:
    """One rule for library arrays: the dtype numpy infers must be a number's."""

    @pytest.mark.parametrize(
        "a",
        [[[1, 2]], [[0.5, -1.0]], [[1j, 2.0]], np.eye(2, dtype=np.float32), np.arange(3),
         [[True, 2.0]], [[True, 2]]],
        ids=["int", "float", "complex", "float32", "int-array", "bool-and-float",
             "bool-and-int"],
    )
    def test_numbers_read_as_complex(self, a):
        got = _complex_array(a, "bad")
        assert got.dtype == np.complex128
        assert np.array_equal(got, np.asarray(a, dtype=np.complex128))

    def test_complex_input_is_not_copied(self):
        a = np.eye(2, dtype=np.complex128)
        assert _complex_array(a, "bad") is a

    @pytest.mark.parametrize(
        "a",
        [[[True, False]], np.ones((2, 2), dtype=bool), [["0", "1.0"]], [[b"1"]],
         [[None, 1.0]], [[1.0, "2"]], [[True, "2"]], np.array([[1.0]], dtype=object)],
        ids=["bool", "bool-array", "str", "bytes", "none", "float-and-str", "bool-and-str",
             "object-array"],
    )
    def test_rejects_bool_str_bytes_and_object(self, a):
        with pytest.raises(ValueError, match="^bad$"):
            _complex_array(a, "bad")

    @pytest.mark.parametrize(
        "call",
        [lambda: as_matrix([[True, False]]), lambda: as_matrix([["0", "1.0"]]),
         lambda: hermitian_extremes([["2", "0"], ["0", "1"]]),
         lambda: hermitian_extremes(np.eye(2, dtype=bool)),
         lambda: singular_extremes([[b"1"]]), lambda: rank([[None]])],
        ids=["as-matrix-bool", "as-matrix-str", "hermitian-str", "hermitian-bool",
             "singular-bytes", "rank-object"],
    )
    def test_matrix_entry_points(self, call):
        with pytest.raises(ValueError, match="^matrix entries must be numbers, not bool"):
            call()


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
