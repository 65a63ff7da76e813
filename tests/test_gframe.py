import numpy as np
import pytest

from gweave import (
    CoefficientVector,
    DegenerateGFrameError,
    GFrame,
    GFrameFamily,
    apply_operator,
    apply_synthesis,
    canonical_dual,
    frame_bounds,
    frame_operator,
    induced_frame,
    is_g_orthonormal,
    minimal_k,
    op_norm,
    rank,
    synthesis_matrix,
)
from gweave import perturb
from gweave.generate import GenSpec, generate
from gweave.weaving import _gram_tensor

from _support import onb_frame, random_frame


E1 = np.array([[1.0, 0.0]])
E2 = np.array([[0.0, 1.0]])


def redundant_frame():
    return GFrame(2, (E1, E2, E1))


def hyperplane_frame(n, seed):
    """``n`` random rank-one blocks that all annihilate one unit vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    u /= np.linalg.norm(u)
    rows = v @ (np.eye(n) - u @ u.conj().T)
    return GFrame(n, tuple(rows[i : i + 1] for i in range(n)))


class TestGFrameModel:
    def test_block_validation(self):
        with pytest.raises(ValueError, match="columns"):
            GFrame(2, (np.ones((1, 3)),))

    @pytest.mark.parametrize("n", [True, 1.0, "1", 0, -1])
    def test_ambient_dim_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="ambient_dim"):
            GFrame(n, (np.ones((1, 1)),))

    def test_numpy_integer_ambient_dim_accepted(self):
        f = GFrame(np.int64(2), (E1,))
        assert f.ambient_dim == 2 and type(f.ambient_dim) is int

    @pytest.mark.parametrize(
        "blocks",
        [([[True, False]], [[0.0, 1.0]]), ([[1.0, 0.0]], [["0", "1.0"]]),
         ([[True, False]], [["0", "1.0"]]), ([[1.0, None]],)],
        ids=["bool-block", "str-block", "bool-then-str", "none-entry"],
    )
    def test_blocks_must_hold_numbers(self, blocks):
        with pytest.raises(ValueError, match="^matrix entries must be numbers, not bool"):
            GFrame(2, blocks)

    def test_needs_blocks(self):
        with pytest.raises(ValueError):
            GFrame(2, ())

    def test_blocks_are_read_only_copies(self):
        raw = np.array([[1.0, 0.0]])
        f = GFrame(2, (raw,))
        raw[0, 0] = 7.0
        assert f.blocks[0][0, 0] == 1.0
        with pytest.raises(ValueError):
            f.blocks[0][0, 0] = 3.0

    def test_dims(self):
        f = GFrame(3, (np.ones((2, 3)), np.ones((1, 3))))
        assert f.block_dims == (2, 1)
        assert f.coeff_dim == 3


class TestCoefficientVector:
    def test_roundtrip(self):
        c = CoefficientVector((np.array([1.0 + 1j]), np.array([2.0, 3.0])))
        back = CoefficientVector.from_stacked((1, 2), c.stacked())
        assert all(
            np.array_equal(a, b) for a, b in zip(c.segments, back.segments)
        )

    @pytest.mark.parametrize(
        "segments, index",
        [(([True], ["2.5"]), 1), ((np.ones(1), ["2.5"]), 2), ((np.ones(1), [b"1"]), 2),
         ((np.ones(2, dtype=bool),), 1), (([1.0, None],), 1)],
        ids=["bool-then-str", "str", "bytes", "bool-array", "none"],
    )
    def test_segments_must_hold_numbers(self, segments, index):
        with pytest.raises(ValueError) as info:
            CoefficientVector(segments)
        assert str(info.value) == f"segment {index}: entries must be numbers, not bool, str or bytes"

    @pytest.mark.parametrize("vec", [[True, False, True], ["1", "0", "2.5"], [1.0, 2.0, None]])
    def test_from_stacked_must_hold_numbers(self, vec):
        with pytest.raises(ValueError, match="^entries must be numbers, not bool, str or bytes$"):
            CoefficientVector.from_stacked((1, 2), vec)

    def test_matches(self):
        f = GFrame(2, (E1, np.ones((2, 2))))
        assert CoefficientVector((np.ones(1), np.ones(2))).matches(f)
        assert not CoefficientVector((np.ones(2), np.ones(1))).matches(f)


class TestOperators:
    def test_synthesis_of_onb_is_identity(self):
        np.testing.assert_allclose(synthesis_matrix(onb_frame(2)), np.eye(2))

    def test_synthesis_of_single_identity_block(self):
        f = GFrame(2, (np.eye(2),))
        np.testing.assert_allclose(synthesis_matrix(f), np.eye(2))

    def test_synthesis_times_analysis_is_frame_operator(self):
        f = random_frame(3, (1, 2, 2), seed=4)
        t = synthesis_matrix(f)
        np.testing.assert_allclose(t @ t.conj().T, frame_operator(f), atol=1e-10)

    def test_frame_operator_of_onb(self):
        np.testing.assert_allclose(frame_operator(onb_frame(2)), np.eye(2))

    def test_frame_operator_redundant(self):
        np.testing.assert_allclose(frame_operator(redundant_frame()), np.diag([2.0, 1.0]))

    def test_quadratic_form_matches_energy_sum(self):
        f = random_frame(3, (2, 1, 1), seed=8)
        s = frame_operator(f)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 1000)) + 1j * rng.standard_normal((3, 1000))
        quad = np.real(np.sum(x.conj() * (s @ x), axis=0))
        energy = np.zeros(1000)
        for b in f.blocks:
            energy += np.sum(np.abs(b @ x) ** 2, axis=0)
        np.testing.assert_allclose(quad, energy, atol=1e-9)

    def test_apply_synthesis_matches_matrix(self):
        f = random_frame(2, (1, 2), seed=12)
        c = CoefficientVector((np.array([1.0 + 2j]), np.array([3.0, -1j])))
        np.testing.assert_allclose(
            apply_synthesis(f, c), synthesis_matrix(f) @ c.stacked(), atol=1e-12
        )


class TestFrameBounds:
    def test_parseval_onb(self):
        fb = frame_bounds(onb_frame(2))
        assert fb.classification == "g-frame"
        assert fb.lower == pytest.approx(1.0, abs=1e-12)
        assert fb.upper == pytest.approx(1.0, abs=1e-12)

    def test_redundant(self):
        fb = frame_bounds(redundant_frame())
        assert (fb.lower, fb.upper) == (1.0, 2.0)

    def test_rank_deficient_is_degenerate(self):
        fb = frame_bounds(GFrame(2, (np.array([[2.0, 0.0]]),)))
        assert fb.classification == "degenerate"
        assert fb.lower == pytest.approx(0.0, abs=1e-15)
        assert fb.upper == pytest.approx(4.0, abs=1e-12)

    def test_completeness_iff_full_rank(self):
        for seed in range(6):
            f = random_frame(3, (1, 1, 2), seed=seed)
            fb = frame_bounds(f)
            assert (fb.lower > 0) == (rank(synthesis_matrix(f)) == 3)
        deficient = GFrame(2, (E1, 2 * E1))
        fb = frame_bounds(deficient)
        assert fb.lower == 0.0
        assert rank(synthesis_matrix(deficient)) == 1

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_rank_deficient_frames_are_degenerate(self, n):
        # The computed lower eigenvalue of S is rounding noise of about
        # eps * upper, so its square root cannot decide rank at the
        # rank_rtol threshold; the synthesis matrix's singular values can.
        for seed in range(25):
            f = hyperplane_frame(n, seed)
            assert rank(synthesis_matrix(f)) == n - 1
            assert frame_bounds(f).classification == "degenerate"

    def test_full_rank_ill_conditioned_is_bessel_only(self):
        f = GFrame(2, (E1, 1e-6 * E2))
        assert rank(synthesis_matrix(f)) == 2
        assert frame_bounds(f).classification == "g-bessel-only"


class TestCanonicalDual:
    def test_parseval_dual_is_itself(self):
        f = onb_frame(2)
        d = canonical_dual(f)
        for a, b in zip(d.blocks, f.blocks):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_redundant_dual_blocks(self):
        d = canonical_dual(redundant_frame())
        np.testing.assert_allclose(d.blocks[0], 0.5 * E1, atol=1e-12)
        np.testing.assert_allclose(d.blocks[1], E2, atol=1e-12)
        np.testing.assert_allclose(d.blocks[2], 0.5 * E1, atol=1e-12)

    def test_dual_bounds_are_reciprocal(self):
        f = random_frame(3, (2, 2), seed=21)
        fb = frame_bounds(f)
        db = frame_bounds(canonical_dual(f))
        assert db.lower == pytest.approx(1.0 / fb.upper, abs=1e-8)
        assert db.upper == pytest.approx(1.0 / fb.lower, abs=1e-8)

    def test_reconstruction(self):
        f = random_frame(3, (1, 2, 1), seed=6)
        d = canonical_dual(f)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 1000)) + 1j * rng.standard_normal((3, 1000))
        recon = np.zeros_like(x)
        for db, b in zip(d.blocks, f.blocks):
            recon += db.conj().T @ (b @ x)
        np.testing.assert_allclose(recon, x, atol=1e-8)

    def test_double_dual_is_identity(self):
        f = random_frame(2, (1, 1, 1), seed=33)
        dd = canonical_dual(canonical_dual(f))
        for a, b in zip(dd.blocks, f.blocks):
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateGFrameError):
            canonical_dual(GFrame(2, (E1,)))


class TestInducedFrame:
    def test_identity_block_splits_into_basis(self):
        ind = induced_frame(GFrame(2, (np.eye(2),)))
        assert ind.block_dims == (1, 1)
        np.testing.assert_allclose(ind.blocks[0], E1)
        np.testing.assert_allclose(ind.blocks[1], E2)

    def test_bounds_preserved(self):
        for seed in range(4):
            f = random_frame(3, (2, 2, 1), seed=seed)
            a = frame_bounds(f)
            b = frame_bounds(induced_frame(f))
            assert abs(a.lower - b.lower) < 1e-10
            assert abs(a.upper - b.upper) < 1e-10

    def test_rank_one_vector(self):
        ind = induced_frame(GFrame(2, (np.array([[1.0, 1.0]]),)))
        fb = frame_bounds(ind)
        assert fb.lower == pytest.approx(0.0, abs=1e-12)
        assert fb.upper == pytest.approx(2.0, abs=1e-12)
        # as a vector the induced element is the conjugated row
        np.testing.assert_allclose(ind.blocks[0], np.array([[1.0, 1.0]]))


class TestGOrthonormal:
    def test_onb_true(self):
        assert is_g_orthonormal(onb_frame(3))

    def test_redundant_parseval_false(self):
        scaled = GFrame(2, (E1 / np.sqrt(2), E2, E1 / np.sqrt(2)))
        fb = frame_bounds(scaled)
        assert fb.lower == pytest.approx(1.0, abs=1e-12)  # Parseval
        assert not is_g_orthonormal(scaled)  # three columns cannot be orthonormal in dim 2

    def test_unitary_row_split_true(self):
        f = generate(GenSpec(ambient_dim=4, block_dims=(2, 1, 1), kind="g-orthonormal", seed=5))
        assert is_g_orthonormal(f)


class TestApplyOperator:
    def test_identity_keeps_frame(self):
        f = random_frame(2, (1, 1), seed=3)
        g = apply_operator(f, np.eye(2))
        for a, b in zip(g.blocks, f.blocks):
            np.testing.assert_allclose(a, b)

    def test_uniform_scaling(self):
        fb = frame_bounds(apply_operator(onb_frame(2), 2.0 * np.eye(2)))
        assert fb.lower == pytest.approx(4.0, abs=1e-12)
        assert fb.upper == pytest.approx(4.0, abs=1e-12)

    def test_bounds_inside_predicted_interval(self):
        rng = np.random.default_rng(7)
        f = random_frame(3, (1, 1, 1, 1), seed=14)
        fb = frame_bounds(f)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 3 * np.eye(3)
        gb = frame_bounds(apply_operator(f, t))
        t_inv_norm = op_norm(np.linalg.inv(t))
        assert gb.lower >= fb.lower / t_inv_norm**2 - 1e-9
        assert gb.upper <= fb.upper * op_norm(t) ** 2 + 1e-9

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2 x 2"):
            apply_operator(onb_frame(2), np.eye(3))

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            apply_operator(onb_frame(2), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize(
        "t, message",
        [
            (np.eye(3), "operator must be 2 x 2, got (3, 3)"),
            (np.diag([1.0, 0.0]), "operator is singular at the working tolerance"),
            # Coercion comes first: a non-finite operator of the wrong shape.
            (np.full((3, 3), np.nan), "matrix entries must be finite (no NaN/Inf)"),
            # Coercion comes first: entries that are not numbers.
            (np.eye(2, dtype=bool), "matrix entries must be numbers, not bool, str or bytes"),
            ([["1", "0"], ["0", "1"]], "matrix entries must be numbers, not bool, str or bytes"),
        ],
        ids=["shape", "singular", "non-finite", "bool", "str"],
    )
    def test_messages(self, t, message):
        with pytest.raises(ValueError) as exc:
            apply_operator(onb_frame(2), t)
        assert str(exc.value) == message


def _real_mixed_frame(n, seed):
    """Nine real blocks of 1, 2 and 3 rows: their complex products carry
    signed zeros in the imaginary parts."""
    rng = np.random.default_rng(seed)
    return GFrame(n, tuple(rng.standard_normal((d, n)) for d in (1, 2, 3) * 3))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestGramTerms:
    """Every Gram term ``b* b`` and frame operator equals the per-block
    loop bit for bit, negative zeros included."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_frame_operator_is_the_sequential_sum(self, n):
        f = _real_mixed_frame(n, seed=n)
        expected = np.zeros((n, n), dtype=np.complex128)
        for b in f.blocks:
            expected += b.conj().T @ b
        assert np.array_equal(_bits(frame_operator(f)), _bits(expected))

    @pytest.mark.parametrize("n", [1, 3])
    def test_gram_tensor_holds_each_product(self, n):
        fam = GFrameFamily(
            tuple(_real_mixed_frame(n, seed) for seed in range(2)), allow_degenerate=True
        )
        grams = _gram_tensor(fam)
        assert grams.shape == (9, 2, n, n)
        for j, fr in enumerate(fam.frames):
            for i, b in enumerate(fr.blocks):
                assert np.array_equal(_bits(grams[i, j]), _bits(b.conj().T @ b))

    @pytest.mark.parametrize("n", [1, 3])
    def test_minimal_k_difference_grams(self, n, monkeypatch):
        fam = GFrameFamily(
            tuple(_real_mixed_frame(n, seed) for seed in range(3)), allow_degenerate=True
        )
        seen = []
        solve = perturb._max_ratios

        def spy(d_sym, m_sym, tol):
            seen.append(d_sym.copy())
            return solve(d_sym, m_sym, tol)

        monkeypatch.setattr(perturb, "_max_ratios", spy)
        minimal_k(fam)
        pairs = [(0, 1), (0, 2), (1, 2)]
        assert len(seen) == len(pairs)
        for d_sym, (j, l) in zip(seen, pairs):
            assert d_sym.shape == (9, 1, n, n)
            for i, (a, b) in enumerate(zip(fam.frames[j].blocks, fam.frames[l].blocks)):
                g = (a - b).conj().T @ (a - b)
                assert np.array_equal(_bits(d_sym[i, 0]), _bits((g + g.conj().T) / 2.0))
