from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gweave import (
    BudgetExceededError,
    GFrame,
    GFrameFamily,
    Partition,
    apply_operator,
    assemble_weaving,
    bessel_sum_bound,
    canonical_dual,
    certify_woven,
    frame_bounds,
    frame_op_norm_check,
    op_norm,
    removal_bound,
    restrict_family,
    scaled_family,
    span_criterion,
    synthesis_matrix,
)
from gweave.generate import GenSpec, generate
from gweave.linalg import DEFAULT_TOL, rank
from gweave.weaving import (
    _BLOCK_FIRST,
    _CHUNK_ENTRIES,
    DEFAULT_BUDGET,
    WeavingReport,
    _decode_codes,
    _exhaustive_operators,
    _frame_operators,
    _gram_tensor,
    _partition_of,
)

from _support import (
    brute_universal_bounds,
    exhaustive_family_partitions,
    independent_family,
    noisy_family,
    onb_frame,
    random_frame,
    swapped_onb_family,
)


E1 = np.array([[1.0, 0.0]])
E2 = np.array([[0.0, 1.0]])


class TestDataModel:
    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition((0, 1))
        assert Partition((1, 2, 1)).group(1) == (1, 3)

    def test_family_requires_agreement(self):
        f = onb_frame(2)
        with pytest.raises(ValueError, match="at least two"):
            GFrameFamily((f,))
        other = GFrame(2, (np.eye(2),))
        with pytest.raises(ValueError, match="block dimensions"):
            GFrameFamily((f, other))

    def test_family_rejects_degenerate_member(self):
        good = onb_frame(2)
        bad = GFrame(2, (E1, 2 * E1))
        with pytest.raises(ValueError, match="degenerate"):
            GFrameFamily((good, bad))
        fam = GFrameFamily((good, bad), allow_degenerate=True)
        assert fam.m == 2


class TestAssemble:
    def test_all_first_member(self):
        fam = swapped_onb_family()
        w = assemble_weaving(fam, Partition((1, 1)))
        for a, b in zip(w.blocks, fam.frames[0].blocks):
            np.testing.assert_allclose(a, b)

    def test_alternating_on_identical_copies(self):
        f = onb_frame(2)
        fam = GFrameFamily((f, f))
        w = assemble_weaving(fam, Partition((1, 2)))
        for a, b in zip(w.blocks, f.blocks):
            np.testing.assert_allclose(a, b)

    def test_swapped_mixture_loses_rank(self):
        fam = swapped_onb_family()
        w = assemble_weaving(fam, Partition((1, 2)))
        np.testing.assert_allclose(w.blocks[0], E1)
        np.testing.assert_allclose(w.blocks[1], E1)
        fb = frame_bounds(w)
        assert fb.lower == pytest.approx(0.0, abs=1e-15)
        assert fb.upper == pytest.approx(2.0, abs=1e-12)

    def test_label_out_of_range(self):
        fam = swapped_onb_family()
        with pytest.raises(ValueError, match="out of range"):
            assemble_weaving(fam, Partition((1, 3)))
        with pytest.raises(ValueError, match="length"):
            assemble_weaving(fam, Partition((1,)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 3**4 - 1))
    def test_matches_reference_enumeration(self, code):
        fam = independent_family(2, (1, 1, 1, 1), 3, seed=5)
        labels = tuple(
            code // 3 ** (3 - i) % 3 + 1 for i in range(4)
        )
        w = assemble_weaving(fam, Partition(labels))
        for i, l in enumerate(labels):
            np.testing.assert_allclose(w.blocks[i], fam.frames[l - 1].blocks[i])


class TestDecode:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 6))
    def test_decode_is_lexicographic_product(self, m, big_n):
        codes = np.arange(m**big_n)
        got = _decode_codes(codes, m, big_n)
        expected = np.array(list(product(range(m), repeat=big_n)))
        assert np.array_equal(got, expected)

    def test_decode_beyond_int64_powers(self):
        # 2**79 does not fit in int64; the digits still come out.
        expected = np.zeros((2, 80), dtype=np.int64)
        expected[0, -1] = 1
        expected[1, [-3, -1]] = 1
        assert np.array_equal(_decode_codes(np.array([1, 5]), 2, 80), expected)


class TestCertifyWoven:
    def test_two_parseval_copies(self):
        f = onb_frame(2)
        rep = certify_woven(GFrameFamily((f, f)))
        assert rep.status == "woven"
        assert rep.universal_lower == pytest.approx(1.0, abs=1e-12)
        assert rep.universal_upper == pytest.approx(1.0, abs=1e-12)
        assert rep.partitions_checked == 4

    def test_swapped_onb_not_woven(self):
        rep = certify_woven(swapped_onb_family())
        assert rep.status == "not-woven"
        assert rep.witness_lower.labels == (1, 2)
        assert rep.universal_lower == pytest.approx(0.0, abs=1e-15)

    def test_contracted_copy_exact_lower(self):
        # Universal lower bound of {F, 0.9 F} for Parseval F is 0.81: the
        # mixed weaving diag(1, 0.81) is tight.  (The additive expression
        # 1 - 0.1^2 = 0.99 is NOT a valid bound here.)
        f = onb_frame(2)
        fam = GFrameFamily((f, apply_operator(f, 0.9 * np.eye(2))))
        rep = certify_woven(fam)
        assert rep.status == "woven"
        assert rep.universal_lower == pytest.approx(0.81, abs=1e-12)
        assert rep.universal_lower >= (1.0 - 0.1) ** 2 - 1e-12

    def test_matches_brute_force_oracle(self):
        for seed in range(4):
            fam = independent_family(3, (1, 1, 2), 2, seed=seed)
            rep = certify_woven(fam)
            low, up, wit_low, wit_up = brute_universal_bounds(fam)
            assert rep.universal_lower == pytest.approx(low, abs=1e-9)
            assert rep.universal_upper == pytest.approx(up, abs=1e-9)
            assert rep.witness_lower.labels == wit_low
            assert rep.witness_upper.labels == wit_up

    def test_matches_brute_force_oracle_three_members(self):
        fam = independent_family(2, (1, 2, 1, 1), 3, seed=23)
        rep = certify_woven(fam)
        low, up, wit_low, wit_up = brute_universal_bounds(fam)
        assert rep.partitions_checked == 3**4
        assert rep.universal_lower == pytest.approx(low, abs=1e-9)
        assert rep.universal_upper == pytest.approx(up, abs=1e-9)
        assert rep.witness_lower.labels == wit_low
        assert rep.witness_upper.labels == wit_up

    def test_exhaustive_budget(self):
        fam = independent_family(2, (1, 1, 1, 1), 2, seed=1)
        with pytest.raises(BudgetExceededError, match="2\\^4 = 16"):
            certify_woven(fam, budget=8)

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("budget", [0, -3])
    def test_rejects_budget_below_one(self, mode, budget):
        fam = noisy_family(2, (1, 1, 1), 2, seed=0)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            certify_woven(fam, mode=mode, budget=budget, seed=1)

    @pytest.mark.parametrize("sweep", [span_criterion])
    @pytest.mark.parametrize("budget", [0, -3])
    def test_other_sweeps_reject_budget_below_one(self, sweep, budget):
        fam = noisy_family(2, (1, 1, 1), 2, seed=0)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            sweep(fam, budget=budget)

    def test_sampled_finds_counterexample(self):
        rep = certify_woven(swapped_onb_family(), mode="sampled", budget=500, seed=3)
        assert rep.status == "not-woven"
        assert rep.witness_lower.labels in {(1, 2), (2, 1)}

    def test_sampled_inconclusive_on_woven_family(self):
        f = onb_frame(2)
        rep = certify_woven(GFrameFamily((f, f)), mode="sampled", budget=64, seed=0)
        assert rep.status == "sampled-no-counterexample"
        assert rep.partitions_checked == 64

    def test_deterministic_reports(self):
        fam = noisy_family(2, (1, 1, 1), 2, seed=9)
        a = certify_woven(fam, mode="sampled", budget=50, seed=42)
        b = certify_woven(fam, mode="sampled", budget=50, seed=42)
        assert a == b


class TestSpanCriterion:
    def test_copies_hold(self):
        f = random_frame(2, (1, 1, 1), seed=2)
        holds, witness = span_criterion(GFrameFamily((f, f)))
        assert holds and witness is None

    def test_swapped_fails_with_witness(self):
        holds, witness = span_criterion(swapped_onb_family())
        assert not holds
        assert witness.labels == (1, 2)

    @pytest.mark.parametrize("big_n", [40, 80])
    def test_first_witness_at_large_n(self, big_n):
        # Code 1, labels (1, ..., 1, 2), is the first weaving without e2; at
        # N = 80 the budget exceeds the int64 range.
        f1 = GFrame(2, (E1,) * (big_n - 1) + (E2,))
        f2 = GFrame(2, (E2,) * (big_n - 1) + (E1,))
        holds, witness = span_criterion(GFrameFamily((f1, f2)), budget=2 ** (big_n + 1))
        assert not holds
        assert witness.labels == (1,) * (big_n - 1) + (2,)

    def test_agrees_with_certification(self):
        for seed in range(6):
            fam = independent_family(3, (1, 1, 1, 1), 2, seed=seed)
            rep = certify_woven(fam)
            holds, _ = span_criterion(fam)
            assert holds == (rep.status == "woven")
        rep = certify_woven(swapped_onb_family())
        holds, _ = span_criterion(swapped_onb_family())
        assert holds == (rep.status == "woven") == False  # noqa: E712

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_duplicate_block_is_singular(self, n):
        # Exactly the weavings labelled (2, 1, ...) repeat a block, so they
        # are singular and (2, 1, 1, ..., 1) is the first of them.
        for seed in range(25):
            fam = _duplicate_block_family(n, seed)
            witness = (False, Partition((2, 1) + (1,) * (n - 2)))
            assert span_criterion(fam) == _span_reference(fam) == witness
            assert certify_woven(fam).status == "not-woven"

    @pytest.mark.parametrize("n", [6, 8, 10, 14])
    @pytest.mark.parametrize("seed", range(6))
    def test_reversed_basis_first_witness(self, n, seed):
        # Against its reversed copy a weaving spans iff labels[i] ==
        # labels[n - 1 - i] for all i, so code 1 is the first that does not.
        f = generate(GenSpec(n, (1,) * n, "riesz-basis", seed))
        fam = GFrameFamily((f, GFrame(n, f.blocks[::-1])))
        assert span_criterion(fam) == (False, Partition((1,) * (n - 1) + (2,)))

    def test_near_singular_candidates_confirmed_by_svd(self, monkeypatch):
        # Weavings (1, 2) and (2, 1) have s_min / s_max near 5e-8: their
        # eigenvalue ratio passes the screen, but the rank rule keeps both
        # at full rank, so each costs one SVD and the family spans.
        f = onb_frame(2)
        fam = GFrameFamily((f, GFrame(2, (E2 + 1e-7 * E1, E1 + 1e-7 * E2))))
        svd, calls = np.linalg.svd, []

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert span_criterion(fam) == (True, None)
        assert len(calls) == 2


def _duplicate_block_family(n: int, seed: int) -> GFrameFamily:
    """A basis of ``n`` rank-one blocks against a copy whose block 1 is the
    basis's block 2 and whose block 2 is a random vector."""
    f = random_frame(n, (1,) * n, seed)
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))
    return GFrameFamily((f, GFrame(n, (f.blocks[1], r) + f.blocks[2:])))


class TestBesselSum:
    def test_two_parseval(self):
        f = onb_frame(2)
        assert bessel_sum_bound(GFrameFamily((f, f))) == pytest.approx(2.0, abs=1e-12)

    def test_arithmetic(self):
        a = apply_operator(onb_frame(2), np.sqrt(2.0) * np.eye(2))
        b = apply_operator(onb_frame(2), np.sqrt(3.0) * np.eye(2))
        assert bessel_sum_bound(GFrameFamily((a, b))) == pytest.approx(5.0, abs=1e-12)

    def test_dominates_every_weaving_upper(self):
        for seed in range(4):
            fam = independent_family(2, (1, 1, 1), 3, seed=seed)
            rep = certify_woven(fam)
            assert rep.universal_upper <= bessel_sum_bound(fam) + 1e-9


class TestScaledFamily:
    def test_all_ones_unchanged(self):
        fam = noisy_family(2, (1, 1), 2, seed=4)
        scaled, predicted = scaled_family(fam, np.ones((2, 2)))
        rep = certify_woven(fam)
        assert predicted == (rep.universal_lower, rep.universal_upper)
        for fr_a, fr_b in zip(scaled.frames, fam.frames):
            for a, b in zip(fr_a.blocks, fr_b.blocks):
                np.testing.assert_allclose(a, b)

    def test_uniform_half_scaling(self):
        f = onb_frame(2)
        fam = GFrameFamily((f, f))
        scaled, predicted = scaled_family(fam, 0.5 * np.ones((2, 2)))
        assert predicted == (0.25, 0.25)
        rep = certify_woven(scaled)
        assert rep.universal_lower == pytest.approx(0.25, abs=1e-12)
        assert rep.universal_upper == pytest.approx(0.25, abs=1e-12)

    def test_random_scalars_bracketed(self):
        rng = np.random.default_rng(11)
        for seed in range(4):
            fam = noisy_family(2, (1, 1, 1), 2, seed=seed)
            scalars = rng.uniform(0.5, 1.5, (2, 3)) * np.exp(
                1j * rng.uniform(0, 2 * np.pi, (2, 3))
            )
            scaled, (plo, phi) = scaled_family(fam, scalars)
            rep = certify_woven(scaled)
            assert rep.universal_lower >= plo - 1e-9
            assert rep.universal_upper <= phi + 1e-9

    def test_zero_scalar_rejected(self):
        fam = noisy_family(2, (1, 1), 2, seed=0)
        scalars = np.ones((2, 2))
        scalars[0, 1] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            scaled_family(fam, scalars)

    def test_shape_checked(self):
        fam = noisy_family(2, (1, 1), 2, seed=0)
        with pytest.raises(ValueError, match="shape"):
            scaled_family(fam, np.ones((3, 2)))


class TestRemoval:
    def test_empty_drop_predicts_base_lower(self):
        fam = noisy_family(2, (1, 1, 1), 2, seed=7)
        rep = certify_woven(fam)
        rem = removal_bound(fam, ())
        assert rem.removed_upper == 0.0
        assert rem.predicted_lower == rep.universal_lower
        assert rem.hypothesis_ok

    def test_worked_redundant_example(self):
        f = GFrame(2, (E1, E2, 0.5 * E1))
        fam = GFrameFamily((f, f))
        rem = removal_bound(fam, (3,))
        assert rem.base_lower == pytest.approx(1.0, abs=1e-12)
        assert rem.removed_upper == pytest.approx(0.25, abs=1e-12)
        assert rem.predicted_lower == pytest.approx(0.75, abs=1e-12)
        assert rem.hypothesis_ok
        restricted_rep = certify_woven(rem.restricted)
        assert restricted_rep.universal_lower == pytest.approx(1.0, abs=1e-12)

    def test_random_instances_satisfy_bound(self):
        checked = 0
        for seed in range(8):
            fam = noisy_family(3, (1, 1, 1, 1), 2, seed=seed)
            rem = removal_bound(fam, (seed % 4 + 1,))
            if not rem.hypothesis_ok:
                continue
            checked += 1
            rep = certify_woven(rem.restricted)
            assert rep.universal_lower >= rem.predicted_lower - 1e-9
            for fr in rem.restricted.frames:
                assert frame_bounds(fr).is_frame
        assert checked >= 4

    def test_violated_hypothesis_reported(self):
        f = onb_frame(2)
        fam = GFrameFamily((f, f))
        rem = removal_bound(fam, (1,))  # removing e1 kills the whole direction
        assert not rem.hypothesis_ok

    def test_cannot_drop_everything(self):
        fam = swapped_onb_family()
        with pytest.raises(ValueError, match="every index"):
            removal_bound(fam, (1, 2))


class TestRestrictFamily:
    def test_full_keep_is_identity(self):
        fam = noisy_family(2, (1, 1, 1), 2, seed=3)
        res = restrict_family(fam, (1, 2, 3))
        for fr_a, fr_b in zip(res.frames, fam.frames):
            for a, b in zip(fr_a.blocks, fr_b.blocks):
                np.testing.assert_allclose(a, b)

    def test_monotone_lower_bound(self):
        for seed in range(4):
            fam = noisy_family(2, (1, 1, 1, 1), 2, seed=seed)
            res = restrict_family(fam, (1, 2, 3))
            full = certify_woven(fam)
            part = certify_woven(res)
            assert full.universal_lower >= part.universal_lower - 1e-9

    def test_single_index_from_swapped_not_woven(self):
        res = restrict_family(swapped_onb_family(), (1,))
        rep = certify_woven(res)
        assert rep.status == "not-woven"

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            restrict_family(swapped_onb_family(), ())


class TestFrameOpNormCheck:
    def test_single_member_partition(self):
        fam = noisy_family(2, (1, 1, 1), 2, seed=5)
        assert frame_op_norm_check(fam, Partition((2, 2, 2))) <= 1e-9

    def test_two_parseval_copies(self):
        f = onb_frame(2)
        fam = GFrameFamily((f, f))
        assert frame_op_norm_check(fam, Partition((1, 2))) <= 1e-9

    def test_random_partitions(self):
        fam = independent_family(3, (1, 2, 1), 2, seed=10)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = Partition(tuple(int(x) for x in rng.integers(1, 3, size=3)))
            assert frame_op_norm_check(fam, p) <= 1e-9

    def test_closed_form_is_the_maximum_over_unit_vectors(self):
        # lambda_max(sum_j R_j* R_j) - B ||S||, attained at the top
        # eigenvector; random unit vectors only approach it from below.
        fam = generate(GenSpec(4, (1,) * 6, "perturbed", seed=3))
        p = Partition((1, 2, 1, 2, 2, 1))
        value = frame_op_norm_check(fam, p)
        shift = bessel_sum_bound(fam) * frame_bounds(assemble_weaving(fam, p)).upper
        parts = [
            sum(b.conj().T @ b for i, b in enumerate(fr.blocks) if p.labels[i] == j + 1)
            for j, fr in enumerate(fam.frames)
        ]
        _, v = np.linalg.eigh(sum(r.conj().T @ r for r in parts))
        top = v[:, -1]
        attained = sum(np.linalg.norm(r @ top) ** 2 for r in parts) - shift
        assert value == pytest.approx(attained, rel=1e-12, abs=1e-12)
        rng = np.random.default_rng(0)
        f = rng.standard_normal((4, 1000)) + 1j * rng.standard_normal((4, 1000))
        f /= np.linalg.norm(f, axis=0)
        lhs = sum(np.sum(np.abs(r @ f) ** 2, axis=0) for r in parts)
        assert np.max(lhs) - shift <= value + 1e-12


class TestDualWeaving:
    def test_weaving_dual_bound_counterexample(self):
        # The reciprocal interval [1/B, 1/A] is NOT a valid envelope for the
        # woven family of per-member canonical duals: with members {(1),(2)}
        # and {(2),(1)} the base universal bounds are (2, 8), but the dual
        # family's exhaustive lower bound is 2/25 < 1/8.  Exact arithmetic:
        # duals are {(1/5),(2/5)} and {(2/5),(1/5)}; the mixed weaving sums
        # 1/25 + 1/25.
        lam = GFrame(1, (np.array([[1.0]]), np.array([[2.0]])))
        gam = GFrame(1, (np.array([[2.0]]), np.array([[1.0]])))
        fam = GFrameFamily((lam, gam))
        base = certify_woven(fam)
        assert base.status == "woven"
        assert base.universal_lower == pytest.approx(2.0, abs=1e-12)
        assert base.universal_upper == pytest.approx(8.0, abs=1e-12)
        duals = GFrameFamily((canonical_dual(lam), canonical_dual(gam)))
        rep = certify_woven(duals)
        assert rep.universal_lower == pytest.approx(0.08, abs=1e-12)
        assert rep.universal_lower < 1.0 / base.universal_upper - 1e-3

    def test_identical_members_make_reciprocal_bounds_tight(self):
        # When both members are the same frame the dual family's universal
        # bounds are exactly the reciprocals.
        f = random_frame(3, (1, 1, 1, 1), seed=40)
        fam = GFrameFamily((f, f))
        base = certify_woven(fam)
        duals = GFrameFamily((canonical_dual(f), canonical_dual(f)))
        rep = certify_woven(duals)
        assert rep.universal_lower == pytest.approx(1.0 / base.universal_upper, abs=1e-9)
        assert rep.universal_upper == pytest.approx(1.0 / base.universal_lower, abs=1e-9)

    def test_shared_frame_operator_does_not_make_reciprocal_bounds_tight(self):
        # A shared frame operator is not enough: a Parseval frame and its
        # rotation both have S = I, so each is its own canonical dual and
        # the dual family keeps the bounds (A, B) = (2 - c, c) with
        # c = 1 + sqrt(2)/3, outside [1/B, 1/A].
        angles = 2 * np.pi * np.arange(3) / 3
        members = []
        for shift in (0.0, np.pi / 4):
            members.append(GFrame(2, tuple(
                np.sqrt(2 / 3) * np.array([[np.cos(a + shift), np.sin(a + shift)]])
                for a in angles
            )))
        for fr in members:
            fb = frame_bounds(fr)
            assert fb.lower == pytest.approx(1.0, abs=1e-12)
            assert fb.upper == pytest.approx(1.0, abs=1e-12)
        base = certify_woven(GFrameFamily(tuple(members)))
        c = 1.0 + np.sqrt(2.0) / 3.0
        assert base.universal_lower == pytest.approx(2.0 - c, abs=1e-12)
        assert base.universal_upper == pytest.approx(c, abs=1e-12)
        rep = certify_woven(GFrameFamily(tuple(canonical_dual(fr) for fr in members)))
        assert rep.universal_lower == pytest.approx(base.universal_lower, abs=1e-12)
        assert rep.universal_upper == pytest.approx(base.universal_upper, abs=1e-12)
        assert rep.universal_lower < 1.0 / base.universal_upper - 0.1


class TestTransport:
    def test_invertible_operator_brackets_bounds(self):
        rng = np.random.default_rng(19)
        fam = noisy_family(3, (1, 1, 1, 1), 2, seed=2)
        base = certify_woven(fam)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 3 * np.eye(3)
        moved = GFrameFamily(tuple(apply_operator(fr, t) for fr in fam.frames))
        rep = certify_woven(moved)
        t_inv_norm = op_norm(np.linalg.inv(t))
        assert rep.universal_lower >= base.universal_lower / t_inv_norm**2 - 1e-8
        assert rep.universal_upper <= base.universal_upper * op_norm(t) ** 2 + 1e-8


# The weaving sweep as it was before prefix sums: every chunk of 8192 codes
# is decoded, gathered into a (rows, N, n, n) tensor, summed, and reduced
# row by row.  The engine must reproduce it exactly.
_REFERENCE_CHUNK = 8192


def _reference_spectra(grams, labels0):
    s = grams[np.arange(grams.shape[0]), labels0].sum(axis=1)
    return np.linalg.eigvalsh(s)


def _certify_reference(fam, mode="exhaustive", budget=DEFAULT_BUDGET, seed=None, tol=DEFAULT_TOL):
    grams = _gram_tensor(fam)
    m, big_n = fam.m, fam.n_indices
    best_low, best_up = np.inf, -np.inf
    wit_low = wit_up = None
    if mode == "exhaustive":
        total = m**big_n
        for start in range(0, total, _REFERENCE_CHUNK):
            codes = np.arange(start, min(start + _REFERENCE_CHUNK, total), dtype=np.int64)
            labels0 = _decode_codes(codes, m, big_n)
            w = _reference_spectra(grams, labels0)
            i = int(np.argmin(w[:, 0]))
            if w[i, 0] < best_low:
                best_low, wit_low = float(w[i, 0]), labels0[i].copy()
            i = int(np.argmax(w[:, -1]))
            if w[i, -1] > best_up:
                best_up, wit_up = float(w[i, -1]), labels0[i].copy()
        checked = total
        status = "woven" if best_low > tol.frame_rtol * best_up else "not-woven"
    else:
        rng = np.random.default_rng(seed)
        checked = 0
        failed = False
        while checked < budget and not failed:
            take = min(_REFERENCE_CHUNK, budget - checked)
            labels0 = rng.integers(0, m, size=(take, big_n))
            w = _reference_spectra(grams, labels0)
            bad = w[:, 0] <= tol.frame_rtol * w[:, -1]
            stop = int(np.argmax(bad)) + 1 if bad.any() else take
            for i in range(stop):
                if w[i, 0] < best_low:
                    best_low, wit_low = float(w[i, 0]), labels0[i].copy()
                if w[i, -1] > best_up:
                    best_up, wit_up = float(w[i, -1]), labels0[i].copy()
            checked += stop
            failed = bool(bad.any())
        status = "not-woven" if failed else "sampled-no-counterexample"
    return WeavingReport(
        status=status,
        universal_lower=max(best_low, 0.0),
        universal_upper=max(best_up, 0.0),
        witness_lower=_partition_of(wit_low),
        witness_upper=_partition_of(wit_up),
        partitions_checked=checked,
        mode=mode,
        seed=seed,
    )


def _span_reference(fam, tol=DEFAULT_TOL):
    """The first weaving in code order whose synthesis matrix has rank below n."""
    for p in exhaustive_family_partitions(fam):
        if rank(synthesis_matrix(assemble_weaving(fam, p)), tol) < fam.ambient_dim:
            return False, p
    return True, None


def _late_failure_family(big_n: int = 15) -> GFrameFamily:
    """Two members whose weavings fail exactly when labels start (2, 1).

    Index 1 is e2 in member 1 and e1 in member 2, index 2 the other way
    round, and every later block is a multiple of e1.  The first failing
    code is ``2**(N-1)``, past the first chunk for ``N = 15``.
    """
    rng = np.random.default_rng(3)
    members = []
    for first, second in ((E2, E1), (E1, E2)):
        rest = tuple(c * E1 for c in rng.uniform(0.5, 1.5, big_n - 2))
        members.append(GFrame(2, (first, second) + rest))
    return GFrameFamily(tuple(members))


class TestEngineMatchesGatherReference:
    """Prefix-sum engine against the gather-and-sum sweep: exact equality."""

    # The one-chunk shapes fit the entry cap whole; the engine still cuts
    # them into m chunks, one per first label.
    @pytest.mark.parametrize(
        "m, big_n",
        [(2, 8), (3, 5), (2, 15), (3, 9)],
        ids=["one-chunk-m2", "one-chunk-m3", "chunks-m2", "chunks-m3"],
    )
    def test_exhaustive_report(self, m, big_n):
        fam = noisy_family(3, (1, 2) * (big_n // 2) + (1,) * (big_n % 2), m, seed=big_n, noise=0.2)
        rep = certify_woven(fam)
        assert rep == _certify_reference(fam)
        assert rep.partitions_checked == m**big_n

    # (2, 17) has a four-label prefix and (3, 10) a two-label one, so the
    # prefix sum order and the partial sums kept across chunks show.
    @pytest.mark.parametrize("m, big_n", [(2, 8), (3, 5), (2, 15), (3, 9), (2, 17), (3, 10)])
    def test_spectra_in_code_order(self, m, big_n):
        fam = noisy_family(2, (1,) * big_n, m, seed=m + big_n, noise=0.3)
        grams = _gram_tensor(fam)
        firsts, operators = zip(*_exhaustive_operators(grams, m))
        assert firsts == tuple(np.cumsum((0,) + tuple(map(len, operators[:-1]))))
        codes = np.arange(m**big_n, dtype=np.int64)
        expected = _reference_spectra(grams, _decode_codes(codes, m, big_n))
        assert np.array_equal(np.linalg.eigvalsh(np.concatenate(operators)), expected)

    def test_not_woven_witness_past_first_chunk(self):
        fam = _late_failure_family()
        rep = certify_woven(fam)
        assert rep.status == "not-woven"
        assert rep.witness_lower.labels[:2] == (2, 1)
        assert rep == _certify_reference(fam)

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_ties_keep_the_first_weaving_across_chunks(self, mode):
        # Identical members: every weaving has the same frame operator bit
        # for bit, so every chunk ties and the witnesses come from the first.
        f = random_frame(2, (1,) * 15, seed=6)
        fam = GFrameFamily((f, f))
        rep = certify_woven(fam, mode=mode, budget=40_000, seed=1)
        assert rep == _certify_reference(fam, mode=mode, budget=40_000, seed=1)
        if mode == "exhaustive":
            assert rep.witness_lower.labels == rep.witness_upper.labels == (1,) * 15

    def test_span_witness_past_first_chunk(self):
        fam = _late_failure_family()
        holds, witness = span_criterion(fam)
        assert not holds
        assert witness.labels == (2, 1) + (1,) * 13
        assert (holds, witness) == _span_reference(fam)

    def test_span_holds(self):
        fam = noisy_family(3, (1, 2) * 7, 2, seed=1, noise=0.2)
        assert span_criterion(fam) == _span_reference(fam) == (True, None)

    # The budget spans three of the reference's 8192-row draws, which sampled
    # mode cuts into row blocks instead.
    @pytest.mark.parametrize("seed, m", [(4, 2), (17, 2), (4, 3)], ids=["4", "17", "4-m3"])
    def test_sampled_woven_runs_full_budget(self, seed, m):
        fam = noisy_family(3, (1, 2) * 12, m, seed=seed, noise=0.2)
        rep = certify_woven(fam, mode="sampled", budget=20_000, seed=seed)
        assert rep.status == "sampled-no-counterexample"
        assert rep.partitions_checked == 20_000
        assert rep == _certify_reference(fam, mode="sampled", budget=20_000, seed=seed)

    @pytest.mark.parametrize("seed", [4, 17])
    def test_sampled_early_exit(self, seed):
        fam = _late_failure_family()
        rep = certify_woven(fam, mode="sampled", budget=50_000, seed=seed)
        assert rep.status == "not-woven"
        assert rep.partitions_checked < 50_000
        assert rep.witness_lower.labels[:2] == (2, 1)
        assert rep == _certify_reference(fam, mode="sampled", budget=50_000, seed=seed)

    def test_sums_equal_gather(self):
        fam = noisy_family(4, (2,) * 20, 3, seed=8, noise=0.2)
        grams = _gram_tensor(fam)
        labels0 = np.random.default_rng(8).integers(0, 3, size=(500, 20))
        gathered = grams[np.arange(20), labels0].sum(axis=1)
        assert np.array_equal(_frame_operators(grams, labels0), gathered)
        assert np.array_equal(
            np.linalg.eigvalsh(_frame_operators(grams, labels0)), np.linalg.eigvalsh(gathered)
        )


def _sampled_rows(seed: int, big_n: int, budget: int) -> np.ndarray:
    """The label rows sampled mode draws for ``m = 2`` when nothing fails."""
    rng = np.random.default_rng(seed)
    takes = [min(_REFERENCE_CHUNK, budget - k) for k in range(0, budget, _REFERENCE_CHUNK)]
    return np.concatenate([rng.integers(0, 2, size=(take, big_n)) for take in takes])


def _single_failure_family(target) -> GFrameFamily:
    """Two members whose only failing weaving has the 0-based labels ``target``.

    Block i is a multiple of e1 in member ``target[i]`` and of e2 in the
    other, so a weaving lies in span{e1} exactly when it equals ``target``.
    """
    rng = np.random.default_rng(5)
    scales = rng.uniform(0.5, 1.5, size=(2, len(target)))
    members = tuple(
        GFrame(2, tuple(c * (E1 if t == j else E2) for c, t in zip(scales[j], target)))
        for j in range(2)
    )
    return GFrameFamily(members)


def _family_failing_first_at(seed: int, row: int, big_n: int = 24, budget: int = 3 * 8192):
    """A family whose first failing sampled row under ``seed`` is ``row``."""
    rows = _sampled_rows(seed, big_n, max(budget, row + 1))
    assert not (rows[:row] == rows[row]).all(axis=1).any()
    return _single_failure_family(rows[row])


class TestSampledRowBlocks:
    """Sampled mode checks each draw in doubling row blocks: exact equality
    with whole-draw checking wherever the first failing row falls."""

    # Row 0; the first block's last row and the next block's first; the
    # first 512-row block; a draw's last row; the second and third draws.
    @pytest.mark.parametrize("row", [0, 15, 16, 495, 496, 8191, 8192, 8892, 16387])
    def test_first_failure_at_row(self, row):
        fam = _family_failing_first_at(seed=7, row=row)
        rep = certify_woven(fam, mode="sampled", budget=3 * 8192, seed=7)
        assert rep.status == "not-woven"
        assert rep.partitions_checked == row + 1
        assert rep == _certify_reference(fam, mode="sampled", budget=3 * 8192, seed=7)

    # 10_001 is a multiple of no block size and of no draw size.
    @pytest.mark.parametrize("row, status", [(10_000, "not-woven"), (12_000, "sampled-no-counterexample")])
    def test_budget_off_every_block_size(self, row, status):
        fam = _family_failing_first_at(seed=11, row=row)
        rep = certify_woven(fam, mode="sampled", budget=10_001, seed=11)
        assert rep.status == status
        assert rep.partitions_checked == min(row + 1, 10_001)
        assert rep == _certify_reference(fam, mode="sampled", budget=10_001, seed=11)

    def test_failure_at_row_one_takes_one_block(self, monkeypatch):
        fam = _family_failing_first_at(seed=3, row=1)
        expected = _certify_reference(fam, mode="sampled", budget=3 * 8192, seed=3)
        matrices = _counting_eigvalsh(monkeypatch)
        rep = certify_woven(fam, mode="sampled", budget=3 * 8192, seed=3)
        assert rep == expected
        assert sum(matrices) <= _BLOCK_FIRST


def _counting_eigvalsh(monkeypatch) -> list:
    """Patch ``np.linalg.eigvalsh`` to record the matrix count of each call."""
    eigvalsh, matrices = np.linalg.eigvalsh, []

    def counting(a, *args, **kwargs):
        matrices.append(np.asarray(a)[..., 0, 0].size)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return matrices


def _tied_family(seed: int, rel: float, tied: str, big_n: int = 15) -> GFrameFamily:
    """Two members whose weavings share one extreme eigenvalue up to ``rel``.

    Block i of member j is ``diag(t_ij, f_ij) Q`` for one random unitary
    ``Q``, so ``S = Q* diag(sum t**2, sum f**2) Q``.  The tied entries,
    ``t_i2 = t_i1 (1 + rel z_i)``, set the lower bound (``tied="lower"``)
    or the upper one; the free entries spread the other bound.  Many blocks
    then pass one Cholesky test and sit within rounding of the other bound.
    """
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    small, large = (0.5, 1.0), (2.0, 3.0)
    t_range, f_range = (small, large) if tied == "lower" else (large, small)
    t = rng.uniform(*t_range, big_n)
    members = []
    for j in range(2):
        t_j = t * (1 + rel * rng.standard_normal(big_n)) if j else t
        f_j = rng.uniform(*f_range, big_n)
        members.append(GFrame(2, tuple(np.diag([x, y]) @ q for x, y in zip(t_j, f_j))))
    return GFrameFamily(tuple(members))


class TestExhaustiveScreen:
    """Exhaustive mode skips the spectra of row blocks that a Cholesky test
    shows cannot move the running bounds: exact equality with the sweep that
    diagonalises every weaving."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_most_spectra_skipped(self, seed, monkeypatch):
        fam = noisy_family(3, (1, 2) * 7 + (1,), 2, seed, noise=0.2)
        expected = _certify_reference(fam)
        matrices = _counting_eigvalsh(monkeypatch)
        assert certify_woven(fam) == expected
        assert sum(matrices) <= 2**15 // 4

    def test_chunks_bounded_by_entries(self):
        n, big_n = 16, 13
        fam = noisy_family(n, (2,) * big_n, 2, seed=5, noise=0.2)
        rows = [len(s) for _, s in _exhaustive_operators(_gram_tensor(fam), 2)]
        assert sum(rows) == 2**big_n
        assert max(rows) * n * n <= _CHUNK_ENTRIES

    # Exact ties differ only by rounding; near ties by about 1e-14
    # relative.  Both sit well inside the screen's margin.
    @pytest.mark.parametrize("tied", ["lower", "upper"])
    @pytest.mark.parametrize("rel", [0.0, 1e-14])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_ties(self, tied, rel, seed):
        fam = _tied_family(seed, rel, tied)
        assert certify_woven(fam) == _certify_reference(fam)

    # All but 2**(n/2) weavings are exactly singular, so the lower test
    # fails on every block.
    @pytest.mark.parametrize("n", [10, 14])
    def test_singular_weavings(self, n):
        f = generate(GenSpec(n, (1,) * n, "riesz-basis", n))
        fam = GFrameFamily((f, GFrame(n, f.blocks[::-1])))
        assert certify_woven(fam) == _certify_reference(fam)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(2, 3),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=10),
    n=st.integers(2, 4),
)
def test_screened_sweep_matches_reference(seed, m, dims, n):
    # Block rows (synthesis columns) scaled by 10**u, u uniform in [-3, 3].
    n = min(n, sum(dims))
    rng = np.random.default_rng(seed)
    members = tuple(
        GFrame(n, tuple(
            10.0 ** rng.uniform(-3.0, 3.0, (d, 1))
            * (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
            for d in dims
        ))
        for _ in range(m)
    )
    fam = GFrameFamily(members, allow_degenerate=True)
    assert certify_woven(fam) == _certify_reference(fam)


def _swapped_members(fam: GFrameFamily) -> GFrameFamily:
    return GFrameFamily(fam.frames[::-1])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), big_n=st.integers(2, 6))
def test_swapping_members_relabels_witnesses(seed, big_n):
    # S_sigma of the swapped family under the relabelled sigma adds the same
    # terms in the same order, so the bounds agree bit for bit.
    fam = noisy_family(2, (1,) * big_n, 2, seed=seed, noise=0.2)
    base, swapped = certify_woven(fam), certify_woven(_swapped_members(fam))
    assert swapped.universal_lower == base.universal_lower
    assert swapped.universal_upper == base.universal_upper
    assert swapped.status == base.status
    flip = lambda p: tuple(3 - x for x in p.labels)  # noqa: E731
    assert swapped.witness_lower.labels == flip(base.witness_lower)
    assert swapped.witness_upper.labels == flip(base.witness_upper)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    modulus=st.floats(0.05, 20.0),
    sign=st.sampled_from([1.0, -1.0, 1j, -1j]),
)
def test_common_scaling_scales_bounds(seed, modulus, sign):
    fam = noisy_family(2, (1, 1, 2, 1), 2, seed=seed, noise=0.05)
    c = modulus * sign
    scaled = GFrameFamily(tuple(
        GFrame(2, tuple(c * b for b in fr.blocks)) for fr in fam.frames
    ))
    base, rep = certify_woven(fam), certify_woven(scaled)
    assert rep.status == base.status
    assert rep.universal_lower == pytest.approx(abs(c) ** 2 * base.universal_lower, rel=1e-12)
    assert rep.universal_upper == pytest.approx(abs(c) ** 2 * base.universal_upper, rel=1e-12)
