import warnings
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    frame_operator,
    hermitian_extremes,
    op_norm,
    removal_bound,
    restrict_family,
    scaled_family,
    span_criterion,
    synthesis_matrix,
)
import gweave.weaving
from gweave.generate import GenSpec, generate
from gweave.linalg import DEFAULT_TOL, rank
from gweave.weaving import (
    _BLOCK_FIRST,
    _SCREEN_ROWS,
    DEFAULT_BUDGET,
    WeavingReport,
    _envelopes,
    _factors,
    _frame_operators,
    _gram_tensor,
    _label_blocks,
    _partition_of,
    _RowScreen,
    _search_side,
    _seed_weavings,
    _suffix_sums,
    _walk,
)

from _support import (
    _counting_gemm_rows,
    _counting_svd,
    _recording_screen,
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

    # int() would read 1.9 and True as 1.
    @pytest.mark.parametrize("labels", [(1.9, 2), (True, 2), (2.0, 1), ("1", 2)])
    def test_partition_rejects_non_integer_labels(self, labels):
        with pytest.raises(ValueError, match="integers"):
            Partition(labels)

    def test_partition_accepts_numpy_integers(self):
        p = Partition(np.array([1, 2, 1], dtype=np.int32))
        assert p.labels == (1, 2, 1) and all(type(x) is int for x in p.labels)

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

    # int() would read True as 1, and numpy raises TypeError on 10.5 or 1.5.
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize(
        "kw, message",
        [({"budget": True}, "budget"), ({"budget": 10.5}, "budget"),
         ({"seed": True}, "seed"), ({"seed": 1.5}, "seed")],
    )
    def test_rejects_non_integer_budget_and_seed(self, mode, kw, message):
        fam = noisy_family(2, (1, 1, 1), 2, seed=0)
        with pytest.raises(ValueError, match=f"{message} must be an integer"):
            certify_woven(fam, mode=mode, **{"budget": 64, "seed": 1, **kw})

    # numpy's generators reject a negative seed with a message that names
    # no field; exhaustive mode takes none, but reports the one it is given.
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("seed", [-1, np.int64(-(2**40))])
    def test_rejects_negative_seed(self, mode, seed):
        fam = noisy_family(2, (1, 1, 1), 2, seed=0)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -"):
            certify_woven(fam, mode=mode, budget=64, seed=seed)

    @pytest.mark.parametrize("budget", [True, 10.5])
    def test_other_sweeps_reject_non_integer_budget(self, budget):
        with pytest.raises(ValueError, match="budget must be an integer"):
            span_criterion(noisy_family(2, (1, 1, 1), 2, seed=0), budget=budget)

    def test_numpy_integer_budget_and_seed_accepted(self):
        fam = noisy_family(2, (1, 1, 1), 2, seed=0)
        rep = certify_woven(fam, mode="sampled", budget=np.int32(40), seed=np.int64(1))
        assert rep == certify_woven(fam, mode="sampled", budget=40, seed=1)
        assert type(rep.seed) is int

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
        calls = _counting_svd(monkeypatch)
        assert span_criterion(fam) == (True, None)
        assert len(calls) == 2

    # A planted weaving keeps only `scale` of its blocks' component along a
    # random vector: 0 makes it singular, and 1e-11 to 1e-9 put its s_min /
    # s_max around the rank threshold (rank_rtol * maxdim).  Every other
    # block is 10**decades times larger, so the screen's GEMM sums cancel on
    # the planted weaving and only the margin mu keeps it a candidate.
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 3),
        big_n=st.integers(1, 12),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([None, 0.0, 1e-11, 1e-10, 1e-9, 1e-6]),
        decades=st.sampled_from([0, 3, 6]),
    )
    def test_matches_reference(self, m, big_n, n, seed, scale, decades):
        assume(m**big_n <= 4096)
        fam = _planted_family(m, big_n, n, seed, scale, decades)
        assert span_criterion(fam) == _span_reference(fam)

    # Every block scaled by 2**64 or 2**-64 scales every Gram term by a
    # power of two, exactly: the floor, the margin mu and the Cholesky
    # tests scale with them, so the same rows take the SVD.  On these
    # planted families 11 to 32 rows do.
    @pytest.mark.parametrize("scale", [2.0**64, 2.0**-64])
    @pytest.mark.parametrize("planted", [1e-9, 1e-6])
    def test_screen_decisions_do_not_depend_on_scale(self, scale, planted, monkeypatch):
        calls = _counting_svd(monkeypatch)
        results = []
        for seed in range(3):
            fam = _planted_family(2, 10, 3, seed, planted, decades=6)
            scaled = GFrameFamily(tuple(
                GFrame(3, tuple(scale * b for b in fr.blocks)) for fr in fam.frames
            ), allow_degenerate=True)
            for f in (fam, scaled):
                start = len(calls)
                results.append((span_criterion(f), len(calls) - start))
        assert results[0::2] == results[1::2]
        assert all(count > 10 for _, count in results)

    # The only eigvalsh is U's, on the sum of every Gram term: no weaving
    # operator is diagonalised, and a family spanning by a wide margin
    # takes no SVD.
    def test_woven_walk_diagonalises_no_weaving(self, monkeypatch):
        fam = noisy_family(3, (1, 2) * 5, 2, seed=1, noise=0.2)
        matrices, calls = _counting_eigvalsh(monkeypatch), _counting_svd(monkeypatch)
        assert span_criterion(fam) == (True, None)
        assert matrices == [1] and calls == []


def _planted_family(m, big_n, n, seed, scale, decades) -> GFrameFamily:
    """``m`` members of ``big_n`` blocks of 1 or 2 rows in ``C^n``; one
    planted weaving keeps only ``scale`` of its blocks' component along a
    random vector (``None`` leaves it whole), and every other block is
    ``10**decades`` times larger."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 3, big_n)
    blocks = rng.standard_normal((m, big_n, 2, n)) + 1j * rng.standard_normal((m, big_n, 2, n))
    planted = rng.integers(0, m, big_n)
    blocks[np.arange(m)[:, None] != planted] *= 10.0**decades
    if scale is not None:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        squeeze = np.eye(n) - (1 - scale) * np.outer(v, v.conj())
        blocks[planted, np.arange(big_n)] = blocks[planted, np.arange(big_n)] @ squeeze
    return GFrameFamily(
        tuple(GFrame(n, tuple(b[:d] for b, d in zip(member, dims))) for member in blocks),
        allow_degenerate=True,
    )


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

    @pytest.mark.parametrize("drop", [[2.5], [True], [np.float64(2.0)]])
    def test_non_integer_indices_rejected(self, drop):
        fam = noisy_family(2, (1, 1, 1), 2, seed=7)
        with pytest.raises(ValueError, match="integers"):
            removal_bound(fam, drop)

    def test_numpy_integer_indices_accepted(self):
        fam = noisy_family(2, (1, 1, 1), 2, seed=7)
        assert removal_bound(fam, np.array([3, 2])).dropped == (2, 3)


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

    @pytest.mark.parametrize("keep", [[1.7, 2], [True, 2], [1, 2.0]])
    def test_non_integer_indices_rejected(self, keep):
        with pytest.raises(ValueError, match="integers"):
            restrict_family(noisy_family(2, (1, 1, 1), 2, seed=3), keep)

    def test_numpy_integer_indices_accepted(self):
        fam = noisy_family(2, (1, 1, 1), 2, seed=3)
        res = restrict_family(fam, np.array([3, 1], dtype=np.uint8))
        assert res.n_indices == 2
        assert np.array_equal(res.frames[0].blocks[1], fam.frames[0].blocks[2])

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            restrict_family(swapped_onb_family(), ())


class TestPreconditions:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda fam: certify_woven(fam, mode="greedy"),
             "mode must be 'exhaustive' or 'sampled', got 'greedy'"),
            (lambda fam: restrict_family(fam, (0, 1)), "indices must lie in 1..2"),
            (lambda fam: restrict_family(fam, (3,)), "indices must lie in 1..2"),
            (lambda fam: removal_bound(GFrameFamily(fam.frames + fam.frames[:1]), (1,)),
             "removal analysis is defined for two-member families"),
            (lambda fam: removal_bound(fam, (3,)), "indices must lie in 1..2"),
            (lambda fam: scaled_family(fam, [[True, "2"], [1, 1]]),
             "scalars must be numbers, not bool, str or bytes"),
            (lambda fam: scaled_family(fam, np.ones((2, 2), dtype=bool)),
             "scalars must be numbers, not bool, str or bytes"),
            (lambda fam: scaled_family(fam, [["1", "2"], ["1", "1"]]),
             "scalars must be numbers, not bool, str or bytes"),
            (lambda fam: scaled_family(fam, [[1.0, None], [1, 1]]),
             "scalars must be numbers, not bool, str or bytes"),
        ],
        ids=["mode", "restrict-below", "restrict-above", "removal-three-members",
             "removal-above", "scalars-bool-and-str", "scalars-bool", "scalars-str",
             "scalars-none"],
    )
    def test_rejected_with_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call(swapped_onb_family())
        assert str(info.value) == message


class TestKnownUniversalBounds:
    """``universal=(A, B)`` passed to ``scaled_family`` and ``removal_bound``."""

    @staticmethod
    def _calls(universal):
        fam = swapped_onb_family(3)
        yield lambda: scaled_family(fam, np.ones((2, 3)), universal=universal)[1]
        yield lambda: removal_bound(fam, [1], universal=universal)

    @pytest.mark.parametrize(
        "universal",
        [(np.inf, 1.0), (np.nan, 1.0), (0.5, np.inf), (True, 1.0), ("0.5", 1.0), (0.5, 1 + 0j),
         (-0.1, 1.0), (2.0, 1.0), (0.5,), (0.1, 0.5, 1.0)],
    )
    def test_must_be_two_ordered_finite_reals(self, universal):
        for call in self._calls(universal):
            with pytest.raises(ValueError, match="^universal must be two finite real bounds"):
                call()

    def test_numpy_scalars_read_as_floats(self):
        scaled, removal = self._calls((np.float32(0.5), np.int64(2)))
        assert scaled() == (0.5, 2.0) and all(type(x) is float for x in scaled())
        assert (removal().base_lower, removal().base_upper) == (0.5, 2.0)


class TestFrameOpNormCheck:
    @pytest.mark.parametrize("upper", [np.nan, np.inf, -1.0, True, "1.0", 1j])
    def test_upper_must_be_a_finite_nonnegative_real(self, upper):
        fam = GFrameFamily((onb_frame(2), onb_frame(2)))
        with pytest.raises(ValueError, match="^upper must be a finite real >= 0$"):
            frame_op_norm_check(fam, Partition((1, 2)), upper=upper)

    def test_numpy_upper_accepted(self):
        fam, p = noisy_family(2, (1, 1, 1), 2, seed=5), Partition((1, 2, 1))
        assert frame_op_norm_check(fam, p, upper=np.float64(2.5)) == frame_op_norm_check(
            fam, p, upper=2.5
        )

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

    # At n = 1 an axis sum over a group need not add in index order, which
    # moves last bits; each group is summed one term at a time from zero.
    @pytest.mark.parametrize("seed, labels", [(1, (1,) * 8), (8, (1, 2) * 4)])
    def test_groups_summed_in_index_order(self, seed, labels):
        fam, p = noisy_family(1, (1,) * 8, 2, seed=seed), Partition(labels)
        lhs = np.zeros((1, 1), dtype=np.complex128)
        for j, fr in enumerate(fam.frames):
            r = np.zeros((1, 1))
            for b, label in zip(fr.blocks, labels):
                if label == j + 1:
                    r = r + b.conj().T @ b
            lhs += r.conj().T @ r
        norm_psi = hermitian_extremes(frame_operator(assemble_weaving(fam, p)))[1]
        expected = hermitian_extremes(lhs)[1] - bessel_sum_bound(fam) * norm_psi
        assert frame_op_norm_check(fam, p) == expected


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
# is decoded, each row's terms gathered and added in index order, and the
# spectra reduced row by row, the lower side at max(lambda_min, 0).  The
# engine must reproduce it exactly.
_REFERENCE_CHUNK = 8192


def _reference_spectra(grams, labels0):
    # An explicit loop: .sum(axis=1) sums pairwise at n = 1, not in index order.
    s = grams[0, labels0[:, 0]]
    for i in range(1, grams.shape[0]):
        s = s + grams[i, labels0[:, i]]
    return np.linalg.eigvalsh(s)


def _certify_reference(fam, mode="exhaustive", budget=DEFAULT_BUDGET, seed=None, tol=DEFAULT_TOL):
    grams = _gram_tensor(fam)
    m, big_n = fam.m, fam.n_indices
    best_low, best_up = np.inf, -np.inf
    wit_low = wit_up = None
    if mode == "exhaustive":
        # Code order is the lexicographic order of itertools.product.
        walk = product(range(m), repeat=big_n)
        while chunk := list(islice(walk, _REFERENCE_CHUNK)):
            labels0 = np.array(chunk)
            w = _reference_spectra(grams, labels0)
            lows = np.maximum(w[:, 0], 0.0)
            i = int(np.argmin(lows))
            if lows[i] < best_low:
                best_low, wit_low = float(lows[i]), labels0[i].copy()
            i = int(np.argmax(w[:, -1]))
            if w[i, -1] > best_up:
                best_up, wit_up = float(w[i, -1]), labels0[i].copy()
        checked = m**big_n
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
                low = max(float(w[i, 0]), 0.0)
                if low < best_low:
                    best_low, wit_low = low, labels0[i].copy()
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

    # (2, 3) and (3, 2) fit in one block; (2, 17) has an 11-label head and
    # (3, 10) a 7-label one.
    @pytest.mark.parametrize(
        "m, big_n", [(2, 3), (3, 2), (2, 8), (3, 5), (2, 15), (3, 9), (2, 17), (3, 10)]
    )
    def test_label_blocks_in_code_order(self, m, big_n):
        blocks = list(_label_blocks(m, big_n, _SCREEN_ROWS))
        labels0 = np.concatenate(blocks)
        assert np.array_equal(labels0, np.array(list(product(range(m), repeat=big_n))))
        rows = {len(b) for b in blocks}
        assert len(rows) == 1
        assert rows == {m**big_n} or max(rows) <= _SCREEN_ROWS < m * max(rows)

    def test_label_blocks_start_at_once_beyond_int64(self):
        # 2**80 weavings: the first blocks come without forming the whole
        # walk.  Each holds 64 rows, the tail's six labels in code order
        # after a head of 74 zeros, then of 73 zeros and a one.
        blocks = _label_blocks(2, 80, _SCREEN_ROWS)
        tail = np.array(list(product((0, 1), repeat=6)))
        for head in (np.zeros(74, dtype=int), np.eye(74, dtype=int)[-1]):
            labels0 = next(blocks)
            assert labels0.shape == (64, 80)
            assert (labels0[:, :74] == head).all()
            assert np.array_equal(labels0[:, 74:], tail)

    @pytest.mark.parametrize("m, big_n", [(2, 8), (3, 5), (2, 15), (3, 9)])
    def test_spectra_over_label_blocks(self, m, big_n):
        fam = noisy_family(2, (1,) * big_n, m, seed=m + big_n, noise=0.3)
        grams = _gram_tensor(fam)
        operators = [_frame_operators(grams, l) for l in _label_blocks(m, big_n, _SCREEN_ROWS)]
        labels0 = np.array(list(product(range(m), repeat=big_n)))
        expected = _reference_spectra(grams, labels0)
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
    # first block at the cap's last row and the next one's first; a draw's
    # last row; the second and third draws.
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


def _counting_sums(monkeypatch) -> list:
    """Patch ``weaving._frame_operators`` to record the row count of each call."""
    frame_operators, rows = _frame_operators, []

    def counting(grams, labels0):
        rows.append(len(labels0))
        return frame_operators(grams, labels0)

    monkeypatch.setattr(gweave.weaving, "_frame_operators", counting)
    return rows


def _indicators(rows: np.ndarray, m: int) -> np.ndarray:
    """The 0/1 indicators of the labels ``j >= 1`` that ``_RowScreen`` takes."""
    return (rows[:, :, None] == np.arange(1, m)).reshape(len(rows), -1).astype(np.float64)


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

    # Exact ties differ only by rounding; near ties by about 1e-14
    # relative.  Both sit well inside the screen's margin.  Sampled mode
    # draws half of the 2**15 weavings.
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("tied", ["lower", "upper"])
    @pytest.mark.parametrize("rel", [0.0, 1e-14])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_ties(self, tied, rel, seed, mode):
        fam = _tied_family(seed, rel, tied)
        kw = {"mode": mode, "budget": 2**14, "seed": seed} if mode == "sampled" else {}
        assert certify_woven(fam, **kw) == _certify_reference(fam, **kw)

    # All but 2**(n/2) weavings are exactly singular; the lower witness is
    # the first whose computed lambda_min rounds to <= 0, not the one that
    # rounds most negative.
    @pytest.mark.parametrize("n", [10, 14])
    def test_singular_weavings(self, n):
        fam = _relabelled_riesz_family(n, reverse=True)
        assert certify_woven(fam) == _certify_reference(fam)

    # The branch-and-bound search diagonalises its four seed weavings and the
    # few weavings no subtree test drops: 12-20 matrices here, where the
    # engine took 1474-2818.
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_woven_search_takes_few_spectra(self, seed, monkeypatch):
        fam = noisy_family(3, (1, 2) * 7 + (1,), 2, seed, noise=0.2)
        expected = _certify_reference(fam)
        assert expected.status == "woven"
        matrices = _counting_eigvalsh(monkeypatch)
        assert certify_woven(fam) == expected
        assert sum(matrices) <= 256


def _gate_family(seed: int, big_n: int = 12) -> GFrameFamily:
    """Two members of diagonal blocks whose weavings' spectra spread over 1e13.

    Every frame operator is ``diag(p, q)``.  Member 2 adds 1e13 to ``q`` at
    index 1 and 1e4 to ``p`` at index 2; every other index adds a seeded
    uniform ``[0, 100)`` to both in either member.  The weavings labelled
    ``(2, 1, ...)`` fail (``p < 1e3 <= frame_rtol * q``) and all others
    pass, so rows that all pass can still set ``low <= frame_rtol * up``:
    the lower bound from a ``(1, ...)`` weaving, the upper from a ``(2, 2,
    ...)`` one.
    """
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.0, 100.0, size=(big_n, 2, 2))  # (index, member, coordinate)
    diag[:2] = 0.0
    diag[0, 1, 1], diag[1, 1, 0] = 1e13, 1e4
    members = tuple(
        GFrame(2, tuple(np.diag(np.sqrt(diag[i, j])) for i in range(big_n))) for j in range(2)
    )
    return GFrameFamily(members)


def _scale_gap_family() -> GFrameFamily:
    """Two ``n = 1`` members of 5 blocks, one of entries near 1e-7 and one near 1.

    At ``n = 1`` a weaving fails only if ``S = 0``, so none fails; but the
    weaving labelled all 1 has ``S`` near 1e-14 and every other one near 1
    or more, so once it is drawn ``low <= frame_rtol * up``.
    """
    rng = np.random.default_rng(0)
    members = tuple(
        GFrame(1, tuple(c * rng.uniform(0.5, 1.5, (1, 1)) for _ in range(5)))
        for c in (1e-7, 1.0)
    )
    return GFrameFamily(members)


class TestSampledScreen:
    """Sampled mode skips the spectra of rows that the Cholesky test shows
    can neither move the running bounds nor fail: exact equality with the
    sampled sweep that diagonalises every drawn row."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_most_spectra_skipped(self, seed, monkeypatch):
        fam = noisy_family(3, (1, 2) * 7 + (1,), 2, seed, noise=0.2)
        expected = _certify_reference(fam, mode="sampled", budget=2**14, seed=seed)
        matrices = _counting_eigvalsh(monkeypatch)
        summed = _counting_sums(monkeypatch)
        assert certify_woven(fam, mode="sampled", budget=2**14, seed=seed) == expected
        assert expected.partitions_checked == 2**14
        assert sum(matrices) <= 2**14 // 4
        # Rows are screened on the GEMM's operators: only the rows that
        # take spectra are summed exactly.
        assert sum(summed) == sum(matrices)

    # Only the rows of a block that the screen does not prove inside are
    # summed exactly and take spectra; on a woven family some blocks hold
    # one to five such rows.
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_blocks_that_partly_fail_the_screen(self, seed, monkeypatch):
        fam = noisy_family(3, (1, 2) * 7 + (1,), 2, seed, noise=0.2)
        expected = _certify_reference(fam, mode="sampled", budget=2**14, seed=seed)
        masks, summed = _recording_screen(monkeypatch), _counting_sums(monkeypatch)
        assert certify_woven(fam, mode="sampled", budget=2**14, seed=seed) == expected
        assert any(0 < mask.sum() < len(mask) for mask in masks)
        assert sum(summed) == _BLOCK_FIRST + sum(int((~mask).sum()) for mask in masks)

    # The first failing row among the unproven ones ends the run at its
    # position in the drawn block: at row 100 the block of 64 holds one
    # unproven row, at row 495 the block of 256 six.
    @pytest.mark.parametrize("row", [100, 495])
    def test_failing_row_among_the_unproven_ones(self, row, monkeypatch):
        fam = _family_failing_first_at(seed=7, row=row)
        expected = _certify_reference(fam, mode="sampled", budget=3 * 8192, seed=7)
        masks, summed = _recording_screen(monkeypatch), _counting_sums(monkeypatch)
        rep = certify_woven(fam, mode="sampled", budget=3 * 8192, seed=7)
        assert rep == expected and rep.partitions_checked == row + 1
        assert 0 < masks[-1].sum() < len(masks[-1])
        assert sum(summed) == _BLOCK_FIRST + sum(int((~mask).sum()) for mask in masks)

    # The screen's operators against the sequential sums, on Gram terms
    # spread over twelve decades.  On 300 seeded draws of these shapes the
    # largest entry of the difference stayed below 2e-4 mu.
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(2, 3),
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=24),
        n=st.integers(1, 6),
        draws=st.integers(0, 2**16),
    )
    def test_screen_operators_within_a_tenth_of_mu(self, seed, m, dims, n, draws):
        grams = _gram_tensor(_scaled_random_family(seed, m, dims, n))
        rows = np.random.default_rng(draws).integers(0, m, size=(64, len(dims)))
        screen = _RowScreen(grams)
        got = screen.operators(_indicators(rows, m))
        assert np.abs(got - _frame_operators(grams, rows)).max() <= screen.mu / 10

    def test_screen_operators_reuse_one_stack(self):
        # Each call writes into the buffer of the last, grown when a call
        # asks for more rows; every returned stack must still be exact to mu.
        grams = _gram_tensor(_scaled_random_family(5, 3, [1, 2, 3, 1, 2], 4))
        screen = _RowScreen(grams)
        rng = np.random.default_rng(5)
        for size in (16, 256, 32):
            rows = rng.integers(0, 3, size=(size, 5))
            got = screen.operators(_indicators(rows, 3))
            assert got.shape == (size, 4, 4)
            assert np.abs(got - _frame_operators(grams, rows)).max() <= screen.mu / 10

    # Every block scaled by 2**64 or 2**-64 scales every Gram term by a
    # power of two, exactly: a margin relative to the Gram terms makes the
    # same decisions, an absolute one would not.
    @pytest.mark.parametrize("scale", [2.0**64, 2.0**-64])
    def test_screen_decisions_do_not_depend_on_scale(self, scale, monkeypatch):
        fam = noisy_family(3, (1, 2) * 7 + (1,), 2, 1, noise=0.2)
        scaled = GFrameFamily(tuple(
            GFrame(3, tuple(scale * b for b in fr.blocks)) for fr in fam.frames
        ))
        matrices, counts = _counting_eigvalsh(monkeypatch), []
        for f in (fam, scaled):
            start = len(matrices)
            rep = certify_woven(f, mode="sampled", budget=2**14, seed=1)
            counts.append((matrices[start:], rep.status, rep.witness_lower, rep.witness_upper))
        assert counts[0][1] == "sampled-no-counterexample"
        assert sum(counts[0][0]) < 2**14 // 4
        assert counts[1] == counts[0]

    # On these seeds the first block passes with low <= frame_rtol * up and
    # the second lies inside (low, up) with failing rows: a screen floored
    # at low alone would skip some of them, the floor frame_rtol * up keeps
    # them all.
    @pytest.mark.parametrize("seed", [100, 138])
    def test_gate_keeps_failing_rows_inside_the_bounds(self, seed):
        fam, rtol = _gate_family(seed), DEFAULT_TOL.frame_rtol
        grams = _gram_tensor(fam)
        rows = np.random.default_rng(seed).integers(0, 2, size=(3 * _BLOCK_FIRST, fam.n_indices))
        first, second = np.split(_frame_operators(grams, rows), [_BLOCK_FIRST])
        w = np.linalg.eigvalsh(first)
        low, up = w[:, 0].min(), w[:, -1].max()
        assert (w[:, 0] > rtol * w[:, -1]).all() and low <= rtol * up
        w = np.linalg.eigvalsh(second)
        assert (w[:, 0] > low).all() and (w[:, -1] < up).all()
        failing = w[:, 0] <= rtol * w[:, -1]
        assert failing.any()
        screen = _RowScreen(grams)
        assert screen.inside(rows[_BLOCK_FIRST:], low, up)[failing].any()
        assert not screen.inside(rows[_BLOCK_FIRST:], rtol * up, up)[failing].any()

        rep = certify_woven(fam, mode="sampled", budget=2**10, seed=seed)
        assert rep.status == "not-woven"
        assert _BLOCK_FIRST < rep.partitions_checked <= 3 * _BLOCK_FIRST
        assert rep == _certify_reference(fam, mode="sampled", budget=2**10, seed=seed)

    # Every row passes while low <= frame_rtol * up: the floor frame_rtol *
    # up still lets a block of weavings away from both bounds be skipped.
    @pytest.mark.parametrize("seed", [0, 3])
    def test_blocks_skipped_while_low_is_below_the_floor(self, seed, monkeypatch):
        fam = _scale_gap_family()
        expected = _certify_reference(fam, mode="sampled", budget=2**9, seed=seed)
        assert expected.status == "sampled-no-counterexample"
        assert expected.universal_lower <= DEFAULT_TOL.frame_rtol * expected.universal_upper
        matrices = _counting_eigvalsh(monkeypatch)
        assert certify_woven(fam, mode="sampled", budget=2**9, seed=seed) == expected
        assert sum(matrices) < 2**9


def _lower_hermitian(a: np.ndarray) -> np.ndarray:
    """The Hermitian matrices that LAPACK reads from ``a``'s lower triangles."""
    h = np.tril(a) + np.tril(a, -1).conj().swapaxes(-1, -2)
    diag = np.arange(a.shape[-1])
    h[..., diag, diag] = h[..., diag, diag].real
    return h


def _unpacked(z: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian matrices of ``_RowScreen``'s packed columns."""
    r, c = np.tril_indices(n, -1)
    h = np.zeros((len(z), n, n), dtype=np.result_type(z, 1j))
    h[:, np.arange(n), np.arange(n)] = z[:, :n]
    h[:, r, c] = z[:, n : n + len(r)] + 1j * z[:, n + len(r) :]
    h[:, c, r] = h[:, r, c].conj()
    return h


def _frobenius(a: np.ndarray) -> np.ndarray:
    return np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1)))


class TestNormScreen:
    """The weighted-norm test proves rows inside the bounds without a
    factorization; the rows it leaves take the Cholesky tests."""

    # The whole screen, on Gram terms over twelve decades, the members
    # pulled towards member 1 by ``spread`` so that the norm test proves
    # many rows, and bounds at the rows' extreme computed eigenvalues (k =
    # 0) or at the next ones inside: a floor above the least lambda_min, as
    # the Riesz sweep's threshold is.  A bound equal to a row's eigenvalue
    # must not prove that row.  The gate is forced open (no expected norm
    # to pass, so the norm test runs wherever every g > 0) or shut (the
    # Cholesky tests alone).
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(2, 4),
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=24),
        n=st.integers(1, 6),
        spread=st.sampled_from([1.0, 0.1, 1e-3]),
        draws=st.integers(0, 2**16),
        k=st.sampled_from([0, 1, 8]),
        gate=st.sampled_from(["open", "shut"]),
    )
    def test_proven_rows_lie_inside(self, seed, m, dims, n, spread, draws, k, gate):
        grams = _gram_tensor(_scaled_random_family(seed, m, dims, n))
        grams = grams[:, :1] + spread * (grams - grams[:, :1])
        rows = np.random.default_rng(draws).integers(0, m, size=(64, len(dims)))
        w = np.linalg.eigvalsh(_frame_operators(grams, rows))
        floor, up = np.sort(w[:, 0])[k], np.sort(w[:, -1])[-1 - k]
        assume(floor < up)
        screen = _RowScreen(grams)
        if gate == "open":
            screen.variance = np.zeros_like(screen.variance)
        else:
            screen.weights = lambda c_lo, c_up: None
        proven = screen.inside(rows, floor, up)
        assert (w[proven, 0] > floor).all() and (w[proven, -1] < up).all()

    # Each allowance against its error, in extended precision: phi against
    # the residual and loss of orthogonality of eigh, zeta against the
    # rounding of the packed Z, and mu against the distance from the exact
    # sum of the computed centre and offsets to the sequential sums.
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(2, 4),
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=24),
        n=st.integers(1, 6),
        draws=st.integers(0, 2**16),
    )
    def test_allowances_within_a_tenth(self, seed, m, dims, n, draws):
        grams = _gram_tensor(_scaled_random_family(seed, m, dims, n))
        rows = np.random.default_rng(draws).integers(0, m, size=(64, len(dims)))
        screen = _RowScreen(grams)
        centre = _lower_hermitian(grams.mean(axis=1).sum(axis=0)).astype(np.clongdouble)
        v = screen.v.astype(np.clongdouble)
        orthogonality = _frobenius(v.conj().T @ v - np.eye(n))
        residual = _frobenius(centre @ v - v * screen.lam.astype(np.longdouble))
        assert orthogonality * screen.rho + (1 + orthogonality) * residual <= screen.phi(0.0) / 10

        offsets = (rows[:, :, None] == np.arange(1, m)).reshape(len(rows), -1) - 1 / m
        diffs = _lower_hermitian(grams[:, 1:] - grams[:, :1]).reshape(-1, n, n).astype(np.clongdouble)
        offsets = offsets.astype(np.longdouble)
        exact = np.einsum("rk,kab->rab", offsets, v.conj().T @ diffs @ v)
        rotated = screen.rotated(_indicators(rows, m))
        assert _frobenius(_unpacked(rotated, n) - exact).max() <= screen.zeta / 10

        exact = centre + np.einsum("rk,kab->rab", offsets, diffs)
        summed = _lower_hermitian(_frame_operators(grams, rows))
        assert np.abs(summed - exact).max() <= screen.mu / 10

    def test_rotated_reuses_one_buffer(self):
        grams = _gram_tensor(_scaled_random_family(5, 3, [1, 2, 3, 1, 2], 4))
        screen = _RowScreen(grams)
        x = _indicators(np.random.default_rng(5).integers(0, 3, size=(256, 5)), 3)
        first = screen.rotated(x)
        assert np.shares_memory(screen.rotated(x[:32]), first)

    # The woven family of the sampled benchmark (a frame of 48 rank-one
    # blocks in C^8 and a noisy copy of it), at its budget: the norm test
    # leaves at most a fifth of the screened rows to Cholesky (2-17% on
    # these seeds, all of them before), and the same rows as the Cholesky
    # tests alone are summed exactly.
    @pytest.mark.parametrize("s", [0, 1000, 2000, 3000])
    def test_most_rows_skip_cholesky(self, s, monkeypatch):
        fam = generate(GenSpec(8, (1,) * 48, "perturbed", s))
        masks, summed = _recording_screen(monkeypatch), _counting_sums(monkeypatch)
        cholesky = _counting_gemm_rows(monkeypatch, "operators")
        rep = certify_woven(fam, mode="sampled", budget=2**16, seed=s)
        assert rep.status == "sampled-no-counterexample"
        assert sum(cholesky) <= sum(map(len, masks)) / 5
        with_norm = list(summed)
        summed.clear()
        # The gate shut: the Cholesky tests on every row.
        monkeypatch.setattr(_RowScreen, "weights", lambda self, c_lo, c_up: None)
        assert certify_woven(fam, mode="sampled", budget=2**16, seed=s) == rep
        assert summed == with_norm

    # Two independent Parseval members: a typical row's weighted norm is
    # above 1 at the sampled bounds, so no row takes the GEMM.
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gate_keeps_independent_members_off_the_gemm(self, seed, monkeypatch):
        fam = GFrameFamily(tuple(
            generate(GenSpec(8, (1,) * 48, "parseval", 2 * seed + j)) for j in range(2)
        ))
        calls = _counting_gemm_rows(monkeypatch, "rotated")
        cholesky = _counting_gemm_rows(monkeypatch, "operators")
        rep = certify_woven(fam, mode="sampled", budget=2**16, seed=seed)
        assert rep.status == "sampled-no-counterexample"
        assert calls == [] and sum(cholesky) == 2**16 - _BLOCK_FIRST


# Sampled mode against the sweep that diagonalises every drawn row, on
# planted families whose weavings spread little against their bounds: the
# norm test proves most rows on nearly every draw of these shapes.
@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(2, 4),
    big_n=st.integers(16, 48),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([None, 1e-6]),
    decades=st.sampled_from([0, 3]),
    sample_seed=st.integers(0, 2**16),
)
def test_sampled_matches_reference_with_the_norm_test(m, big_n, n, seed, scale, decades, sample_seed):
    fam = _planted_family(m, big_n, n, seed, scale, decades)
    kw = {"mode": "sampled", "budget": 2**12, "seed": sample_seed}
    assert certify_woven(fam, **kw) == _certify_reference(fam, **kw)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(2, 3),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=10),
    n=st.integers(1, 4),
    mode=st.sampled_from(["exhaustive", "sampled"]),
    sample_seed=st.integers(0, 2**16),
)
def test_screened_sweep_matches_reference(seed, m, dims, n, mode, sample_seed):
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
    kw = {"mode": mode, "budget": 2**12, "seed": sample_seed} if mode == "sampled" else {}
    assert certify_woven(fam, **kw) == _certify_reference(fam, **kw)


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


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 4),
    m=st.integers(2, 3),
    dims=st.lists(st.integers(1, 2), min_size=4, max_size=6),
)
def test_common_unitary_leaves_the_report_unchanged(seed, n, m, dims):
    # b -> b U maps every frame operator S to U* S U, same spectrum.  Both
    # sweeps agree to rounding, a few n * eps * upper; the bounds are
    # compared at 1e-12 * upper.  With noise 0.1, on 500 seeded draws of
    # these shapes every weaving kept lower / upper above 0.26, far from
    # frame_rtol, and the two best weavings of each bound differed by more
    # than 3e-6 * upper, so neither the status nor a witness flips on
    # rounding.
    fam = noisy_family(n, tuple(dims), m, seed=seed, noise=0.1)
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    base = certify_woven(fam)
    rep = certify_woven(GFrameFamily(tuple(apply_operator(fr, u) for fr in fam.frames)))
    assert (rep.status, rep.witness_lower, rep.witness_upper) == (
        base.status, base.witness_lower, base.witness_upper
    )
    tol = 1e-12 * base.universal_upper
    assert rep.universal_lower == pytest.approx(base.universal_lower, abs=tol)
    assert rep.universal_upper == pytest.approx(base.universal_upper, abs=tol)


def _seed_spectra(fam: GFrameFamily) -> np.ndarray:
    """The spectra of the two lower seed weavings, then the two upper, as
    exhaustive :func:`certify_woven` computes them."""
    grams = _gram_tensor(fam)
    h, k = _envelopes(grams)
    rows = np.concatenate([
        _seed_weavings(grams, _suffix_sums(h), True), _seed_weavings(grams, _suffix_sums(k), False)
    ])
    return np.linalg.eigvalsh(_frame_operators(grams, rows))


def _searched(fam: GFrameFamily) -> tuple:
    """The bounds and witnesses of one branch-and-bound search per side, as
    a report has them."""
    grams = _gram_tensor(fam)
    (low, low_at), (up, up_at) = (
        _search_side(grams, _envelopes(grams), lower) for lower in (True, False)
    )
    return max(low, 0.0), max(up, 0.0), _partition_of(low_at), _partition_of(up_at)


def _tested_stacks(monkeypatch) -> list:
    """Wrap ``weaving._factors`` to record every stack the searches test by
    Cholesky; returns the list that the wrapper fills."""
    stacks, factors = [], gweave.weaving._factors

    def recording(a):
        stacks.append(a.copy())
        return factors(a)

    monkeypatch.setattr(gweave.weaving, "_factors", recording)
    return stacks


def _recorded_walks(monkeypatch) -> list:
    """Wrap ``weaving._walk`` to record each walk's side, order and seed
    bound; returns the list that the wrapper fills."""
    walks, walk = [], gweave.weaving._walk

    def recording(grams, terms, lower, order, bound, delta):
        walks.append((lower, order.tolist(), bound))
        return walk(grams, terms, lower, order, bound, delta)

    monkeypatch.setattr(gweave.weaving, "_walk", recording)
    return walks


def _search_delta(grams: np.ndarray) -> float:
    """The search's ``delta``, ``1e3 n**2 eps (N + m) lambda_max(sum_i K_i)``."""
    big_n, m, n = grams.shape[0], grams.shape[1], grams.shape[-1]
    k = _envelopes(grams)[1]
    top = np.linalg.eigvalsh(_suffix_sums(k)[0])[-1]
    return 1e3 * n**2 * np.finfo(float).eps * (big_n + m) * top


def _walked(grams: np.ndarray, lower: bool, order, bound: float, zero_envelope: bool = False):
    """One side's walk in ``order`` from the sound ``bound``, as a report
    has it: the bound and the 1-based witness labels."""
    h, k = _envelopes(grams)
    terms = np.zeros_like(h) if zero_envelope else h if lower else k
    best, best_at = _walk(grams, terms, lower, np.asarray(order), bound, _search_delta(grams))
    return max(best, 0.0), _partition_of(best_at).labels


def _bounds_and_witnesses(rep: WeavingReport) -> tuple:
    return rep.universal_lower, rep.universal_upper, rep.witness_lower, rep.witness_upper


def _failing_seeds(fam: GFrameFamily) -> np.ndarray:
    """Whether each seed weaving fails (``lambda_min <= frame_rtol * lambda_max``)."""
    w = _seed_spectra(fam)
    return w[:, 0] <= DEFAULT_TOL.frame_rtol * w[:, -1]


def _scaled_random_family(seed: int, m: int, dims, n: int) -> GFrameFamily:
    """``m`` random members whose block rows are scaled by ``10**u``, ``u``
    uniform in ``[-3, 3]``: Gram terms spread over twelve decades."""
    rng = np.random.default_rng(seed)
    members = tuple(
        GFrame(n, tuple(
            10.0 ** rng.uniform(-3.0, 3.0, (d, 1))
            * (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
            for d in dims
        ))
        for _ in range(m)
    )
    return GFrameFamily(members, allow_degenerate=True)


class TestBranchAndBound:
    """Exhaustive mode on woven families: a depth-first search that drops
    whole subtrees of weavings proven inside the running bounds."""

    def test_factors_matches_cholesky_row_by_row(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        pd = z @ z.conj().swapaxes(-1, -2) + 0.1 * np.eye(4)
        singular = pd.copy()
        singular[:, :, 0] = singular[:, :, 1] = singular[:, 0, :] = singular[:, 1, :] = 0.0
        stack = np.concatenate([pd, pd - 3.0 * np.eye(4), -pd, singular, np.zeros((1, 4, 4))])
        expected = []
        for a in stack:
            try:
                np.linalg.cholesky(a)
                expected.append(True)
            except np.linalg.LinAlgError:
                expected.append(False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _factors(stack)
        assert got.tolist() == expected
        assert got[:6].all() and not got[-13:].any()

    # H_i and K_i alone: the suffix sums of a one-index family.  With g =
    # max_j ||G_ij||, fold step j = 1..m-1 takes an eigh of D = H - G_ij+1
    # or G_ij+1 - K and the product of its positive part, which round by
    # about n eps ||D||.  Exactly, lambda_max(H) <= g and a step lowers
    # lambda_min(H) by at most g; K >= 0 and a step raises lambda_max(K) by
    # at most g; so ||D|| <= j g.  A step's result lies below (above) both
    # its inputs up to its own error, so the errors add: (m - 1) m / 2 n eps
    # g in all.  On 300 seeded draws with m = 2..5 they stayed below 2.2 of
    # that (0.72 at m = 3, 0.23 at m = 4, 0.20 at m = 5); the shift is 100
    # times it.
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(2, 5),
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=6),
        n=st.integers(1, 6),
    )
    def test_envelopes_bracket_every_gram_term(self, seed, m, dims, n):
        grams = _gram_tensor(_scaled_random_family(seed, m, dims, n))
        h, k = _envelopes(grams)
        scale = np.linalg.norm(grams, 2, axis=(-2, -1)).max(axis=1)[:, None, None, None]
        shift = 1e2 * (m - 1) * m / 2 * n * np.finfo(float).eps * scale * np.eye(n)
        assert _factors(grams - h[:, None] + shift).all()
        assert _factors(k[:, None] - grams + shift).all()

    # For m = 2 the fold is the mean minus and plus |G_i1 - G_i2| / 2.  Both
    # sides round by about n eps ||G_i1 - G_i2|| <= n eps g, g = max_j
    # ||G_ij|| (semidefinite terms); on 300 seeded draws the difference
    # stayed below 1.14 n eps g in spectral norm.  The test allows 100 times.
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=6),
        n=st.integers(1, 6),
    )
    def test_two_member_fold_is_mean_and_half_difference(self, seed, dims, n):
        grams = _gram_tensor(_scaled_random_family(seed, 2, dims, n))
        h, k = _envelopes(grams)
        mean = (grams[:, 0] + grams[:, 1]) / 2
        w, v = np.linalg.eigh(grams[:, 0] - grams[:, 1])
        half = (v * (np.abs(w) / 2)[:, None, :]) @ v.conj().swapaxes(-1, -2)
        scale = np.linalg.norm(grams, 2, axis=(-2, -1)).max(axis=1)
        rounding = 1e2 * n * np.finfo(float).eps * scale
        assert (np.linalg.norm(h - (mean - half), 2, axis=(-2, -1)) <= rounding).all()
        assert (np.linalg.norm(k - (mean + half), 2, axis=(-2, -1)) <= rounding).all()

    # For a prefix over the first k indices of the index order or of a
    # random order, summed in that order, and any completion sigma, summed
    # in index order:
    # max(lmin(S_P), lmin(S_P + SH[k])) <= lmin(S_sigma) and lmax(S_sigma)
    # <= lmax(S_P + SK[k]), SH and SK the suffix sums in that order, up to
    # rounding.  The margin is a tenth of the search's delta, 1e2 n**2 (N +
    # m) eps U; on 300 seeded draws in index order the bounds never crossed
    # by more than 0.12 n**2 (N + m) eps U, and on 300 in random orders by
    # more than 0.3 n**2 (N + m) eps U.
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(2, 3),
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=8),
        n=st.integers(1, 6),
        cut=st.integers(0, 8),
        completions=st.integers(0, 2**16),
        shuffled=st.booleans(),
    )
    def test_prefix_bounds_hold_for_every_completion(
        self, seed, m, dims, n, cut, completions, shuffled
    ):
        grams = _gram_tensor(_scaled_random_family(seed, m, dims, n))
        big_n, k = len(dims), min(cut, len(dims))
        rng = np.random.default_rng(completions)
        order = rng.permutation(big_n) if shuffled else np.arange(big_n)
        sh, sk = (_suffix_sums(t[order]) for t in _envelopes(grams))
        margin = 1e2 * n**2 * (big_n + m) * np.finfo(float).eps * np.linalg.eigvalsh(sk[0])[-1]
        labels = rng.integers(0, m, size=(8, big_n))
        labels[:, order[:k]] = labels[0, order[:k]]
        prefix = (_frame_operators(grams[order], labels[:1, order[:k]])[0] if k
                  else np.zeros((n, n)))
        lower = max(np.linalg.eigvalsh(prefix)[0], np.linalg.eigvalsh(prefix + sh[k])[0])
        upper = np.linalg.eigvalsh(prefix + sk[k])[-1]
        w = np.linalg.eigvalsh(_frame_operators(grams, labels))
        assert (w[:, 0] >= lower - margin).all()
        assert (w[:, -1] <= upper + margin).all()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(2, 4),
        dims=st.lists(st.integers(1, 3), min_size=2, max_size=12),
        n=st.integers(1, 5),
        noise=st.sampled_from([0.03, 0.2, 0.6]),
    )
    def test_search_matches_reference(self, seed, m, dims, n, noise):
        assume(m ** len(dims) <= 4096)
        fam = noisy_family(min(n, sum(dims)), tuple(dims), m, seed=seed, noise=noise)
        expected = _certify_reference(fam)
        assert certify_woven(fam) == expected
        assert _searched(fam) == _bounds_and_witnesses(expected)

    # Every weaving ties: nothing is dropped, and the witnesses are the
    # first weaving in code order.
    @pytest.mark.parametrize("m, big_n", [(2, 12), (3, 7)])
    def test_duplicate_members(self, m, big_n):
        f = random_frame(3, (1, 2) * (big_n // 2) + (1,) * (big_n % 2), seed=big_n)
        fam = GFrameFamily((f,) * m)
        expected = _certify_reference(fam)
        assert not _failing_seeds(fam).any()
        assert certify_woven(fam) == expected
        assert _searched(fam) == _bounds_and_witnesses(expected)
        assert expected.witness_lower.labels == expected.witness_upper.labels == (1,) * big_n

    # Duplicate members: nothing can be dropped and lambda_min(SH[0]) > 0,
    # so each side tests each prefix of each length once, sum_{k=1..N} m**k
    # matrices in all; a second lower test against S alone would add
    # sum_{k<N} m**k.
    @pytest.mark.parametrize("m, big_n", [(2, 8), (3, 5)])
    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
    def test_one_test_per_prefix(self, monkeypatch, m, big_n, lower):
        f = random_frame(3, (1, 2) * (big_n // 2) + (1,) * (big_n % 2), seed=big_n)
        grams = _gram_tensor(GFrameFamily((f,) * m))
        envelopes = _envelopes(grams)
        assert np.linalg.eigvalsh(_suffix_sums(envelopes[0])[0])[0] > 0
        stacks = _tested_stacks(monkeypatch)
        _search_side(grams, envelopes, lower)
        assert all(len(s) for s in stacks)
        assert sum(map(len, stacks)) == sum(m**k for k in range(1, big_n + 1))

    # The lower side tests S + L[k] - (low + delta) I, with L = SH where
    # lambda_min(SH[0]) > 0 and L = 0 elsewhere, SH summed in the search's
    # order.  The first batch holds the m prefixes of length 1 on the first
    # searched index i, G_ij + L[1] - c I.
    @pytest.mark.parametrize(
        "make, takes_sh",
        [
            (lambda: generate(GenSpec(3, (1,) * 8, "perturbed", 5)), True),
            (lambda: GFrameFamily(tuple(
                generate(GenSpec(3, (1, 2, 1, 1, 2), "parseval", seed)) for seed in range(3)
            )), False),
            (lambda: _relabelled_riesz_family(8, reverse=True), False),
            (swapped_onb_family, False),
        ],
        ids=["perturbed-pair", "three-parseval", "reversed-riesz", "swapped-onb"],
    )
    def test_lower_envelope_choice(self, monkeypatch, make, takes_sh):
        fam = make()
        expected = _certify_reference(fam)
        assert certify_woven(fam) == expected
        assert _searched(fam) == _bounds_and_witnesses(expected)
        grams = _gram_tensor(fam)
        h, k = _envelopes(grams)
        assert (np.linalg.eigvalsh(_suffix_sums(h)[0])[0] > 0) == takes_sh
        n = fam.ambient_dim
        walks = _recorded_walks(monkeypatch)
        stacks = _tested_stacks(monkeypatch)
        _search_side(grams, (h, k), True)
        order = walks[0][1]
        sh, first = _suffix_sums(h[order]), grams[order[0]]
        suffix = sh[1] if takes_sh else np.zeros((n, n))
        shift = stacks[0] - first - suffix
        c = -shift[0, 0, 0].real
        assert c > 0
        scale = np.linalg.norm(_suffix_sums(k)[0], 2)
        assert np.allclose(shift, -c * np.eye(n), rtol=0, atol=1e-12 * scale)
        if np.linalg.norm(sh[1], 2) > 0:  # the other choice tests other matrices
            rest = stacks[0] - first - (np.zeros((n, n)) if takes_sh else sh[1])
            assert not np.allclose(rest, rest[0, 0, 0] * np.eye(n), rtol=0, atol=1e-6)

    # The seeds take no eigvalsh and one eigh of the side's root envelope
    # sum, the first eigh they take: its extreme eigenvector picks the
    # members that start the second alternating search.
    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
    def test_seeds_start_from_the_root_envelope(self, monkeypatch, lower):
        grams = _gram_tensor(generate(GenSpec(4, (1,) * 10, "perturbed", 10)))
        suffix = _suffix_sums(_envelopes(grams)[0 if lower else 1])
        spectra, matrices, eigh, eigvalsh = [], [], np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: matrices.append(a.copy()) or eigh(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(a) or eigvalsh(a))
        rows = _seed_weavings(grams, suffix, lower)
        assert not spectra
        roots = [np.array_equal(a, suffix[0]) for a in matrices]
        assert roots[0] and sum(roots) == 1
        assert rows.shape == (2, grams.shape[0])

    # Each side walks in decreasing sum_r f_r* (K_i - H_i) f_r, a stable
    # sort, f_r the extreme eigenvector of seed row r's operator.  Here the
    # two seed rows differ on both sides, and so does the order from row 0
    # alone; the scores' gaps are at least 0.3% of their largest.
    def test_walk_order_scores_both_seed_rows(self, monkeypatch):
        fam = generate(GenSpec(4, (1,) * 10, "perturbed", 10))
        grams = _gram_tensor(fam)
        h, k = _envelopes(grams)
        walks = _recorded_walks(monkeypatch)
        assert certify_woven(fam).status == "woven"
        assert [lower for lower, _, _ in walks] == [True, False]
        for lower, order, _ in walks:
            rows = _seed_weavings(grams, _suffix_sums(h if lower else k), lower)
            assert (rows[0] != rows[1]).any()
            scores = [
                np.einsum("a,iab,b->i", f.conj(), k - h, f).real
                for f in (np.linalg.eigh(a)[1][:, 0 if lower else -1]
                          for a in _frame_operators(grams, rows))
            ]
            assert order == np.argsort(-(scores[0] + scores[1]), kind="stable").tolist()
            assert order != np.argsort(-scores[0], kind="stable").tolist()

    # Each side's walk, in any order of the indices and from any sound seed
    # bound (the exact bound, or a weaving's computed value), with the
    # envelope or with zero on the lower side, gives the bound and the
    # lexicographically smallest witness of the sweep that diagonalises
    # every weaving.  A lower fold that reaches 0 ends the walk at its first
    # such weaving in search order; from floor 0 in index order it is the
    # lex-first, as the search's rerun takes it.
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(2, 4),
        dims=st.lists(st.integers(1, 3), min_size=2, max_size=12),
        n=st.integers(1, 5),
        noise=st.sampled_from([0.03, 0.2, 0.6]),
        order_seed=st.integers(0, 2**16),
        tight=st.booleans(),
        zero_envelope=st.booleans(),
    )
    def test_walk_in_any_order_matches_reference(self, seed, m, dims, n, noise, order_seed,
                                                 tight, zero_envelope):
        big_n = len(dims)
        assume(m**big_n <= 4096)
        fam = noisy_family(min(n, sum(dims)), tuple(dims), m, seed=seed, noise=noise)
        expected = _certify_reference(fam)
        grams = _gram_tensor(fam)
        rng = np.random.default_rng(order_seed)
        w = _reference_spectra(grams, rng.integers(0, m, size=(1, big_n)))[0]
        for lower, bound, witness in (
            (True, expected.universal_lower if tight else max(w[0], 0.0), expected.witness_lower),
            (False, expected.universal_upper if tight else w[-1], expected.witness_upper),
        ):
            value, labels = _walked(grams, lower, rng.permutation(big_n), bound,
                                    zero_envelope and lower)
            assert value == (expected.universal_lower if lower else expected.universal_upper)
            if lower and value == 0.0:
                assert max(_reference_spectra(grams, np.array([labels]) - 1)[0, 0], 0.0) == 0.0
                value, labels = _walked(grams, True, np.arange(big_n), 0.0, zero_envelope)
            assert labels == witness.labels

    # Families with a bound attained by many weavings, bit for bit: the
    # witnesses are the lex-first ones in every order, though the walk may
    # reach them last.  The Riesz pairs tie at 0 on the lower side, which
    # the search settles in index order.
    @pytest.mark.parametrize(
        "make",
        [
            lambda: GFrameFamily((random_frame(3, (1, 2) * 5, seed=10),) * 2),
            lambda: GFrameFamily((random_frame(2, (1, 2, 1, 1, 2, 1), seed=6),) * 3),
            swapped_onb_family,
            lambda: _relabelled_riesz_family(6, reverse=True),
            lambda: _relabelled_riesz_family(7, reverse=False),
        ],
        ids=["duplicate-pair", "duplicate-three", "swapped-onb", "reversed-riesz",
             "permuted-riesz"],
    )
    def test_tie_families_keep_lex_first_witnesses(self, make):
        fam = make()
        expected = _certify_reference(fam)
        assert certify_woven(fam) == expected
        assert _searched(fam) == _bounds_and_witnesses(expected)
        grams = _gram_tensor(fam)
        big_n = fam.n_indices
        w = _reference_spectra(grams, np.array(list(product(range(fam.m), repeat=big_n))))
        ties = ((np.maximum(w[:, 0], 0.0) == expected.universal_lower).sum(),
                (w[:, -1] == expected.universal_upper).sum())
        assert max(ties) > 1
        orders = [np.arange(big_n)[::-1], np.random.default_rng(big_n).permutation(big_n)]
        for order in orders:
            assert _walked(grams, False, order, expected.universal_upper) == (
                expected.universal_upper, expected.witness_upper.labels
            )
            if expected.universal_lower > 0.0:
                assert _walked(grams, True, order, expected.universal_lower) == (
                    expected.universal_lower, expected.witness_lower.labels
                )

    # Duplicate members with real Gram terms whose imaginary parts are
    # -0.0: every leaf ties and reaches the fold, in code order of the walk.
    # Each takes eigvalsh of its sequential sum in index order, signed zeros
    # included, formed again from its label row in either order.
    @pytest.mark.parametrize("reverse", [False, True], ids=["index-order", "reversed"])
    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
    def test_leaves_take_their_sequential_sums(self, monkeypatch, lower, reverse):
        f = random_frame(3, (1, 2, 1, 2, 1, 1), seed=4)
        grams = _gram_tensor(GFrameFamily((f,) * 2)).real.astype(complex)
        grams.view(np.float64)[..., 1::2] = -0.0
        big_n, m = grams.shape[:2]
        order = np.arange(big_n)[::-1] if reverse else np.arange(big_n)
        rows = np.empty((m**big_n, big_n), dtype=np.int64)
        rows[:, order] = list(product(range(m), repeat=big_n))
        expected = _frame_operators(grams, rows)
        w = np.linalg.eigvalsh(expected)
        bound = max(w[:, 0].min(), 0.0) if lower else w[:, -1].max()
        h, k = _envelopes(grams)
        delta = _search_delta(grams)
        seen, resums, eigvalsh = [], [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.copy()) or eigvalsh(a))
        monkeypatch.setattr(gweave.weaving, "_frame_operators",
                            lambda g, r: resums.append(len(r)) or _frame_operators(g, r))
        _walk(grams, h if lower else k, lower, order, bound, delta)
        assert np.concatenate(seen).tobytes() == expected.tobytes()
        assert sum(resums) == m**big_n

    # The lower seeds pass, so the lower side searches in its critical
    # order, where its fold reaches 0.  The weaving found first in that order
    # need not be the lex-first that rounds to lambda_min <= 0, so the side
    # searches again in index order from floor 0: the report is the sweep's.
    @pytest.mark.parametrize(
        "make",
        [lambda: _duplicate_block_family(6, 11), lambda: _relabelled_riesz_family(4, reverse=True)],
        ids=["duplicate-block", "reversed-riesz"],
    )
    def test_lower_fold_at_zero_reruns_in_index_order(self, monkeypatch, make):
        fam = make()
        expected = _certify_reference(fam)
        assert expected.status == "not-woven" and expected.universal_lower == 0.0
        walks = _recorded_walks(monkeypatch)
        assert certify_woven(fam) == expected
        lower = [(order, bound) for side, order, bound in walks if side]
        index = list(range(fam.n_indices))
        assert len(lower) == 2
        assert lower[0][0] != index and lower[0][1] > 0.0
        assert lower[1] == (index, 0.0)

    # Every seed fails; the weavings that fail are exactly singular, so the
    # lower side keeps index order and ends at the first of them.
    @pytest.mark.parametrize(
        "make",
        [swapped_onb_family, _late_failure_family,
         lambda: _single_failure_family((1, 0, 1, 1, 0, 0, 1, 0, 1, 1))],
        ids=["swapped-onb", "late-failure", "single-failure"],
    )
    def test_not_woven_families(self, monkeypatch, make):
        fam = make()
        expected = _certify_reference(fam)
        assert expected.status == "not-woven"
        assert _failing_seeds(fam).all()
        walks = _recorded_walks(monkeypatch)
        assert certify_woven(fam) == expected
        assert [order for lower, order, _ in walks if lower] == [list(range(fam.n_indices))]
        assert _searched(fam) == _bounds_and_witnesses(expected)


def _relabelled_riesz_family(n: int, reverse: bool) -> GFrameFamily:
    """A g-Riesz basis of ``n`` one-dimensional blocks against its reversed
    or randomly permuted copy: a weaving that takes one vector twice is
    singular, so the family is not woven."""
    f = generate(GenSpec(n, (1,) * n, "riesz-basis", n))
    order = np.arange(n)[::-1] if reverse else np.random.default_rng(n).permutation(n)
    if not reverse and (order == np.arange(n)).all():
        order = np.roll(order, 1)
    return GFrameFamily((f, GFrame(n, tuple(f.blocks[i] for i in order))))


def _column_scaled_family(scale: float, column: int = -1, n: int = 4, big_n: int = 12,
                          seed: int = 1) -> GFrameFamily:
    """A noisy two-member family with every block's ``column`` times ``scale``."""
    fam = noisy_family(n, (1, 2) * (big_n // 2), 2, seed=seed, noise=0.2)
    factor = np.ones(n)
    factor[column] = scale
    return GFrameFamily(
        tuple(GFrame(n, tuple(b * factor for b in fr.blocks)) for fr in fam.frames),
        allow_degenerate=True,
    )


class TestNotWovenSearch:
    """Exhaustive mode on not-woven families: the same search, whose lower
    side ends once the fold holds a weaving whose ``lambda_min`` rounds to
    ``<= 0``.  Exact equality with the sweep that diagonalises every weaving."""

    @pytest.mark.parametrize("reverse", [True, False], ids=["reversed", "permuted"])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_relabelled_riesz_bases(self, n, reverse):
        fam = _relabelled_riesz_family(n, reverse)
        expected = _certify_reference(fam)
        assert expected.status == "not-woven"
        assert certify_woven(fam) == expected
        assert _searched(fam) == _bounds_and_witnesses(expected)

    # Every weaving has an exactly zero first row and column.
    @pytest.mark.parametrize("seed", [0, 1])
    def test_zero_column(self, seed):
        fam = _column_scaled_family(0.0, column=0, n=3, big_n=10, seed=seed)
        expected = _certify_reference(fam)
        assert expected.status == "not-woven" and expected.universal_lower == 0.0
        assert certify_woven(fam) == expected

    # No weaving rounds to lambda_min <= 0, so the lower side never settles
    # and the lower tests run to the end.
    @pytest.mark.parametrize("scale", [1e-6, 1e-7, 1e-8, 1e-9])
    def test_near_singular_positive(self, scale):
        fam = _column_scaled_family(scale)
        expected = _certify_reference(fam)
        assert expected.status == "not-woven" and expected.universal_lower > 0.0
        assert certify_woven(fam) == expected
        assert _searched(fam) == _bounds_and_witnesses(expected)

    # One lower seed fails and the other three pass: the first lower seed at
    # seed 5035, the second at seed 2378.
    @pytest.mark.parametrize(
        "seed, dims, n",
        [(5035, (1, 2, 1, 2, 1, 1, 1, 1), 5), (2378, (1, 2, 1, 2, 1, 1, 1, 1), 5)],
    )
    def test_one_seed_fails(self, seed, dims, n):
        fam = _scaled_random_family(seed, 2, dims, n)
        assert _failing_seeds(fam).sum() == 1
        expected = _certify_reference(fam)
        assert expected.status == "not-woven"
        assert certify_woven(fam) == expected

    # The seed weavings and the weavings folded before the lower side ends:
    # 73 matrices here, where the engine walk took all 16384.
    def test_reversed_basis_takes_few_spectra(self, monkeypatch):
        fam = _relabelled_riesz_family(14, reverse=True)
        expected = _certify_reference(fam)
        matrices = _counting_eigvalsh(monkeypatch)
        assert certify_woven(fam) == expected
        assert sum(matrices) <= 256
