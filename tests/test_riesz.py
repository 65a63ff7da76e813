import dataclasses
from itertools import permutations, product

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
    certify_woven,
    equivalence_constants,
    frame_bounds,
    induced_frame,
    permutation_weave,
    riesz_bounds,
    synthesis_matrix,
    weaving_riesz_check,
)
from gweave import riesz, weaving
from gweave.generate import GenSpec, generate
from gweave.linalg import DEFAULT_TOL, Tolerance, _rank_from_singular_values
from gweave.riesz import EquivalenceConstants, PermutationWeaveReport, WeavingRieszReport

from _support import (
    _counting_svd,
    ill_conditioned_basis,
    onb_frame,
    random_frame,
    riesz_pair,
    rotation,
)


E1 = np.array([[1.0, 0.0]])
E2 = np.array([[0.0, 1.0]])


def rotated_onb_pair(theta=0.1):
    r = rotation(theta)
    return GFrameFamily((onb_frame(2), GFrame(2, (r[0:1], r[1:2]))))


class TestRieszBounds:
    def test_onb(self):
        rb = riesz_bounds(onb_frame(2))
        assert rb.lower == rb.upper == 1.0
        assert rb.complete and rb.is_basis

    def test_redundant_complete_not_basis(self):
        rb = riesz_bounds(GFrame(2, (E1, E2, E1)))
        assert rb.lower == 0.0
        assert rb.complete
        assert not rb.is_basis

    def test_unitary_split(self):
        f = generate(GenSpec(ambient_dim=3, block_dims=(1, 2), kind="g-orthonormal", seed=8))
        rb = riesz_bounds(f)
        assert rb.lower == pytest.approx(1.0, abs=1e-9)
        assert rb.upper == pytest.approx(1.0, abs=1e-9)
        assert rb.is_basis

    def test_frame_bounds_match_for_bases(self):
        f = generate(GenSpec(ambient_dim=3, block_dims=(1, 1, 1), kind="riesz-basis", seed=4))
        rb, fb = riesz_bounds(f), frame_bounds(f)
        assert rb.lower == pytest.approx(fb.lower, abs=1e-10)
        assert rb.upper == pytest.approx(fb.upper, abs=1e-10)

    @pytest.mark.parametrize("dims", [(1,) * 5, (2, 1, 2), (1, 2, 2, 1)])
    def test_one_svd(self, dims, monkeypatch):
        # (1, 2, 2, 1) has more columns than n = 5: complete, not a basis.
        f = random_frame(5, dims, seed=3)
        expected = riesz_bounds(f)
        calls = _counting_svd(monkeypatch)
        assert riesz_bounds(f) == expected
        assert len(calls) == 1
        assert type(expected.complete) is bool

    def test_induced_frame_same_classification(self):
        f = generate(GenSpec(ambient_dim=4, block_dims=(2, 2), kind="riesz-basis", seed=6))
        a, b = riesz_bounds(f), riesz_bounds(induced_frame(f))
        assert a.is_basis == b.is_basis
        assert a.lower == pytest.approx(b.lower, abs=1e-10)
        assert a.upper == pytest.approx(b.upper, abs=1e-10)
        np.testing.assert_allclose(
            synthesis_matrix(f), synthesis_matrix(induced_frame(f)), atol=1e-15
        )


class TestWeavingRieszCheck:
    def test_two_onb_copies(self):
        f = onb_frame(2)
        rep = weaving_riesz_check(GFrameFamily((f, f)))
        assert rep.woven
        assert rep.common_lower == pytest.approx(1.0, abs=1e-12)
        assert rep.common_upper == pytest.approx(1.0, abs=1e-12)

    def test_swapped_onb_fails(self):
        fam = GFrameFamily((onb_frame(2), GFrame(2, (E2, E1))))
        rep = weaving_riesz_check(fam)
        assert not rep.woven
        assert rep.common_lower == pytest.approx(0.0, abs=1e-15)
        assert rep.witness_lower.labels == (1, 2)

    def test_rotated_onb_all_bases(self):
        theta = 0.1
        rep = weaving_riesz_check(rotated_onb_pair(theta))
        assert rep.woven
        assert rep.common_lower == pytest.approx(1 - np.sin(theta), abs=1e-12)
        assert rep.common_upper == pytest.approx(1 + np.sin(theta), abs=1e-12)

    def test_requires_bases(self):
        redundant = GFrame(2, (E1, E2, E1))
        with pytest.raises(ValueError, match="Riesz basis"):
            weaving_riesz_check(GFrameFamily((redundant, redundant)))


class TestPermutationWeave:
    def test_identity_is_woven(self):
        f = generate(GenSpec(ambient_dim=3, block_dims=(1, 1, 1), kind="riesz-basis", seed=2))
        fb = frame_bounds(f)
        rep = permutation_weave(f, (1, 2, 3))
        assert rep.identity and rep.woven
        assert rep.universal_lower == pytest.approx(fb.lower, abs=1e-10)
        assert rep.universal_upper == pytest.approx(fb.upper, abs=1e-10)

    def test_swap_not_woven_with_lex_witness(self):
        rep = permutation_weave(onb_frame(2), (2, 1))
        assert not rep.woven
        assert rep.witness.labels == (1, 2)

    def test_three_cycle(self):
        rep = permutation_weave(onb_frame(3), (2, 3, 1))
        assert not rep.woven
        assert rep.span_lower_min >= rep.base_lower - 1e-9
        assert rep.universal_upper <= 2 * rep.base_upper + 1e-9

    def test_verdict_iff_identity_all_perms(self):
        f = generate(GenSpec(ambient_dim=4, block_dims=(1, 1, 1, 1), kind="riesz-basis", seed=9))
        for pi in permutations(range(1, 5)):
            rep = permutation_weave(f, pi)
            assert rep.woven == (pi == (1, 2, 3, 4))
            assert rep.span_lower_min >= rep.base_lower - 1e-9
            assert rep.universal_upper <= 2 * rep.base_upper + 1e-9

    def test_mixed_dims_swap(self):
        f = generate(GenSpec(ambient_dim=4, block_dims=(1, 2, 1), kind="riesz-basis", seed=3))
        rep = permutation_weave(f, (3, 2, 1))  # dims (1, 2, 1) allow swapping 1 and 3
        assert not rep.woven
        with pytest.raises(ValueError, match="dimension mismatch"):
            permutation_weave(f, (2, 1, 3))

    def test_requires_basis(self):
        with pytest.raises(ValueError, match="Riesz basis"):
            permutation_weave(GFrame(2, (E1, E2, E1)), (1, 2, 3))

    @pytest.mark.parametrize("pi, woven", [((1, 2, 3), True), ((2, 1, 3), False)])
    def test_members_checked_at_the_callers_tolerance(self, pi, woven):
        # A basis only at the caller's frame_rtol: the default tolerance
        # would classify it as g-bessel-only.
        f, tol = ill_conditioned_basis(), Tolerance(frame_rtol=1e-12)
        assert riesz_bounds(f, tol).is_basis and not frame_bounds(f).is_frame
        assert permutation_weave(f, pi, tol).woven is woven
        _assert_permutation_matches(f, pi, tol)

    @pytest.mark.parametrize("pi", [(1, 2, 3, 4), (2, 1, 3, 4), (4, 3, 2, 1)])
    def test_one_svd_whatever_pi(self, pi, monkeypatch):
        # riesz_bounds' SVD of f's synthesis matrix; no weaving takes one.
        f = _basis((1,) * 4, 7)
        expected = permutation_weave(f, pi)
        matrices = _counting_svd(monkeypatch)
        assert permutation_weave(f, pi) == expected
        assert matrices == [1]

    @pytest.mark.parametrize("pi", [(2, 1, 3, 4), (4, 3, 2, 1)])
    def test_upper_side_only(self, pi, monkeypatch):
        # For pi != id the lower side is 0 by structure: no lower seed is
        # computed, and one upper search gives universal_upper.
        f = _basis((1,) * 4, 7)
        expected = permutation_weave(f, pi)
        seed_weavings, sides = weaving._seed_weavings, []

        def recording(grams, suffix, lower):
            sides.append(lower)
            return seed_weavings(grams, suffix, lower)

        monkeypatch.setattr(weaving, "_seed_weavings", recording)
        assert permutation_weave(f, pi) == expected
        assert sides == [False]


class TestPreconditions:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda f: weaving_riesz_check(GFrameFamily((f, f, f))),
             "the Riesz weaving check is defined for two-member families"),
            (lambda f: permutation_weave(f, (1, 1)), "pi must be a permutation of 1..2"),
        ],
        ids=["three-members", "repeated-index"],
    )
    def test_rejected_with_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call(onb_frame(2))
        assert str(info.value) == message

    # int() would read the first three as (1, 2), (1, 2) and (2, 1).
    @pytest.mark.parametrize(
        "pi", [(1.9, 2.2), (True, 2), np.array([2.7, 1.0]), (2.0, 1.0), ("2", "1")],
        ids=["floats", "bool", "float-array", "integral-floats", "strings"],
    )
    def test_non_integer_entries_rejected(self, pi):
        with pytest.raises(ValueError) as info:
            permutation_weave(onb_frame(2), pi)
        assert str(info.value) == "pi must be a permutation of 1..2"

    @pytest.mark.parametrize("pi", [np.array([2, 1]), (np.int32(2), np.uint8(1))])
    def test_numpy_integer_entries_accepted(self, pi):
        rep = permutation_weave(onb_frame(2), pi)
        assert rep.permutation == (2, 1) and not rep.woven
        assert all(type(x) is int for x in rep.permutation)


class TestBudget:
    @pytest.mark.parametrize("budget", [0, -3])
    def test_rejects_budget_below_one(self, budget):
        fam = rotated_onb_pair()
        for sweep in (weaving_riesz_check, equivalence_constants):
            with pytest.raises(ValueError, match="budget must be >= 1"):
                sweep(fam, budget=budget)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            permutation_weave(onb_frame(2), (2, 1), budget=budget)

    def test_exceeded_budget_states_the_sweep_size(self):
        fam = rotated_onb_pair()
        # One sweep serves both reports, so both state it alike.
        for sweep in (weaving_riesz_check, equivalence_constants):
            with pytest.raises(
                BudgetExceededError,
                match=r"^Riesz weaving check needs 2\^2 = 4 weavings, budget is 3$",
            ):
                sweep(fam, budget=3)
        with pytest.raises(BudgetExceededError, match=r"2\^2 = 4 weavings, budget is 3"):
            permutation_weave(onb_frame(2), (2, 1), budget=3)


class TestEquivalenceConstants:
    def test_identical_onb(self):
        f = onb_frame(2)
        ec = equivalence_constants(GFrameFamily((f, f)))
        assert ec.a2 == pytest.approx(1.0, abs=1e-12)
        assert ec.d3 == pytest.approx(1.0, abs=1e-12)
        assert ec.e4 == ec.a2
        assert ec.riesz_low == pytest.approx(1.0, abs=1e-12)
        assert ec.riesz_up == pytest.approx(1.0, abs=1e-12)

    def test_scaled_onb(self):
        f = onb_frame(2)
        ec = equivalence_constants(GFrameFamily((f, apply_operator(f, 2.0 * np.eye(2)))))
        assert ec.a2 == pytest.approx(1.0, abs=1e-12)
        assert ec.d3 == pytest.approx(1.0, abs=1e-12)
        assert ec.riesz_low == pytest.approx(1.0, abs=1e-12)
        assert ec.riesz_up == pytest.approx(4.0, abs=1e-12)
        assert ec.d3 >= 0.5 * ec.a2 / (ec.a2 + 1.0) - 1e-8
        assert ec.a2 >= ec.riesz_low / ec.riesz_up - 1e-8

    def test_rotated_pair_closed_forms(self):
        theta = 0.1
        ec = equivalence_constants(rotated_onb_pair(theta))
        s = np.sin(theta)
        assert ec.a2 == pytest.approx(1 - s**2, abs=1e-10)
        assert ec.d3 == pytest.approx(1 - s, abs=1e-10)
        assert ec.riesz_low == pytest.approx(1 - s, abs=1e-10)
        assert ec.riesz_up == pytest.approx(1 + s, abs=1e-10)

    def test_proof_inequalities_and_ordering(self):
        for seed in range(6):
            fam = riesz_pair(3, seed=seed)
            ec = equivalence_constants(fam)
            assert ec.d3 <= ec.a2 + 1e-12
            assert ec.d3 >= 0.5 * ec.a2 / (ec.a2 + 1.0) - 1e-8
            assert ec.a2 >= ec.riesz_low / ec.riesz_up - 1e-8

    def test_positivity_iff_woven(self):
        pairs = [riesz_pair(3, seed=s) for s in range(4)]
        pairs.append(GFrameFamily((onb_frame(3), GFrame(3, onb_frame(3).blocks[1:] + onb_frame(3).blocks[:1]))))
        for fam in pairs:
            ec = equivalence_constants(fam)
            woven = certify_woven(fam).status == "woven"
            positive = min(ec.riesz_low, ec.a2, ec.d3, ec.e4) > 1e-9
            assert positive == woven

    @pytest.mark.parametrize("n", [3, 5, 9])
    @pytest.mark.parametrize("seed", range(4))
    def test_riesz_bounds_are_the_weaving_check_bounds(self, n, seed):
        # One quantity, one float: both reports read the same weaving SVDs.
        fam = riesz_pair(n, seed)
        ec, rep = equivalence_constants(fam), weaving_riesz_check(fam)
        assert ec.riesz_low == rep.common_lower
        assert ec.riesz_up == rep.common_upper

    def test_requires_pair(self):
        f = random_frame(2, (1, 1), seed=1)
        with pytest.raises(ValueError, match="two-member"):
            equivalence_constants(GFrameFamily((f, f, f)))


# The Riesz sweeps as they were before batching: one partition at a time in
# lexicographic order, one SVD per matrix, squares taken with Python floats.
# The chunked sweeps must reproduce them exactly.


def _reference_synthesis(fam, labels0):
    return np.hstack([fam.frames[l].blocks[i].conj().T for i, l in enumerate(labels0)])


def _reference_range_basis(mat, tol):
    if mat.shape[1] == 0:
        return mat
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return u[:, :0]
    keep = s > tol.rank_rtol * s[0] * max(mat.shape)
    return u[:, keep]


def _weaving_riesz_reference(fam, tol=DEFAULT_TOL):
    big_n = fam.n_indices
    best_low, best_up = np.inf, -np.inf
    wit_low = wit_up = None
    for labels0 in product((0, 1), repeat=big_n):
        s = np.linalg.svd(_reference_synthesis(fam, labels0), compute_uv=False)
        low, up = float(s[-1]) ** 2, float(s[0]) ** 2
        if low < best_low:
            best_low, wit_low = low, labels0
        if up > best_up:
            best_up, wit_up = up, labels0
    return WeavingRieszReport(
        woven=best_low > tol.frame_rtol * best_up,
        common_lower=max(best_low, 0.0),
        common_upper=best_up,
        witness_lower=Partition(tuple(x + 1 for x in wit_low)),
        witness_upper=Partition(tuple(x + 1 for x in wit_up)),
        partitions_checked=2**big_n,
    )


def _permutation_reference(f, pi, tol=DEFAULT_TOL):
    big_n = f.n_blocks
    recoded = GFrame(f.ambient_dim, tuple(f.blocks[t - 1] for t in pi))
    fam = GFrameFamily((f, recoded), allow_degenerate=True)
    fb = frame_bounds(f, tol)
    maxdim = max(f.ambient_dim, f.coeff_dim)
    best_low, best_up = np.inf, -np.inf
    wit_low = None
    span_low_min = np.inf
    for labels0 in product((0, 1), repeat=big_n):
        s = np.linalg.svd(_reference_synthesis(fam, labels0), compute_uv=False)
        low, up = float(s[-1]) ** 2, float(s[0]) ** 2
        if low < best_low:
            best_low, wit_low = low, labels0
        best_up = max(best_up, up)
        live = s[s > tol.rank_rtol * s[0] * maxdim]
        span_low_min = min(span_low_min, float(live[-1]) ** 2)
    woven = best_low > tol.frame_rtol * best_up
    return PermutationWeaveReport(
        permutation=tuple(pi),
        identity=tuple(pi) == tuple(range(1, big_n + 1)),
        woven=woven,
        base_lower=fb.lower,
        base_upper=fb.upper,
        universal_lower=max(best_low, 0.0),
        universal_upper=best_up,
        span_lower_min=span_low_min,
        witness=None if woven else Partition(tuple(x + 1 for x in wit_low)),
    )


def _equivalence_reference(fam, tol=DEFAULT_TOL):
    t_first = synthesis_matrix(fam.frames[0])
    t_second = synthesis_matrix(fam.frames[1])
    dims = np.asarray(fam.block_dims)
    n = fam.ambient_dim
    riesz_low, riesz_up = np.inf, -np.inf
    a2 = np.inf
    d3 = np.inf
    for labels0 in product((0, 1), repeat=fam.n_indices):
        col_owner = np.repeat(np.asarray(labels0), dims)
        left = t_first[:, col_owner == 0]
        right = t_second[:, col_owner == 1]

        weave = _reference_synthesis(fam, labels0)
        s = np.linalg.svd(weave, compute_uv=False)
        up = float(s[0]) ** 2
        low = 0.0 if weave.shape[1] > n else float(s[-1]) ** 2
        riesz_low, riesz_up = min(riesz_low, low), max(riesz_up, up)

        o_left = _reference_range_basis(left, tol)
        o_right = _reference_range_basis(right, tol)
        if o_left.shape[1] > 0:
            if o_right.shape[1] == 0:
                a2 = min(a2, 1.0)
            else:
                overlap = np.linalg.svd(o_right.conj().T @ o_left, compute_uv=False)
                a2 = min(a2, max(0.0, 1.0 - float(overlap[0]) ** 2))

        mix = np.hstack([o_left, o_right])
        if mix.shape[1] > 0:
            if mix.shape[1] > n:
                d3 = min(d3, 0.0)
            else:
                sm = np.linalg.svd(mix, compute_uv=False)
                d3 = min(d3, float(sm[-1]) ** 2)
    return EquivalenceConstants(
        riesz_low=max(float(riesz_low), 0.0),
        riesz_up=float(riesz_up),
        a2=float(a2),
        d3=float(d3),
        e4=float(a2),
    )


def _code(p):
    return int("".join(str(x - 1) for x in p.labels), 2)


def _basis(dims, seed):
    return generate(GenSpec(sum(dims), dims, "riesz-basis", seed))


def _assert_pair_matches(fam):
    assert dataclasses.astuple(weaving_riesz_check(fam)) == dataclasses.astuple(
        _weaving_riesz_reference(fam)
    )
    assert dataclasses.astuple(equivalence_constants(fam)) == dataclasses.astuple(
        _equivalence_reference(fam)
    )


def _assert_not_a_basis(fam, member):
    """Both Riesz pair reports reject ``fam`` for the same ``member``."""
    for check in (weaving_riesz_check, equivalence_constants):
        with pytest.raises(ValueError, match=f"^member {member} is not a g-Riesz basis$"):
            check(fam)


def _assert_permutation_matches(f, pi, tol=DEFAULT_TOL):
    """The identity must equal the reference loop bit for bit.  Any other
    ``pi`` must give the structural report (see ``permutation_weave``):
    the lower side, witness and ``span_lower_min`` exactly, and both bounds
    within ``1e3 n eps`` relative of the loop's floats."""
    rep, ref = permutation_weave(f, pi, tol), _permutation_reference(f, pi, tol)
    if ref.identity:
        assert dataclasses.astuple(rep) == dataclasses.astuple(ref)
        return
    big_n, n = f.n_blocks, f.ambient_dim
    assert (rep.permutation, rep.identity, rep.woven) == (tuple(pi), False, False)
    assert (rep.base_lower, rep.base_upper) == (ref.base_lower, ref.base_upper)
    assert rep.universal_lower == 0.0
    # The witness takes block pi(j) twice, j the largest index pi moves.
    moved = max(i for i, target in enumerate(pi) if target != i + 1)
    labels0 = tuple(int(i == moved) for i in range(big_n))
    assert rep.witness == Partition(tuple(x + 1 for x in labels0))
    fam = GFrameFamily((f, GFrame(n, tuple(f.blocks[t - 1] for t in pi))), allow_degenerate=True)
    t = _reference_synthesis(fam, labels0)
    assert _rank_from_singular_values(np.linalg.svd(t, compute_uv=False), t.shape, tol) < n
    # Every earlier weaving is f's own synthesis matrix, a basis under tol.
    rb = riesz_bounds(f, tol)
    assert rb.is_basis
    for code in range(_code(rep.witness)):
        labels = tuple(int(x) for x in np.binary_repr(code, big_n))
        assert np.array_equal(_reference_synthesis(fam, labels), synthesis_matrix(f))
    assert rep.span_lower_min == rb.lower
    assert rep.universal_upper == certify_woven(fam, tol=tol).universal_upper
    rel = 1e3 * n * np.finfo(float).eps
    assert abs(rep.span_lower_min - ref.span_lower_min) <= rel * ref.span_lower_min
    assert abs(rep.universal_upper - ref.universal_upper) <= rel * ref.universal_upper


class TestBatchedSweepsMatchReferenceLoops:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_multi_chunk_pair_with_late_witnesses(self, seed):
        fam = riesz_pair(9, seed=seed)  # 512 partitions: 8 blocks of 64
        rep = weaving_riesz_check(fam)
        assert min(_code(rep.witness_lower), _code(rep.witness_upper)) >= 128
        _assert_pair_matches(fam)

    @pytest.mark.parametrize(
        "pi", [(2, 1, 3, 4, 5, 6, 7, 8, 9), (9, 8, 7, 6, 5, 4, 3, 2, 1), tuple(range(1, 10))]
    )
    def test_multi_chunk_permutation(self, pi):
        f = _basis((1,) * 9, 3)
        _assert_permutation_matches(f, pi)

    # Witnesses that open the third and the second block of 64: the first
    # singular code, 2**(9 - j) with j the largest index that pi moves.
    @pytest.mark.parametrize(
        "f, pi, code",
        [
            (_basis((1,) * 9, 3), (2, 1, 3, 4, 5, 6, 7, 8, 9), 128),
            (onb_frame(9), (1, 3, 2, 4, 5, 6, 7, 8, 9), 64),
        ],
        ids=["code-128", "code-64"],
    )
    def test_permutation_witness_opens_a_block(self, f, pi, code):
        assert _code(permutation_weave(f, pi).witness) == code
        _assert_permutation_matches(f, pi)

    def test_ties_across_chunks_keep_the_first_partition(self):
        f = _basis((1,) * 9, 5)
        fam = GFrameFamily((f, f))
        rep = weaving_riesz_check(fam)
        # Every weaving is the same matrix, so the first partition wins both ties.
        assert rep.witness_lower.labels == rep.witness_upper.labels == (1,) * 9
        _assert_pair_matches(fam)
        _assert_permutation_matches(f, tuple(range(1, 10)))

    @pytest.mark.parametrize("seed", [12, 16, 22, 25, 34])
    def test_mixed_dims_with_single_column_side(self, seed):
        # Range bases with one column take a different BLAS route in the
        # overlap product unless laid out column-major, as u[:, keep] is.
        dims = (2, 1, 3)
        _assert_pair_matches(GFrameFamily((_basis(dims, seed), _basis(dims, seed + 100))))

    def test_mixed_dims_swap_matches(self):
        # numpy's x * x differs from float ** 2 here in the loop's largest
        # s_max**2; universal_upper is now an eigenvalue, within n eps of it.
        _assert_permutation_matches(_basis((1, 2, 1, 2), 52), (3, 2, 1, 4))

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_dims_permutations(self, seed):
        f = _basis((1, 2, 1, 2, 1), seed)
        for pi in [(3, 4, 5, 2, 1), (5, 2, 1, 4, 3), (1, 2, 3, 4, 5)]:
            _assert_permutation_matches(f, pi)

    def test_equivalence_with_redundant_member(self):
        redundant = GFrame(2, (E1, E2, E1))
        fam = GFrameFamily((redundant, random_frame(2, (1, 1, 1), seed=3)))
        # Labels (1, 2, 1) keep E1 twice on the left: rank 1 below min(n, 2).
        assert np.linalg.matrix_rank(synthesis_matrix(redundant)[:, [0, 2]]) == 1
        _assert_not_a_basis(fam, 1)

    @pytest.mark.parametrize("n, seed", [(3, 4), (3, 6), (9, 3)])
    def test_equivalence_with_rank_deficient_side(self, n, seed):
        # The second member repeats its first block, so the right side of
        # some partitions has fewer independent columns than columns.
        other = _basis((1,) * n, seed + 100)
        degenerate = GFrame(n, other.blocks[:-1] + other.blocks[:1])
        fam = GFrameFamily((_basis((1,) * n, seed), degenerate), allow_degenerate=True)
        _assert_not_a_basis(fam, 2)


def _scaled_riesz_sequence(dims, extra, seed, decades):
    """A g-Riesz basis of ``C**sum(dims)`` whose coefficient columns are
    scaled by ``10**u``, ``u`` uniform in ``[0, decades]``, carried into
    ``C**(sum(dims) + extra)`` by a random isometry."""
    c = sum(dims)
    f = _basis(dims, seed)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((c + extra, c)) + 1j * rng.standard_normal((c + extra, c))
    iso = np.linalg.qr(z)[0].conj().T
    scale = 10.0 ** rng.uniform(0.0, decades, c)
    rows = np.split(scale, np.cumsum(dims)[:-1])
    return GFrame(c + extra, tuple((r[:, None] * b) @ iso for r, b in zip(rows, f.blocks)))


class TestAngleScreen:
    @pytest.mark.parametrize("dims, extra, seed", [((1,) * 9, 1, 0), ((1, 2) * 4 + (1,), 2, 1)])
    def test_riesz_sequences_past_one_block_are_rejected(self, dims, extra, seed):
        # c < n: each member is a g-Riesz sequence, not a basis.
        fam = GFrameFamily(
            tuple(_scaled_riesz_sequence(dims, extra, seed + 7919 * j, 1.0) for j in range(2)),
            allow_degenerate=True,
        )
        _assert_not_a_basis(fam, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 3), min_size=2, max_size=6),
        extra=st.integers(0, 2),
        seed=st.integers(0, 2**16),
        decades=st.floats(0.0, 3.0),
    )
    def test_matches_reference_on_scaled_riesz_pairs(self, dims, extra, seed, decades):
        # Independent members: on some draws the screen drops partitions,
        # and column scalings widen nu / mu until it keeps them all.  With
        # extra > 0 (c < n) the members are g-Riesz sequences, not bases.
        dims = tuple(dims)
        fam = GFrameFamily(
            tuple(_scaled_riesz_sequence(dims, extra, seed + 7919 * j, decades) for j in range(2)),
            allow_degenerate=extra > 0,
        )
        if extra > 0:
            _assert_not_a_basis(fam, 1)
            return
        assert dataclasses.astuple(equivalence_constants(fam)) == dataclasses.astuple(
            _equivalence_reference(fam)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_angle_stage_runs_on_few_partitions(self, seed, monkeypatch):
        # Two independent bases, as the benchmark pairs them.  The weaving
        # pass sends at most its 2**9 matrices to svd (the Cholesky screen
        # skips some), the members' Riesz bounds 2; the rest is the angle
        # stage, at most 4 per kept partition.  With no screen it is 2044
        # (four per partition less the empty sides).
        fam = GFrameFamily(tuple(_basis((1,) * 9, seed + 1000 * j) for j in range(2)))
        expected = equivalence_constants(fam)
        matrices = _counting_svd(monkeypatch)
        assert equivalence_constants(fam) == expected
        assert sum(matrices) - 2**9 - 2 <= 128


def _prefix_dims(dims):
    """The longest prefix of ``dims`` whose block dimensions sum to at most 8."""
    return tuple(d for i, d in enumerate(dims) if sum(dims[: i + 1]) <= 8)


# Mixed block dimensions summing to n in [2, 8]: the first two already give
# at least 2, and every prefix keeps n <= 8.
_square_dims = st.lists(st.integers(1, 3), min_size=2, max_size=8).map(_prefix_dims)


@st.composite
def _dims_and_permutation(draw):
    """Block dimensions (``N <= 8``, each 1 or 2) and a permutation of
    ``1..N`` that maps each index to one of equal dimension."""
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=8))
    pi = [0] * len(dims)
    for d in sorted(set(dims)):
        at = [i for i, x in enumerate(dims) if x == d]
        for i, target in zip(at, draw(st.permutations(at))):
            pi[i] = target + 1
    return tuple(dims), tuple(pi)


def _independent_bases(dims, seed):
    return GFrameFamily((_basis(dims, seed), _basis(dims, seed + 7919)))


class TestRieszProperties:
    @settings(max_examples=30, deadline=None)
    @given(dims=_square_dims, seed=st.integers(0, 2**16))
    def test_common_unitary_leaves_the_reports_unchanged(self, dims, seed):
        # U maps every weaving's synthesis matrix T to U* T: its singular
        # values and the principal angles between its sides stay put.
        fam = _independent_bases(dims, seed)
        rng = np.random.default_rng(seed)
        n = fam.ambient_dim
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        moved = GFrameFamily(tuple(apply_operator(fr, u) for fr in fam.frames))
        ec, ec_moved = equivalence_constants(fam), equivalence_constants(moved)
        assert ec_moved.riesz_low == pytest.approx(ec.riesz_low, abs=1e-9 * ec.riesz_up)
        assert ec_moved.riesz_up == pytest.approx(ec.riesz_up, rel=1e-9)
        assert ec_moved.a2 == pytest.approx(ec.a2, abs=1e-12)
        assert ec_moved.d3 == pytest.approx(ec.d3, abs=1e-12)
        assert weaving_riesz_check(moved).woven == weaving_riesz_check(fam).woven

    @settings(max_examples=30, deadline=None)
    @given(shape=_dims_and_permutation(), seed=st.integers(0, 2**16))
    def test_permutation_weave_is_structural(self, shape, seed):
        dims, pi = shape
        _assert_permutation_matches(_basis(dims, seed), pi)

    @settings(max_examples=30, deadline=None)
    @given(dims=_square_dims, seed=st.integers(0, 2**16))
    def test_square_pairs_agree_with_certify_woven_to_tolerance(self, dims, seed):
        # Squared singular values of T against eigenvalues of T T*: the two
        # agree only to rounding, up to 2.4e-8 relative on n = 12 pairs, so
        # equality must never be asserted bitwise.
        fam = _independent_bases(dims, seed)
        rep, cert = weaving_riesz_check(fam), certify_woven(fam)
        tol = 1e-9 * cert.universal_upper
        assert rep.common_lower == pytest.approx(cert.universal_lower, abs=tol)
        assert rep.common_upper == pytest.approx(cert.universal_upper, abs=tol)
        assert rep.woven == (cert.status == "woven")


def _diagonal_pair(seed: int, rel: float, tied: str, n: int = 10) -> GFrameFamily:
    """Two g-Riesz bases whose weavings have singular values ``t_{i sigma_i}``.

    Block i of member j is ``t_ij`` times row i of one random unitary ``Q``,
    so a weaving's synthesis matrix is ``Q* diag(t_{i sigma_i})``.  Index 0
    holds the smallest (``tied="lower"``) or largest entries, with ``t_02 =
    t_01 (1 + rel z)``: every weaving then sits within ``rel`` of that bound,
    and which one attains it is decided by rounding.
    """
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    t = rng.uniform(1.0, 2.0, (n, 2))
    t[0] = 0.5 if tied == "lower" else 3.0
    t[0, 1] *= 1 + rel * rng.standard_normal()
    return GFrameFamily(tuple(
        GFrame(n, tuple(t[i, j] * q[i : i + 1] for i in range(n))) for j in range(2)
    ))


class TestWeavingScreen:
    """On square pairs the weaving SVDs are screened by a Cholesky test on
    the frame operators: the reports must equal the unscreened loops."""

    @pytest.mark.parametrize("seed", range(4))
    def test_most_weaving_svds_skipped(self, seed, monkeypatch):
        # Two independent bases, as the benchmark pairs them: 4096 weavings,
        # of which an unscreened sweep sends every one to svd.  Screened per
        # row, 102-130 take it (the first block's 64 among them); screened
        # per block of 64, 576-1344 did.
        fam = GFrameFamily(tuple(_basis((1,) * 12, seed + 1000 * j) for j in range(2)))
        expected = _weaving_riesz_reference(fam)
        matrices = _counting_svd(monkeypatch)
        assert weaving_riesz_check(fam) == expected
        assert sum(matrices) - 2 <= 160

    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_that_partly_fail_the_screen(self, seed, monkeypatch):
        # Only the failing rows of such a block take the SVD; the rest are
        # proven strictly inside the running bounds.
        fam = _independent_bases((1,) * 9, seed)
        screen, masks = riesz._inside_bounds, []

        def recording(*args):
            masks.append(screen(*args))
            return masks[-1]

        monkeypatch.setattr(riesz, "_inside_bounds", recording)
        _assert_pair_matches(fam)
        assert any(0 < mask.sum() < len(mask) for mask in masks)

    @pytest.mark.parametrize("tied", ["lower", "upper"])
    @pytest.mark.parametrize("rel", [0.0, 1e-14])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_diagonal_ties(self, tied, rel, seed):
        fam = _diagonal_pair(seed, rel, tied)
        # The first member alone is the weaving with every label 1.
        s = np.linalg.svd(synthesis_matrix(fam.frames[0]), compute_uv=False)
        t = [np.linalg.norm(b) for b in fam.frames[0].blocks]
        np.testing.assert_allclose(s, sorted(t, reverse=True), rtol=1e-14)
        _assert_pair_matches(fam)

    @settings(max_examples=30, deadline=None)
    @given(dims=_square_dims, seed=st.integers(0, 2**16))
    def test_matches_reference_on_square_pairs(self, dims, seed):
        _assert_pair_matches(_independent_bases(dims, seed))


def _sweep_reference(fam, tol=DEFAULT_TOL):
    """``_riesz_sweep``'s ``(best, kept)`` by brute force: every partition's
    SVD, and the rows with ``s_min(T)**2 <= thr(min s_min**2)`` in code
    order, ``thr`` the sweep's angle threshold (``inf`` unless both members
    pass ``lower > frame_rtol * upper``)."""
    members = [riesz_bounds(fr, tol) for fr in fam.frames]
    rows = list(product((0, 1), repeat=fam.n_indices))
    floors, best = [], (np.inf, None, -np.inf, None)
    for labels0 in rows:
        s = np.linalg.svd(_reference_synthesis(fam, labels0), compute_uv=False)
        low, up = float(s[-1]) ** 2, float(s[0]) ** 2
        floors.append(low)
        if low < best[0]:
            best = (low, labels0, *best[2:])
        if up > best[2]:
            best = (*best[:2], up, labels0)
    thr = np.inf
    if all(rb.lower > tol.frame_rtol * rb.upper for rb in members):
        mu2, nu2 = min(rb.lower for rb in members), max(rb.upper for rb in members)
        slack = 1e3 * max(fam.ambient_dim, fam.coeff_dim) * np.finfo(float).eps * nu2
        thr = (1 + 1e-6) * nu2 / mu2 * (best[0] + slack)
    return best, [r for r, f in zip(rows, floors) if f <= thr]


def _riesz_sequences(dims, extra, seed):
    return GFrameFamily(
        tuple(_scaled_riesz_sequence(dims, extra, seed + 7919 * j, 0.0) for j in range(2)),
        allow_degenerate=True,
    )


class TestSweepKeptRows:
    """The rows the Riesz sweep hands to the angle stage, against every
    partition's SVD."""

    @pytest.mark.parametrize(
        "fam",
        [
            # Both screens: most partitions skip the weaving SVD.
            _independent_bases((1,) * 10, 3),
            _independent_bases((1, 2, 1, 1, 2, 1), 8),
        ],
        ids=["square", "square-mixed-dims"],
    )
    def test_kept_rows_match_brute_force(self, fam):
        members = [riesz_bounds(fr) for fr in fam.frames]
        (low, low_at, up, up_at), kept = riesz._riesz_sweep(fam, members)
        best, expected = _sweep_reference(fam)
        assert (low, tuple(low_at), up, tuple(up_at)) == best
        assert [tuple(r) for r in kept.tolist()] == expected
        assert 0 < len(expected) < 2**fam.n_indices

    @pytest.mark.parametrize(
        "fam",
        [
            # c < n: g-Riesz sequences.
            _riesz_sequences((1,) * 9, 1, 0),
            _riesz_sequences((1, 2) * 4, 1, 1),
            # A redundant member.
            GFrameFamily((GFrame(2, (E1, E2, E1)), random_frame(2, (1, 1, 1), seed=3))),
        ],
        ids=["sequence", "sequence-mixed-dims", "redundant"],
    )
    def test_non_bases_never_reach_the_sweep(self, fam, monkeypatch):
        monkeypatch.setattr(riesz, "_riesz_sweep", None)
        _assert_not_a_basis(fam, 1)
