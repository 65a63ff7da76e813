from functools import partial
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gweave import (
    GFrame,
    GFrameFamily,
    apply_operator,
    certify_woven,
    chained_certificate,
    frame_bounds,
    frame_operator,
    minimal_k,
    op_norm,
    operator_perturbation,
    perturbation_certificate,
    report_dict,
    scaled_dual_weave,
    synthesis_matrix,
)
from gweave import perturb
from gweave.generate import GenSpec, generate
from gweave.linalg import DEFAULT_TOL
from gweave.perturb import FalsificationWitness, PerturbationCertificate, _k_certificate

from _support import (
    _counting_svd, noisy_at, noisy_family, onb_frame, random_frame, rotation, swapped_onb_family,
)


def scaled_pair(factor, n=2):
    f = onb_frame(n)
    return GFrameFamily((f, apply_operator(f, factor * np.eye(n))))


class TestMinimalK:
    def test_identical_members(self):
        fam = noisy_family(2, (1, 1, 1), 2, seed=0, noise=0.0)
        cert = minimal_k(fam)
        assert cert.feasible
        assert cert.k == pytest.approx(0.0, abs=1e-12)
        expected = sum(cert.member_lowers) / 3.0
        assert cert.predicted_lower == pytest.approx(expected, abs=1e-12)

    def test_uniform_scaling_gives_eps_squared(self):
        eps = 0.1
        cert = minimal_k(scaled_pair(1 + eps))
        assert cert.feasible
        assert cert.k == pytest.approx(eps**2, abs=1e-9)
        rep = certify_woven(scaled_pair(1 + eps))
        assert rep.universal_lower >= cert.predicted_lower - 1e-8

    def test_noisy_full_rank_blocks_sound(self):
        # Full-rank blocks keep every restricted energy operator invertible,
        # so small additive noise stays feasible.
        for seed in range(4):
            fam = noisy_family(2, (2, 2, 2), 2, seed=seed, noise=1e-3)
            cert = minimal_k(fam)
            assert cert.feasible
            assert cert.k < 0.1
            rep = certify_woven(fam)
            assert rep.universal_lower >= cert.predicted_lower - 1e-8

    def test_per_index_scalings_sound(self):
        rng = np.random.default_rng(12)
        f = random_frame(2, (1, 1, 1), seed=20)
        scales = 1.0 + rng.uniform(-0.1, 0.1, 3)
        gam = GFrame(2, tuple(c * b for c, b in zip(scales, f.blocks)))
        fam = GFrameFamily((f, gam))
        cert = minimal_k(fam)
        assert cert.feasible
        rep = certify_woven(fam)
        assert rep.universal_lower >= cert.predicted_lower - 1e-8

    def test_generic_noise_on_thin_blocks_is_infeasible(self):
        # A singleton subset makes the restricted energy operator rank one;
        # additive noise pushes the difference outside its row space, so no
        # finite constant dominates.
        fam = noisy_family(2, (1, 1, 1), 2, seed=5, noise=0.02)
        assert not minimal_k(fam).feasible

    def test_monotone_in_perturbation_size(self):
        base = noisy_family(2, (2, 2), 2, seed=5, noise=0.02)
        lam, gam = base.frames
        ks = []
        for c in (0.5, 1.0, 2.0):
            blocks = tuple(a + c * (b - a) for a, b in zip(lam.blocks, gam.blocks))
            fam = GFrameFamily((lam, GFrame(2, blocks)))
            cert = minimal_k(fam)
            assert cert.feasible
            ks.append(cert.k)
        assert ks[0] <= ks[1] + 1e-12 <= ks[2] + 1e-12

    def test_infeasible_when_kernels_disagree(self):
        cert = minimal_k(swapped_onb_family())
        assert not cert.feasible
        assert cert.k is None and cert.predicted_lower is None

    def test_worst_subset_reported(self):
        cert = minimal_k(scaled_pair(1.2))
        assert cert.worst_pair == (1, 2)
        assert cert.worst_subset is not None

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6, 1e3])
    def test_kernel_verdict_does_not_depend_on_scale(self, scale):
        # Rank-one blocks with independent noise: D has mass on ker M, so no
        # finite K exists at any scale.  An absolute floor on the kernel-mass
        # threshold once reported this family feasible below scale 1e-3.
        fam = noisy_family(2, (1, 1, 1), 2, seed=5, noise=0.02)
        moved = GFrameFamily(tuple(
            GFrame(2, tuple(scale * b for b in fr.blocks)) for fr in fam.frames
        ))
        cert = minimal_k(moved)
        assert not cert.feasible
        assert cert.k is None


def _max_ratio_reference(d_mat, m_mat, tol):
    """One (D, M) constraint at a time, slicing the kernel of M away."""
    d_sym = (d_mat + d_mat.conj().T) / 2.0
    m_sym = (m_mat + m_mat.conj().T) / 2.0
    w, v = np.linalg.eigh(m_sym)
    w = np.clip(w, 0.0, None)
    w_max = float(w[-1]) if w.size else 0.0
    keep = w > tol.rank_rtol * w_max * len(w)
    if not keep.all():
        v_ker = v[:, ~keep]
        kernel_mass = float(
            np.linalg.eigvalsh(v_ker.conj().T @ d_sym @ v_ker)[-1]
        )
        d_scale = max(float(np.linalg.eigvalsh(d_sym)[-1]), 0.0)
        if kernel_mass > tol.eq_atol * d_scale:
            return None
    if not keep.any():
        return 0.0
    basis = v[:, keep] / np.sqrt(w[keep])
    reduced = basis.conj().T @ d_sym @ basis
    top = float(np.linalg.eigvalsh((reduced + reduced.conj().T) / 2.0)[-1])
    return max(top, 0.0)


def _minimal_k_reference(fam, tol=DEFAULT_TOL):
    """The subset sweep as a plain loop: one subset, pair and member at a time."""
    big_n, m = fam.n_indices, fam.m
    n = fam.ambient_dim
    grams = np.empty((big_n, m, n, n), dtype=np.complex128)
    for j, fr in enumerate(fam.frames):
        for i, b in enumerate(fr.blocks):
            grams[i, j] = b.conj().T @ b
    pairs = [(j, l) for j in range(m) for l in range(j + 1, m)]
    diff_grams = {}
    for j, l in pairs:
        for i in range(big_n):
            d = fam.frames[j].blocks[i] - fam.frames[l].blocks[i]
            diff_grams[(i, j, l)] = d.conj().T @ d

    k_best = 0.0
    worst = None
    for code in range(1, 2**big_n):
        subset = [i for i in range(big_n) if code >> i & 1]
        for j, l in pairs:
            d_sum = np.zeros((n, n), dtype=np.complex128)
            for i in subset:
                d_sum += diff_grams[(i, j, l)]
            for member in (j, l):
                m_sum = grams[subset, member].sum(axis=0)
                ratio = _max_ratio_reference(d_sum, m_sum, tol)
                if ratio is None:
                    return _k_certificate(fam, False, None, subset, (j, l))
                if ratio > k_best:
                    k_best = ratio
                    worst = (subset, (j, l))
    subset, pair = worst if worst is not None else ([], None)
    return _k_certificate(fam, True, k_best, subset, pair)


def _scaled_blocks(base: GFrame, scales) -> GFrameFamily:
    """Base frame paired with the copy that scales block ``i`` by ``scales[i]``."""
    return GFrameFamily((base, GFrame(base.ambient_dim, tuple(
        c * b for c, b in zip(scales, base.blocks)
    ))))


def _thin_k(scales) -> float:
    """Exact K of ``_scaled_blocks`` for rank-one blocks: ``max_i |1-c_i|^2 / min(1, c_i)^2``."""
    return max(max((1 - c) ** 2, (1 - c) ** 2 / c**2) for c in scales)


class TestMinimalKMatchesReferenceLoop:
    """The singleton solve against the plain loop over all 2**N subsets.

    On full-rank blocks equality is exact: same k to the last bit, same
    witness and verdict.  On rank-deficient feasible families the loop's
    ill-conditioned multi-index sums can round above the exact K, so there
    the oracle is a closed form (and tests/test_minimal_k_mpmath.py).
    """

    @pytest.mark.parametrize("big_n", [9, 10, 11])
    def test_several_chunks(self, big_n):
        fam = noisy_family(3, (3,) * big_n, 2, seed=big_n, noise=1e-2)
        cert = minimal_k(fam)
        assert cert.feasible
        assert cert == _minimal_k_reference(fam)

    def test_first_infeasible_subset_in_a_later_chunk(self):
        # Only block 10 differs, and singleton blocks are rank one, so the
        # first infeasible subset is {10}: code 512, after 511 feasible ones.
        fam = noisy_at(random_frame(3, (1,) * 10, seed=4), 9, seed=4, noise=0.05)
        cert = minimal_k(fam)
        assert not cert.feasible
        assert cert.worst_subset == (10,)
        assert cert == _minimal_k_reference(fam)

    def test_three_members(self):
        fam = noisy_family(3, (3,) * 9, 3, seed=2, noise=1e-2)
        cert = minimal_k(fam)
        assert cert.feasible
        assert cert == _minimal_k_reference(fam)

    def test_thin_blocks_take_the_kernel_branch(self):
        # Rank-one block Grams: every subset smaller than n has a kernel.
        # Coordinate blocks keep every subset sum diagonal, so there the
        # loop is exact and stays an == oracle.
        f = onb_frame(9)
        scaled = GFrameFamily((f, apply_operator(f, 1.2 * np.eye(9))))
        assert minimal_k(scaled) == _minimal_k_reference(scaled)
        scales = 1.0 + np.random.default_rng(0).uniform(-0.3, 0.3, 9)
        diagonal = _scaled_blocks(f, scales)
        cert = minimal_k(diagonal)
        assert cert == _minimal_k_reference(diagonal)
        assert cert.k == pytest.approx(_thin_k(scales), rel=1e-13)
        # Generic rank-one blocks: D_i = (1 - c_i)^2 M_i, so K is known in
        # closed form.  The loop rounds above it (2.5e-14 relative here), so
        # it is no oracle for this family.
        rng = np.random.default_rng(7)
        scales = 1.0 + rng.uniform(-0.1, 0.1, 9)
        cert = minimal_k(_scaled_blocks(random_frame(3, (1,) * 9, seed=7), scales))
        assert cert.feasible
        assert cert.k == pytest.approx(_thin_k(scales), rel=1e-13)
        worst = np.argmax(np.abs(1 - scales) / np.minimum(1, scales))
        assert cert.worst_subset == (int(worst) + 1,)

    def test_identical_members(self):
        fam = noisy_family(3, (1,) * 9, 2, seed=1, noise=0.0)
        cert = minimal_k(fam)
        assert cert.k == 0.0 and cert.worst_subset is None
        assert cert == _minimal_k_reference(fam)


def _unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(2, 3),
    modulus=st.floats(0.05, 20.0),
    sign=st.sampled_from([1.0, -1.0, 1j, -1j]),
)
def test_k_invariant_under_common_scaling_and_unitary(seed, m, modulus, sign):
    # D and M change by the same congruence (|c|^2 U* . U), which leaves
    # every generalized eigenvalue, hence K, where it was.
    fam = noisy_family(2, (2, 2, 2, 2), m, seed=seed, noise=0.05)
    c = modulus * sign
    u = _unitary(2, seed)
    moved = GFrameFamily(tuple(
        GFrame(2, tuple(c * b @ u for b in fr.blocks)) for fr in fam.frames
    ))
    base, cert = minimal_k(fam), minimal_k(moved)
    assert base.feasible and cert.feasible
    assert cert.k == pytest.approx(base.k, rel=1e-9)


class TestPerturbationCertificate:
    def test_identical_members_trivial(self):
        fam = scaled_pair(1.0)
        cert = perturbation_certificate(fam, base=1, lambdas=(0.0,))
        assert cert.valid
        assert cert.predicted_lower == pytest.approx(1.0, abs=1e-12)
        rep = certify_woven(fam)
        assert rep.universal_lower >= cert.predicted_lower - 1e-8

    def test_worked_scaling_example(self):
        fam = scaled_pair(1.1)
        gap = op_norm(synthesis_matrix(fam.frames[0]) - synthesis_matrix(fam.frames[1]))
        cert = perturbation_certificate(fam, base=1, lambdas=(gap,))
        assert cert.valid
        assert cert.predicted_lower == pytest.approx(0.79, abs=1e-12)
        assert cert.predicted_upper == pytest.approx(2.21, abs=1e-12)
        rep = certify_woven(fam)
        assert rep.universal_lower == pytest.approx(1.0, abs=1e-12)
        assert rep.universal_lower >= cert.predicted_lower - 1e-8

    def test_cli_style_round_lambda_accepted(self):
        # 0.1 vs a synthesis gap of 0.1 + O(eps): the fp-noise slack keeps
        # the nominal scalar usable.
        cert = perturbation_certificate(scaled_pair(1.1), base=1, lambdas=(0.1,))
        assert cert.valid

    def test_large_scaling_fails_hypothesis(self):
        cert = perturbation_certificate(scaled_pair(1.6), base=1, lambdas=(0.6,))
        assert cert.status == "hypothesis-fails"
        assert cert.predicted_lower < 0

    def test_lambda_below_gap_rejected(self):
        cert = perturbation_certificate(scaled_pair(1.1), base=1, lambdas=(0.05,))
        assert cert.status == "lambda-below-gap"
        assert not cert.valid

    def test_exact_mode_rejects_eta_mu(self):
        with pytest.raises(ValueError, match="lambda-only"):
            perturbation_certificate(
                scaled_pair(1.1), base=1, lambdas=(0.1,), etas=(0.1,)
            )

    @pytest.mark.parametrize("chained", [False, True])
    def test_exact_mode_rejects_eta_mu_when_hypothesis_fails(self, chained):
        # The predicted bound is negative at 1.6: the check must not depend on it.
        fam = scaled_pair(1.6)
        with pytest.raises(ValueError, match="lambda-only"):
            if chained:
                chained_certificate(fam, (0.6,), mus=(0.1,))
            else:
                perturbation_certificate(fam, 1, (0.6,), etas=(0.1,))

    # float() would read True as 1.0 and '0.5' as 0.5.
    @pytest.mark.parametrize(
        "bad",
        [np.nan, np.inf, -np.inf, -0.1, True, np.bool_(False), "0.5", 0.5 + 0j,
         pytest.param(10**400, id="1e400")],
    )
    @pytest.mark.parametrize("name", ["lambdas", "etas", "mus"])
    @pytest.mark.parametrize("chained", [False, True])
    def test_scalars_must_be_finite_and_nonnegative(self, bad, name, chained):
        scalars = {"lambdas": (0.1,), name: (bad,)}
        mode = "exact-lambda-only" if name == "lambdas" else "sampled-falsification"
        certify = chained_certificate if chained else partial(perturbation_certificate, base=1)
        with pytest.raises(ValueError, match=f"{name} entries must be finite and nonnegative"):
            certify(scaled_pair(1.1), **scalars, mode=mode)

    @pytest.mark.parametrize("lambdas", [np.array([0.125]), [np.float32(0.125)], [np.int64(0)]])
    def test_numpy_scalars_accepted(self, lambdas):
        expected = perturbation_certificate(scaled_pair(1.1), 1, lambdas=[float(lambdas[0])])
        assert perturbation_certificate(scaled_pair(1.1), 1, lambdas=lambdas) == expected

    @pytest.mark.parametrize("trials", [0, -3])
    @pytest.mark.parametrize("mode", ["exact-lambda-only", "sampled-falsification"])
    @pytest.mark.parametrize("chained", [False, True])
    def test_trials_below_one_rejected_before_any_work(self, monkeypatch, trials, mode, chained):
        import gweave.perturb as perturb_mod

        def no_work(*args, **kwargs):
            raise AssertionError("member bounds computed")

        monkeypatch.setattr(perturb_mod, "frame_bounds", no_work)
        certify = chained_certificate if chained else partial(perturbation_certificate, base=1)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            certify(scaled_pair(1.1), lambdas=(0.05,), mode=mode, trials=trials)

    # int() would read True as 1; numpy would raise TypeError on 2.5 or 1.5.
    @pytest.mark.parametrize(
        "kw", [{"trials": True}, {"trials": 2.5}, {"seed": True}, {"seed": 1.5}]
    )
    @pytest.mark.parametrize("chained", [False, True])
    def test_trials_and_seed_must_be_integers(self, kw, chained):
        certify = chained_certificate if chained else partial(perturbation_certificate, base=1)
        with pytest.raises(ValueError, match="trials and seed must be integers"):
            certify(scaled_pair(1.1), lambdas=(0.05,), mode="sampled-falsification", **kw)

    # numpy's generators reject a negative seed with a message that names
    # no field; the exact mode takes none, but is given one.
    @pytest.mark.parametrize("mode", ["exact-lambda-only", "sampled-falsification"])
    @pytest.mark.parametrize("chained", [False, True])
    def test_negative_seed_rejected(self, mode, chained):
        certify = chained_certificate if chained else partial(perturbation_certificate, base=1)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            certify(scaled_pair(1.1), lambdas=(0.05,), mode=mode, seed=-1)

    def test_numpy_integer_trials_and_seed_accepted(self):
        kw = dict(lambdas=(0.05,), mode="sampled-falsification")
        expected = perturbation_certificate(scaled_pair(1.1), 1, trials=20, seed=3, **kw)
        got = perturbation_certificate(scaled_pair(1.1), 1, trials=np.int32(20), seed=np.int64(3), **kw)
        assert report_dict(got) == report_dict(expected)

    # True passed as 1, 2.0 failed as a tuple index and 1.5 as a scalar count.
    def test_base_index_validated(self):
        for base in (3, True, 2.0, 1.5):
            with pytest.raises(ValueError, match="base index"):
                perturbation_certificate(scaled_pair(1.1), base=base, lambdas=(0.1,))

    def test_predicted_lower_recomputable(self):
        fam = noisy_family(3, (1, 1, 1), 3, seed=2, noise=0.01)
        gaps = tuple(
            op_norm(synthesis_matrix(fam.frames[0]) - synthesis_matrix(fam.frames[j]))
            for j in (1, 2)
        )
        cert = perturbation_certificate(fam, base=1, lambdas=gaps)
        a = cert.member_lowers[0]
        for lam, b_j in zip(cert.lambdas, (cert.member_uppers[1], cert.member_uppers[2])):
            b_n = cert.member_uppers[0]
            a -= lam * (np.sqrt(b_n) + np.sqrt(b_j))
        assert cert.predicted_lower == pytest.approx(a, abs=1e-12)

    def test_sampled_not_falsified_with_honest_scalars(self):
        fam = scaled_pair(1.1)
        cert = perturbation_certificate(
            fam, base=1, lambdas=(0.11,), mode="sampled-falsification", trials=300, seed=7
        )
        assert cert.status == "not-falsified"
        assert cert.falsification_witness is None

    def test_sampled_falsifies_too_small_lambda(self):
        fam = scaled_pair(1.1)
        cert = perturbation_certificate(
            fam, base=1, lambdas=(0.05,), mode="sampled-falsification", trials=300, seed=7
        )
        assert cert.status == "falsified"
        subset, segments = cert.falsification_witness
        assert len(subset) == len(segments)
        # replay the witness against the claimed inequality
        u1 = np.zeros(2, dtype=complex)
        u2 = np.zeros(2, dtype=complex)
        total = 0.0
        for i, g in zip(subset, segments):
            u1 += fam.frames[0].blocks[i - 1].conj().T @ g
            u2 += fam.frames[1].blocks[i - 1].conj().T @ g
            total += float(np.vdot(g, g).real)
        assert np.linalg.norm(u1 - u2) > 0.05 * np.sqrt(total)

    def test_sampled_skips_when_hypothesis_fails(self):
        cert = perturbation_certificate(
            scaled_pair(1.6), base=1, lambdas=(0.6,),
            mode="sampled-falsification", trials=50, seed=3,
        )
        assert cert.status == "hypothesis-fails"

    def test_sampled_deterministic(self):
        fam = scaled_pair(1.1)
        kwargs = dict(mode="sampled-falsification", trials=50, seed=11)
        a = perturbation_certificate(fam, 1, (0.05,), **kwargs)
        b = perturbation_certificate(fam, 1, (0.05,), **kwargs)
        assert a.status == b.status == "falsified"
        assert a.falsification_witness[0] == b.falsification_witness[0]

    @pytest.mark.parametrize("scale, lam", [(1.1, 0.05), (1.6, 0.6)])
    @pytest.mark.parametrize("chained", [False, True])
    def test_unknown_mode_rejected_whatever_the_predicted_bound(self, scale, lam, chained):
        # The predicted bound is positive at 1.1 and negative at 1.6.
        fam = scaled_pair(scale)
        with pytest.raises(ValueError, match="mode must be"):
            if chained:
                chained_certificate(fam, (lam,), mode="bogus")
            else:
                perturbation_certificate(fam, 1, (lam,), mode="bogus")

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("mode", ["exact-lambda-only", "sampled-falsification"])
    def test_member_bounds_computed_once_per_member(self, monkeypatch, m, mode):
        import gweave.perturb as perturb_mod

        fam = noisy_family(2, (1, 1, 1), m, seed=4, noise=0.01)
        calls = []

        def counting(fr, *args, **kwargs):
            calls.append(fr)
            return frame_bounds(fr, *args, **kwargs)

        monkeypatch.setattr(perturb_mod, "frame_bounds", counting)
        perturbation_certificate(fam, 1, (0.1,) * (m - 1), mode=mode, trials=5)
        assert len(calls) == m
        calls.clear()
        chained_certificate(fam, (0.1,) * (m - 1), mode=mode, trials=5)
        assert len(calls) == m

    def test_witness_fields_are_named(self):
        cert = perturbation_certificate(
            scaled_pair(1.1), 1, (0.05,), mode="sampled-falsification", trials=300, seed=7
        )
        witness = cert.falsification_witness
        assert witness.subset == witness[0] and witness.segments is witness[1]
        assert report_dict(witness) == {
            "subset": list(witness.subset),
            "segments": [[[z.real, z.imag] for z in seg] for seg in witness.segments],
        }

    def test_projection_contractivity_over_all_subsets(self):
        fam = noisy_family(3, (1, 2, 1), 2, seed=8, noise=0.05)
        t1 = synthesis_matrix(fam.frames[0])
        t2 = synthesis_matrix(fam.frames[1])
        full = op_norm(t1 - t2)
        dims = fam.block_dims
        col_of = np.repeat(np.arange(len(dims)), dims)
        indices = range(len(dims))
        for r in range(1, len(dims) + 1):
            for subset in combinations(indices, r):
                mask = np.isin(col_of, subset)
                assert op_norm((t1 - t2)[:, mask]) <= full + 1e-12


def _sampled_reference(fam, pairs, lambdas, etas, mus, trials, seed, tol, base_index):
    """The sampled closeness check as a plain loop: each ``T_j g`` is summed
    block by block from the drawn segments."""
    bounds = [frame_bounds(fr) for fr in fam.frames]
    lowers, uppers = tuple(b.lower for b in bounds), tuple(b.upper for b in bounds)
    predicted = lowers[pairs[0][0]]
    for k, (a, b) in enumerate(pairs):
        predicted -= (
            lambdas[k] + etas[k] * np.sqrt(uppers[a]) + mus[k] * np.sqrt(uppers[b])
        ) * (np.sqrt(uppers[a]) + np.sqrt(uppers[b]))
    status, witness = "hypothesis-fails", None
    if predicted > 0.0:
        status = "not-falsified"
        rng = np.random.Generator(np.random.Philox(seed))
        big_n, dims = fam.n_indices, fam.block_dims
        for _ in range(trials):
            mask = rng.integers(0, 2, size=big_n).astype(bool)
            while not mask.any():
                mask = rng.integers(0, 2, size=big_n).astype(bool)
            segs = {}
            for i in np.flatnonzero(mask):
                d = dims[i]
                segs[int(i)] = (
                    rng.standard_normal(d) + 1j * rng.standard_normal(d)
                ) / np.sqrt(2.0)
            coeff_norm = np.sqrt(sum(float(np.vdot(g, g).real) for g in segs.values()))
            for k, (a, b) in enumerate(pairs):
                u_a = np.zeros(fam.ambient_dim, dtype=np.complex128)
                u_b = np.zeros(fam.ambient_dim, dtype=np.complex128)
                for i, g in segs.items():
                    u_a += fam.frames[a].blocks[i].conj().T @ g
                    u_b += fam.frames[b].blocks[i].conj().T @ g
                lhs = float(np.linalg.norm(u_a - u_b))
                rhs = (
                    etas[k] * float(np.linalg.norm(u_a))
                    + mus[k] * float(np.linalg.norm(u_b))
                    + lambdas[k] * coeff_norm
                )
                if lhs > rhs + tol.eq_atol:
                    witness = FalsificationWitness(
                        tuple(i + 1 for i in segs), tuple(segs.values())
                    )
                    status = "falsified"
                    break
            if status == "falsified":
                break
    return PerturbationCertificate(
        base_index=base_index, chained=base_index is None,
        lambdas=lambdas, etas=etas, mus=mus,
        member_lowers=lowers, member_uppers=uppers,
        predicted_lower=float(predicted), predicted_upper=float(sum(uppers)),
        verification_mode="sampled-falsification", status=status,
        synthesis_gaps=None, falsification_witness=witness,
    )


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 2, 1, 1), (2, 2)])
@pytest.mark.parametrize("n", [2, 3])
def test_sampled_check_matches_the_block_loop(n, dims, m):
    # Same draws in the same order, so the same verdict and witness; the
    # grid reaches both outcomes (and hypothesis-fails) for every shape.
    statuses = set()
    for seed, noise, lam, eta in product(range(2), (0.02, 0.3), (0.05, 0.2, 0.6), (0.0, 0.05)):
        fam = noisy_family(n, dims, m, seed=seed, noise=noise)
        lams, etas, mus = (lam,) * (m - 1), (eta,) * (m - 1), (0.01,) * (m - 1)
        kwargs = dict(mode="sampled-falsification", trials=60, seed=seed)
        cert = perturbation_certificate(fam, 1, lams, etas, mus, **kwargs)
        pairs = [(0, j) for j in range(1, m)]
        ref = _sampled_reference(fam, pairs, lams, etas, mus, 60, seed, DEFAULT_TOL, 1)
        assert report_dict(cert) == report_dict(ref)
        statuses.add(cert.status)
        cert = chained_certificate(fam, lams, etas, **kwargs)
        pairs = [(k, k + 1) for k in range(m - 1)]
        zeros = (0.0,) * (m - 1)
        ref = _sampled_reference(fam, pairs, lams, etas, zeros, 60, seed, DEFAULT_TOL, None)
        assert report_dict(cert) == report_dict(ref)
        statuses.add(cert.status)
    assert statuses == {"falsified", "not-falsified", "hypothesis-fails"}


class TestChainedCertificate:
    def test_matches_fixed_base_for_pairs(self):
        fam = scaled_pair(1.1)
        gap = op_norm(synthesis_matrix(fam.frames[0]) - synthesis_matrix(fam.frames[1]))
        a = perturbation_certificate(fam, base=1, lambdas=(gap,))
        b = chained_certificate(fam, lambdas=(gap,))
        assert a.predicted_lower == b.predicted_lower
        assert a.status == b.status == "valid"

    def test_identical_triple(self):
        f = random_frame(2, (1, 1, 1), seed=3)
        fam = GFrameFamily((f, f, f))
        cert = chained_certificate(fam, lambdas=(0.0, 0.0))
        assert cert.valid
        assert cert.predicted_lower == pytest.approx(frame_bounds(f).lower, abs=1e-12)

    def test_scaling_chain(self):
        f = onb_frame(2)
        fam = GFrameFamily(
            (f, apply_operator(f, 1.05 * np.eye(2)), apply_operator(f, 1.1 * np.eye(2)))
        )
        synths = [synthesis_matrix(fr) for fr in fam.frames]
        gaps = (op_norm(synths[0] - synths[1]), op_norm(synths[1] - synths[2]))
        cert = chained_certificate(fam, lambdas=gaps)
        assert cert.valid
        assert cert.chained and cert.base_index is None
        assert cert.predicted_lower == pytest.approx(0.79, abs=1e-10)
        rep = certify_woven(fam)
        assert rep.universal_lower >= cert.predicted_lower - 1e-8


class TestOperatorPerturbation:
    def test_identity_operators(self):
        f = random_frame(2, (1, 1), seed=4)
        rep = operator_perturbation(f, [np.eye(2), np.eye(2)])
        fb = frame_bounds(f)
        assert rep.hypothesis_ok
        assert rep.max_deviation == pytest.approx(0.0, abs=1e-12)
        assert rep.predicted_lower == pytest.approx(fb.lower, abs=1e-10)

    def test_contraction_tight_case(self):
        f = onb_frame(2)
        rep = operator_perturbation(f, 0.9 * np.eye(2))
        assert rep.hypothesis_ok
        assert rep.condition_value == pytest.approx(0.01, abs=1e-12)
        assert rep.predicted_lower == pytest.approx(0.81, abs=1e-12)
        woven = certify_woven(rep.family)
        assert woven.status == "woven"
        assert woven.universal_lower == pytest.approx(0.81, abs=1e-12)
        assert woven.universal_lower >= rep.predicted_lower - 1e-8
        # The plain difference A - B max||I - T||^2 = 0.99 is not a bound.
        assert woven.universal_lower < rep.base_lower - rep.base_upper * rep.condition_value

    def test_mixed_rotations_sound(self):
        f = generate(
            GenSpec(ambient_dim=2, block_dims=(1, 1, 1), kind="prescribed-spectrum",
                    seed=10, spectrum=(1.0, 2.0))
        )
        rng = np.random.default_rng(6)
        ops = [rotation(float(rng.uniform(-0.05, 0.05))) for _ in range(3)]
        rep = operator_perturbation(f, ops)
        assert rep.condition_threshold == pytest.approx(0.5, abs=1e-10)
        assert rep.hypothesis_ok
        woven = certify_woven(rep.family)
        assert woven.universal_lower >= rep.predicted_lower - 1e-8

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            operator_perturbation(onb_frame(2), np.diag([1.0, 0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="2 x 2"):
            operator_perturbation(onb_frame(2), np.eye(3))
        with pytest.raises(ValueError, match="one operator per index"):
            operator_perturbation(onb_frame(2), [np.eye(2)] * 3)

    @pytest.mark.parametrize(
        "ops, message",
        [
            ([np.eye(2), np.ones((2, 3))], "operator 2 must be 2 x 2, got (2, 3)"),
            (np.diag([1.0, 0.0]), "operator 1 is singular at the working tolerance"),
            ([np.eye(2), np.diag([0.0, 1.0])], "operator 2 is singular at the working tolerance"),
            # The count is checked before any shape or rank ...
            ([np.eye(3)] * 3, "expected one operator per index (2), got 3"),
            # ... and after every operator is coerced.
            ([np.eye(3)] * 2 + [[[np.inf]]], "matrix entries must be finite (no NaN/Inf)"),
        ],
        ids=["shape", "singular-broadcast", "singular-second", "count", "non-finite"],
    )
    def test_messages(self, ops, message):
        with pytest.raises(ValueError) as exc:
            operator_perturbation(onb_frame(2), ops)
        assert str(exc.value) == message


class TestScaledDualWeave:
    def test_parseval_self_dual(self):
        rep = scaled_dual_weave(onb_frame(2))
        assert rep.hypothesis_ok
        assert rep.scale == pytest.approx(1.0, abs=1e-12)
        assert rep.deviation_norm == pytest.approx(0.0, abs=1e-12)
        for a, b in zip(rep.scaled_dual.blocks, onb_frame(2).blocks):
            np.testing.assert_allclose(a, b, atol=1e-12)
        woven = certify_woven(rep.op_report.family)
        assert woven.status == "woven"
        assert woven.universal_lower == pytest.approx(1.0, abs=1e-10)

    def test_moderate_spectrum(self):
        f = GFrame(2, (np.array([[1.0, 0.0]]), np.array([[0.0, np.sqrt(1.5)]])))
        rep = scaled_dual_weave(f)
        assert rep.hypothesis_ok
        assert rep.scale == pytest.approx(1.2, abs=1e-12)
        assert rep.deviation_norm <= rep.deviation_bound + 1e-12
        assert rep.deviation_bound == pytest.approx(0.2, abs=1e-12)
        woven = certify_woven(rep.op_report.family)
        assert woven.status == "woven"
        assert woven.universal_lower >= rep.op_report.predicted_lower - 1e-8

    def test_spectral_containment(self):
        for seed in range(4):
            f = random_frame(3, (1, 1, 1, 1), seed=seed, lo=1.0, hi=1.8)
            rep = scaled_dual_weave(f)
            assert rep.hypothesis_ok
            s = np.zeros((3, 3), dtype=complex)
            for b in f.blocks:
                s += b.conj().T @ b
            w = np.linalg.eigvalsh(np.eye(3) - rep.scale * np.linalg.inv(s))
            assert np.all(np.abs(w) <= rep.deviation_bound + 1e-10)

    def test_wide_spectrum_reported_not_raised(self):
        f = GFrame(2, (np.array([[1.0, 0.0]]), np.array([[0.0, np.sqrt(2.5)]])))
        rep = scaled_dual_weave(f)
        assert not rep.hypothesis_ok
        assert rep.ratio == pytest.approx(2.5, abs=1e-12)
        assert rep.op_report is None

    def test_broadcast_operator_checked_once(self, monkeypatch):
        # One scaled inverse serves all 8 indices: one rank SVD and one
        # op_norm SVD, not one of each per index.
        f = random_frame(3, (1,) * 8, seed=1, lo=1.0, hi=1.5)
        calls = _counting_svd(monkeypatch)
        rep = scaled_dual_weave(f)
        assert rep.hypothesis_ok
        assert len(calls) == 2

    def test_frame_bounds_computed_once(self, monkeypatch):
        f = random_frame(3, (1,) * 8, seed=1, lo=1.0, hi=1.5)
        expected = report_dict(scaled_dual_weave(f))
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return frame_bounds(*args, **kwargs)

        monkeypatch.setattr(perturb, "frame_bounds", counting)
        assert report_dict(scaled_dual_weave(f)) == expected
        assert len(calls) == 1

    def test_broadcast_matches_per_index_list(self):
        f = random_frame(3, (1, 2, 1, 1), seed=2, lo=1.0, hi=1.5)
        rng = np.random.default_rng(2)
        t = np.eye(3) + 0.05 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        one = operator_perturbation(f, t)
        listed = operator_perturbation(f, [t] * 4)
        assert report_dict(one) == report_dict(listed)
        for a, b in zip(one.family.frames[1].blocks, listed.family.frames[1].blocks):
            assert np.array_equal(a, b)

    def test_degenerate_reported_not_raised(self):
        f = GFrame(2, (np.array([[1.0, 0.0]]),))
        rep = scaled_dual_weave(f)
        assert not rep.hypothesis_ok
        assert rep.ratio is None

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_an_inline_inverse_bit_for_bit(self, seed):
        # The inverse frame operator, spelled out from its eigenpairs.
        f = random_frame(3, (1, 2, 1, 1), seed=seed, lo=1.0, hi=1.8)
        rep = scaled_dual_weave(f)
        s = frame_operator(f)
        w, v = np.linalg.eigh((s + s.conj().T) / 2.0)
        t = rep.scale * ((v / w) @ v.conj().T)
        assert rep.scale == 2.0 * rep.base_lower * rep.base_upper / (rep.base_lower + rep.base_upper)
        assert rep.deviation_norm == op_norm(np.eye(3) - t)
        assert report_dict(rep.op_report) == report_dict(operator_perturbation(f, [t] * f.n_blocks))
        for a, b in zip(rep.scaled_dual.blocks, f.blocks):
            assert np.array_equal(a, b @ t)


class TestSoundnessSweep:
    def test_valid_certificates_never_overstate(self):
        for seed in range(6):
            fam = noisy_family(2, (1, 1, 1, 1), 2, seed=seed, noise=0.02)
            exhaustive = certify_woven(fam).universal_lower

            k_cert = minimal_k(fam)
            if k_cert.feasible:
                assert exhaustive >= k_cert.predicted_lower - 1e-8

            gap = op_norm(
                synthesis_matrix(fam.frames[0]) - synthesis_matrix(fam.frames[1])
            )
            pw = perturbation_certificate(fam, base=1, lambdas=(gap,))
            if pw.valid:
                assert exhaustive >= pw.predicted_lower - 1e-8

            ch = chained_certificate(fam, lambdas=(gap,))
            if ch.valid:
                assert exhaustive >= ch.predicted_lower - 1e-8
