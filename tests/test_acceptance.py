"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.  Desk
scale throughout: n <= 4, N <= 6, m <= 3.

Criterion 05 checks the reciprocal interval ``[1/B, 1/A]`` on the
canonical dual of every weaving, where it is a theorem, not on the family
of per-member duals, where it is false
(``test_weaving.py::TestDualWeaving::test_weaving_dual_bound_counterexample``).
Criterion 10 checks the operator-perturbation constant
``(sqrt(A) - sqrt(B) max||I - T||)^2``; the plain difference
``A - B max||I - T||^2`` is refuted in
``test_perturb.py::TestOperatorPerturbation::test_contraction_tight_case``.
"""

import json
from itertools import permutations, product

import numpy as np
import pytest

from gweave import (
    GFrame,
    GFrameFamily,
    GenSpec,
    Partition,
    apply_operator,
    assemble_weaving,
    bessel_sum_bound,
    canonical_dual,
    certify_woven,
    chained_certificate,
    equivalence_constants,
    frame_bounds,
    frame_op_norm_check,
    generate,
    induced_frame,
    minimal_k,
    op_norm,
    operator_perturbation,
    permutation_weave,
    perturbation_certificate,
    removal_bound,
    riesz_bounds,
    scaled_dual_weave,
    scaled_family,
    span_criterion,
    synthesis_matrix,
)
from gweave.cli import main
from gweave.fileio import save_family, save_frame

from _support import (
    independent_family,
    noisy_family,
    onb_frame,
    random_frame,
    riesz_pair,
    rotation,
    swapped_onb_family,
)


def report(cid: int, ok: bool, detail: str = ""):
    print(f"[ACCEPTANCE] criterion {cid:02d} {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {cid}: {detail}"


def family_pool():
    """Mixed family pool at desk scale (all with m**N <= 4096)."""
    pool = []
    shapes = [
        (2, (1, 1, 1), 2),
        (2, (1, 1, 1, 1), 2),
        (3, (1, 1, 2), 2),
        (3, (1, 1, 1, 1), 2),
        (4, (2, 2, 1), 2),
        (2, (1, 1, 1), 3),
        (3, (1, 2, 1), 3),
        (4, (1, 1, 1, 1, 1), 2),
    ]
    seed = 0
    for n, dims, m in shapes:
        for _ in range(3):
            pool.append(noisy_family(n, dims, m, seed=seed, noise=0.02))
            pool.append(independent_family(n, dims, m, seed=seed + 1))
            seed += 2
    return pool


def woven_pool():
    return [fam for fam in family_pool() if certify_woven(fam).status == "woven"]


def random_invertible(n, rng):
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return t + 3.0 * np.eye(n)


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_01_bessel_sum_dominates_every_weaving():
    count = 0
    worst = np.inf
    seed = 100
    shapes = [(2, (1, 1, 1), 2), (3, (1, 1, 1), 2), (2, (1, 1), 3),
              (3, (1, 2, 1), 2), (4, (2, 2), 2), (2, (1, 1, 1, 1), 3)]
    while count < 200:
        n, dims, m = shapes[count % len(shapes)]
        fam = (
            noisy_family(n, dims, m, seed=seed, noise=0.05)
            if count % 2
            else independent_family(n, dims, m, seed=seed)
        )
        seed += 1
        rep = certify_woven(fam)
        margin = bessel_sum_bound(fam) + 1e-9 - rep.universal_upper
        worst = min(worst, margin)
        if margin < 0:
            report(1, False, f"family #{count} exceeds the member bound sum by {-margin:.3e}")
        count += 1
    report(1, True, f"200 families, worst margin {worst:.3e}")


def test_criterion_02_certification_agrees_with_span_test():
    pool = family_pool()
    pool.append(swapped_onb_family())
    base = onb_frame(3)
    pool.append(GFrameFamily((base, GFrame(3, base.blocks[1:] + base.blocks[:1]))))
    thin = GFrame(2, (np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])))
    pool.append(GFrameFamily((onb_frame(2), thin), allow_degenerate=True))
    disagreements = 0
    for fam in pool:
        assert fam.m ** fam.n_indices <= 4096
        woven = certify_woven(fam).status == "woven"
        holds, witness = span_criterion(fam)
        if woven != holds:
            disagreements += 1
        if not holds:
            assert witness is not None
    report(2, disagreements == 0, f"{len(pool)} families, {disagreements} disagreements")


def test_criterion_03_scaling_brackets_universal_bounds():
    rng = np.random.default_rng(77)
    checked = 0
    for fam in woven_pool()[:25]:
        base = certify_woven(fam)
        moduli = rng.uniform(0.5, 1.5, (fam.m, fam.n_indices))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (fam.m, fam.n_indices)))
        scaled, (plo, phi) = scaled_family(
            fam, moduli * phases,
            universal=(base.universal_lower, base.universal_upper),
        )
        rep = certify_woven(scaled)
        ok = rep.universal_lower >= plo - 1e-9 and rep.universal_upper <= phi + 1e-9
        if not ok:
            report(3, False, f"bounds ({rep.universal_lower}, {rep.universal_upper}) "
                             f"outside [{plo}, {phi}]")
        checked += 1
    report(3, True, f"{checked} woven families bracketed")


def test_criterion_04_invertible_transport_brackets_bounds():
    rng = np.random.default_rng(13)
    checked = 0
    for fam in woven_pool()[:25]:
        base = certify_woven(fam)
        n = fam.ambient_dim
        t = random_invertible(n, rng)
        moved = GFrameFamily(tuple(apply_operator(fr, t) for fr in fam.frames))
        rep = certify_woven(moved)
        lo = base.universal_lower / op_norm(np.linalg.inv(t)) ** 2
        hi = base.universal_upper * op_norm(t) ** 2
        if not (rep.universal_lower >= lo - 1e-8 and rep.universal_upper <= hi + 1e-8):
            report(4, False, f"transported bounds escape [{lo}, {hi}]")
        u = random_unitary(n, rng)
        rotated = GFrameFamily(tuple(apply_operator(fr, u) for fr in fam.frames))
        urep = certify_woven(rotated)
        if not (
            abs(urep.universal_lower - base.universal_lower) <= 1e-9
            and abs(urep.universal_upper - base.universal_upper) <= 1e-9
        ):
            report(4, False, "unitary transport changed the universal bounds")
        checked += 1
    report(4, True, f"{checked} families transported")


def _rel_close(x, y, rtol):
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def test_criterion_05_canonical_dual_family_bounds():
    # The canonical dual of a weaving sigma has frame operator S_sigma^-1,
    # and A <= S_sigma <= B for the universal bounds (A, B), so its bounds
    # lie in [1/B, 1/A]; the extremes are attained by the weavings that
    # attain B and A.  The family of per-member duals does NOT obey this
    # interval (test_weaving_dual_bound_counterexample pins the exact
    # refutation); it does for identical members (f, f), where the dual
    # family's bounds are exactly the reciprocals.
    violations = []
    pool = woven_pool()
    lam = GFrame(1, (np.array([[1.0]]), np.array([[2.0]])))
    gam = GFrame(1, (np.array([[2.0]]), np.array([[1.0]])))
    pool.append(GFrameFamily((lam, gam)))
    weavings = 0
    worst = 0.0
    for idx, fam in enumerate(pool):
        base = certify_woven(fam)
        lo, hi = 1.0 / base.universal_upper, 1.0 / base.universal_lower
        dual_lows, dual_ups = [], []
        for labels in product(range(1, fam.m + 1), repeat=fam.n_indices):
            fb = frame_bounds(canonical_dual(assemble_weaving(fam, Partition(labels))))
            dual_lows.append(fb.lower)
            dual_ups.append(fb.upper)
            if fb.lower < lo * (1 - 1e-9) or fb.upper > hi * (1 + 1e-9):
                violations.append(
                    f"family #{idx} weaving {labels}: dual bounds ({fb.lower:.6f}, "
                    f"{fb.upper:.6f}) outside [{lo:.6f}, {hi:.6f}]"
                )
        weavings += len(dual_lows)
        worst = max(worst, abs(min(dual_lows) - lo) / lo, abs(max(dual_ups) - hi) / hi)
        if not (_rel_close(min(dual_lows), lo, 1e-9) and _rel_close(max(dual_ups), hi, 1e-9)):
            violations.append(
                f"family #{idx}: dual extremes ({min(dual_lows):.6f}, {max(dual_ups):.6f}) "
                f"do not attain [{lo:.6f}, {hi:.6f}]"
            )
        for fr in fam.frames:
            fb = frame_bounds(fr)
            same = certify_woven(GFrameFamily((canonical_dual(fr), canonical_dual(fr))))
            if not (
                _rel_close(same.universal_lower, 1.0 / fb.upper, 1e-9)
                and _rel_close(same.universal_upper, 1.0 / fb.lower, 1e-9)
            ):
                violations.append(f"family #{idx}: identical-member duals miss [1/B, 1/A]")
    report(
        5,
        not violations,
        f"{len(pool)} families, {weavings} weavings, {len(violations)} violations, "
        f"extremes attained to {worst:.1e} relative"
        + (f"; first: {violations[0]}" if violations else ""),
    )


def _extended_pair(seed):
    """Woven pair whose last index carries little energy, so dropping it
    keeps the removal hypothesis comfortably satisfied."""
    fam = noisy_family(2, (1, 1, 1), 2, seed=seed, noise=0.02)
    members = []
    for fr in fam.frames:
        extra = 0.2 * fr.blocks[0]
        members.append(GFrame(fr.ambient_dim, fr.blocks + (extra,)))
    return GFrameFamily(tuple(members))


def test_criterion_06_removal_keeps_a_woven_margin():
    checked = 0
    pool = [fam for fam in woven_pool() if fam.m == 2 and fam.n_indices >= 3]
    pool.extend(_extended_pair(seed) for seed in range(5))
    for fam in pool:
        for drop in [()] + [(i,) for i in range(1, fam.n_indices + 1)]:
            rem = removal_bound(fam, drop)
            if not rem.hypothesis_ok:
                continue
            rep = certify_woven(rem.restricted)
            if rep.universal_lower < rem.predicted_lower - 1e-9:
                report(6, False,
                       f"restricted lower {rep.universal_lower} < {rem.predicted_lower}")
            if drop:
                for fr in rem.restricted.frames:
                    if not frame_bounds(fr).is_frame:
                        report(6, False, "restricted member lost the frame property")
            checked += 1
    report(6, checked >= 25, f"{checked} removal instances verified")


def test_criterion_07_restricted_frame_operator_norms():
    rng = np.random.default_rng(5)
    worst = -np.inf
    for fam in woven_pool()[:5]:
        for _ in range(20):
            p = Partition(tuple(int(x) for x in rng.integers(1, fam.m + 1, fam.n_indices)))
            worst = max(worst, frame_op_norm_check(fam, p))
    report(7, worst <= 1e-9, f"max violation {worst:.3e}")


def test_criterion_08_k_condition_lower_bound():
    rng = np.random.default_rng(31)
    checked = 0
    instances = []
    for seed in range(10):
        instances.append(noisy_family(2, (2, 2), 2, seed=seed, noise=0.01))
        f = random_frame(2, (1, 1, 1), seed=seed + 50)
        scales = 1.0 + rng.uniform(-0.15, 0.15, 3)
        gam = GFrame(2, tuple(c * b for c, b in zip(scales, f.blocks)))
        instances.append(GFrameFamily((f, gam)))
    for fam in instances:
        cert = minimal_k(fam)
        if not cert.feasible:
            continue
        rep = certify_woven(fam)
        if rep.universal_lower < cert.predicted_lower - 1e-8:
            report(8, False, f"lower {rep.universal_lower} < predicted {cert.predicted_lower}")
        checked += 1
    report(8, checked >= 10, f"{checked} feasible instances sound")


def test_criterion_09_synthesis_closeness_certificates():
    # Worked example: Parseval pair scaled by 1.1.
    f = onb_frame(2)
    fam = GFrameFamily((f, apply_operator(f, 1.1 * np.eye(2))))
    cert = perturbation_certificate(fam, base=1, lambdas=(0.1,))
    rep = certify_woven(fam)
    if not (
        cert.valid
        and abs(cert.predicted_lower - 0.79) < 1e-9
        and abs(rep.universal_lower - 1.0) < 1e-12
    ):
        report(9, False, f"worked example: predicted {cert.predicted_lower}, "
                         f"lower {rep.universal_lower}")
    checked = 0
    for seed in range(8):
        fam2 = noisy_family(2, (1, 1, 1), 2, seed=seed, noise=0.01)
        gap = op_norm(synthesis_matrix(fam2.frames[0]) - synthesis_matrix(fam2.frames[1]))
        pw = perturbation_certificate(fam2, base=1, lambdas=(gap,))
        if pw.valid:
            low = certify_woven(fam2).universal_lower
            if low < pw.predicted_lower - 1e-8:
                report(9, False, f"pw: lower {low} < predicted {pw.predicted_lower}")
            checked += 1
        fam3 = GFrameFamily((
            onb_frame(2),
            apply_operator(onb_frame(2), (1.0 + 0.02 * (seed + 1)) * np.eye(2)),
            apply_operator(onb_frame(2), (1.0 + 0.03 * (seed + 1)) * np.eye(2)),
        ))
        synths = [synthesis_matrix(fr) for fr in fam3.frames]
        gaps = (op_norm(synths[0] - synths[1]), op_norm(synths[1] - synths[2]))
        ch = chained_certificate(fam3, lambdas=gaps)
        if ch.valid:
            low = certify_woven(fam3).universal_lower
            if low < ch.predicted_lower - 1e-8:
                report(9, False, f"chain: lower {low} < predicted {ch.predicted_lower}")
            checked += 1
    report(9, checked >= 12, f"worked example + {checked} certificates sound")


def test_criterion_10_operator_perturbation_difference_bound():
    # The sound universal lower bound is (sqrt(A) - sqrt(B) max||I - T||)^2.
    # The additive difference A - B * max||I - T||^2 overshoots it and is
    # refuted by exhaustive enumeration (a Parseval pair contracted by 0.9
    # has exhaustive lower 0.81, not 0.99: test_contraction_tight_case).
    rng = np.random.default_rng(41)
    violations = []
    checked = 0
    worst = np.inf
    for seed in range(12):
        n = 2 + seed % 2
        f = random_frame(n, (1,) * n + (1,), seed=seed + 300, lo=1.0, hi=1.6)
        ops = []
        for _ in range(f.n_blocks):
            if n == 2:
                ops.append(rotation(float(rng.uniform(-0.08, 0.08))))
            else:
                ops.append((1.0 + float(rng.uniform(-0.08, 0.08))) * np.eye(n))
        rep = operator_perturbation(f, ops)
        if not rep.hypothesis_ok:
            continue
        checked += 1
        stated = (np.sqrt(rep.base_lower) - np.sqrt(rep.base_upper) * rep.max_deviation) ** 2
        if not _rel_close(rep.predicted_lower, stated, 1e-12):
            violations.append(
                f"instance {seed}: predicted {rep.predicted_lower:.6f} != closed form {stated:.6f}"
            )
        low = certify_woven(rep.family).universal_lower
        worst = min(worst, low - rep.predicted_lower)
        if low < rep.predicted_lower * (1 - 1e-9):
            violations.append(
                f"instance {seed}: lower {low:.6f} < predicted {rep.predicted_lower:.6f}"
            )
    report(
        10,
        checked >= 8 and not violations,
        f"{checked} instances, {len(violations)} violations, worst margin {worst:.4f}"
        + (f"; first: {violations[0]}" if violations else ""),
    )


def test_criterion_11_scaled_dual_weaving():
    woven_count = 0
    for seed in range(10):
        f = random_frame(3, (1, 1, 2), seed=seed + 500, lo=1.0, hi=1.9)
        fb = frame_bounds(f)
        assert fb.upper / fb.lower < 2.0
        rep = scaled_dual_weave(f)
        if not rep.hypothesis_ok:
            report(11, False, f"seed {seed}: hypothesis unexpectedly failed")
        woven = certify_woven(rep.op_report.family)
        if woven.status != "woven":
            report(11, False, f"seed {seed}: pair not certified woven")
        if rep.deviation_norm > rep.deviation_bound + 1e-10:
            report(11, False, f"seed {seed}: spectral deviation bound violated")
        woven_count += 1
    for seed in range(3):
        wide = random_frame(2, (1, 1, 1), seed=seed + 600, lo=1.0, hi=2.6)
        if frame_bounds(wide).upper / frame_bounds(wide).lower < 2.0:
            continue
        rep = scaled_dual_weave(wide)
        if rep.hypothesis_ok:
            report(11, False, "wide-spectrum frame should report hypothesis-fails")
    report(11, woven_count == 10, f"{woven_count} frames certified woven with their scaled duals")


def test_criterion_12_induced_frame_reduction():
    specs = [
        GenSpec(2, (1, 1, 1), "parseval", seed=1),
        GenSpec(3, (1, 2, 2), "parseval", seed=2),
        GenSpec(2, (1, 1), "prescribed-spectrum", seed=3, spectrum=(1.0, 4.0)),
        GenSpec(4, (2, 2, 1), "prescribed-spectrum", seed=4, spectrum=(1.0, 2.0, 3.0, 4.0)),
        GenSpec(3, (1, 1, 1), "riesz-basis", seed=5),
        GenSpec(4, (2, 2), "riesz-basis", seed=6),
        GenSpec(3, (2, 1), "g-orthonormal", seed=7),
        GenSpec(4, (1, 1, 2), "g-orthonormal", seed=8),
    ]
    frames = [generate(s) for s in specs]
    fam = generate(GenSpec(3, (1, 1, 1, 1), "perturbed", seed=9, noise_scale=0.02))
    frames.extend(fam.frames)
    checked = 0
    for f in frames:
        ind = induced_frame(f)
        fb, ib = frame_bounds(f), frame_bounds(ind)
        rb, rib = riesz_bounds(f), riesz_bounds(ind)
        if fb.classification != ib.classification:
            report(12, False, "frame classification changed under row splitting")
        if rb.is_basis != rib.is_basis or rb.complete != rib.complete:
            report(12, False, "Riesz classification changed under row splitting")
        if (
            abs(fb.lower - ib.lower) > 1e-10
            or abs(fb.upper - ib.upper) > 1e-10
            or abs(rb.lower - rib.lower) > 1e-10
            or abs(rb.upper - rib.upper) > 1e-10
        ):
            report(12, False, "bounds moved under row splitting")
        checked += 1
    report(12, checked == len(frames), f"{checked} generated frames reduced consistently")


def test_criterion_13_permuted_copies():
    checked = 0
    for big_n in (3, 4, 5):
        f = onb_frame(big_n)
        fb = frame_bounds(f)
        for pi in permutations(range(1, big_n + 1)):
            rep = permutation_weave(f, pi)
            if rep.woven != (pi == tuple(range(1, big_n + 1))):
                report(13, False, f"N={big_n}, pi={pi}: verdict {rep.woven}")
            if rep.span_lower_min < fb.lower - 1e-9:
                report(13, False, f"N={big_n}, pi={pi}: span lower dipped")
            if rep.universal_upper > 2 * fb.upper + 1e-9:
                report(13, False, f"N={big_n}, pi={pi}: upper exceeded twice the base")
            checked += 1
    report(13, checked == 6 + 24 + 120, f"{checked} permutations checked")


def test_criterion_14_equivalence_constants():
    pools = [riesz_pair(3, seed=s) for s in range(10)]
    base = onb_frame(3)
    pools.append(GFrameFamily((base, GFrame(3, base.blocks[1:] + base.blocks[:1]))))
    checked = 0
    for fam in pools:
        ec = equivalence_constants(fam)
        if ec.d3 < 0.5 * ec.a2 / (ec.a2 + 1.0) - 1e-8:
            report(14, False, f"d3 {ec.d3} below the derived floor")
        if ec.a2 < ec.riesz_low / ec.riesz_up - 1e-8:
            report(14, False, f"a2 {ec.a2} below the ratio floor")
        woven = certify_woven(fam).status == "woven"
        positive = min(ec.riesz_low, ec.a2, ec.d3, ec.e4) > 1e-9
        if woven != positive:
            report(14, False, f"positivity {positive} vs woven {woven}")
        checked += 1
    report(14, checked == len(pools), f"{checked} Riesz pairs consistent")


def test_criterion_15_deterministic_reports(tmp_path):
    f = random_frame(2, (1, 1, 1), seed=900)
    frame_path = tmp_path / "frame.json"
    save_frame(f, frame_path)
    fam = noisy_family(2, (1, 1, 1), 2, seed=901, noise=0.02)
    fam_path = tmp_path / "fam.json"
    save_family(fam, fam_path)

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"analyze_{tag}.json"
        assert main(["analyze", str(frame_path), "--json", str(out)]) == 0
        outs.append(out.read_bytes())
    analyze_ok = outs[0] == outs[1]

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"weave_{tag}.json"
        assert main([
            "weave", str(fam_path), "--mode", "sampled", "--seed", "7",
            "--budget", "32", "--json", str(out),
        ]) in (0, 1, 4)
        outs.append(out.read_bytes())
    weave_ok = outs[0] == outs[1]

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"cert_{tag}.json"
        assert main([
            "certify", str(fam_path), "--theorem", "k", "--cross-check",
            "--json", str(out),
        ]) in (0, 6)
        outs.append(out.read_bytes())
    cert_ok = outs[0] == outs[1]

    report(15, analyze_ok and weave_ok and cert_ok,
           "analyze/weave/certify reports byte-identical across runs")
