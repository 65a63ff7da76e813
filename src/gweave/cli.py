"""Command-line interface: analyze, weave, certify, riesz, generate.

Exit codes
----------
0   success (analysis done / woven / certificate valid)
1   not woven
2   missing, unreadable or malformed input, unwritable output (or bad usage)
3   numeric failure, including values that overflow float64
4   sampled run finished without a conclusive answer
5   partition budget exceeded
6   certificate hypothesis fails (report still emitted)

The default partition budget is 10**6 and can be overridden by the
``GWEAVE_BUDGET`` environment variable or per-command ``--budget``; a
budget below 1 is bad usage (exit 2).  The budget caps enumerations only:
``certify --theorem k`` solves N singleton constraints, so there it limits
just the weavings of ``--cross-check``.
All reports carry the tool version, tolerance settings and seed, and JSON
output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fileio import (
    FrameFileError,
    load_any,
    load_family,
    load_frame,
    load_operators,
    save_family,
    save_frame,
)
from .gframe import (
    DegenerateGFrameError,
    GFrame,
    frame_bounds,
    is_g_orthonormal,
)
from .generate import GenSpec, KINDS, generate
from .linalg import DEFAULT_TOL, Tolerance
from .perturb import (
    chained_certificate,
    minimal_k,
    operator_perturbation,
    perturbation_certificate,
    scaled_dual_weave,
)
from .riesz import _riesz_pair_reports, permutation_weave, riesz_bounds
from .weaving import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GFrameFamily,
    _check_budget,
    certify_woven,
    report_dict,
)

EXIT_OK = 0
EXIT_NOT_WOVEN = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4
EXIT_BUDGET = 5
EXIT_HYPOTHESIS = 6

_FAILING_STATUSES = {"hypothesis-fails", "lambda-below-gap", "falsified", "infeasible"}


def _tolerance(args) -> Tolerance:
    return Tolerance(
        rank_rtol=args.rank_rtol,
        frame_rtol=args.frame_rtol,
        eq_atol=args.eq_atol,
    )


def _budget(args) -> int:
    budget = args.budget
    if budget is None:
        env = os.environ.get("GWEAVE_BUDGET")
        try:
            budget = DEFAULT_BUDGET if env is None else int(env)
        except ValueError as exc:
            raise FrameFileError(f"GWEAVE_BUDGET must be an integer, got {env!r}") from exc
    _check_budget(budget)
    return budget


def _tool_block(tol: Tolerance, seed=None, budget=None) -> dict:
    block = {
        "name": "gweave",
        "version": __version__,
        "tolerance": report_dict(tol),
    }
    if seed is not None:
        block["seed"] = seed
    if budget is not None:
        block["budget"] = budget
    return block


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.json is not None:
        Path(args.json).write_text(text)
    _print_human(payload)


def _print_human(payload: dict, indent: str = "") -> None:
    for key in sorted(payload):
        if key == "tool":
            continue
        value = payload[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_human(value, indent + "  ")
        else:
            print(f"{indent}{key}: {value}")


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise FrameFileError(f"{flag}: expected comma-separated integers, got {text!r}") from exc


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise FrameFileError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc


def cmd_analyze(args) -> int:
    tol = _tolerance(args)
    frame = load_frame(args.path)
    fb = frame_bounds(frame, tol)
    rb = riesz_bounds(frame, tol)
    tight = fb.is_frame and (fb.upper - fb.lower) <= tol.eq_atol * max(1.0, fb.upper)
    parseval = tight and abs(fb.upper - 1.0) <= tol.eq_atol
    payload = {
        "tool": _tool_block(tol),
        "frame": {
            "ambient_dim": frame.ambient_dim,
            "n_blocks": frame.n_blocks,
            "block_dims": list(frame.block_dims),
        },
        "frame_bounds": {**report_dict(fb), "tight": tight, "parseval": parseval},
        "riesz_bounds": report_dict(rb),
        "g_orthonormal": is_g_orthonormal(frame, tol),
        "canonical_dual_available": fb.is_frame,
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_weave(args) -> int:
    tol = _tolerance(args)
    budget = _budget(args)
    fam = load_family(args.path)
    seed = args.seed if args.mode == "sampled" else None
    report = certify_woven(fam, mode=args.mode, budget=budget, seed=seed, tol=tol)
    payload = {
        "tool": _tool_block(tol, seed=seed, budget=budget),
        "family": {
            "m": fam.m,
            "ambient_dim": fam.ambient_dim,
            "n_indices": fam.n_indices,
            "block_dims": list(fam.block_dims),
        },
        "report": report_dict(report),
    }
    _emit(payload, args)
    if report.status == "woven":
        return EXIT_OK
    if report.status == "not-woven":
        return EXIT_NOT_WOVEN
    return EXIT_INCONCLUSIVE


def _certify_payloads(args, tol, budget):
    loaded = load_any(args.path)
    theorem = args.theorem
    cross_family = None

    if theorem == "k":
        if not isinstance(loaded, GFrameFamily):
            raise FrameFileError("--theorem k needs a family file")
        report = minimal_k(loaded, tol=tol)
        status = "feasible" if report.feasible else "infeasible"
        cross_family = loaded
    elif theorem in ("pw", "pw-chain"):
        if not isinstance(loaded, GFrameFamily):
            raise FrameFileError(f"--theorem {theorem} needs a family file")
        lambdas = _parse_float_list(args.lam, "--lam") if args.lam else None
        etas = _parse_float_list(args.eta, "--eta") if args.eta else None
        mus = _parse_float_list(args.mu, "--mu") if args.mu else None
        mode = {
            "exact": "exact-lambda-only",
            "sampled": "sampled-falsification",
        }[args.mode]
        if theorem == "pw":
            report = perturbation_certificate(
                loaded, args.base, lambdas, etas, mus,
                mode=mode, trials=args.trials, seed=args.seed, tol=tol,
            )
        else:
            report = chained_certificate(
                loaded, lambdas, etas, mus,
                mode=mode, trials=args.trials, seed=args.seed, tol=tol,
            )
        status = report.status
        cross_family = loaded
    elif theorem == "op-perturb":
        if not isinstance(loaded, GFrame):
            raise FrameFileError("--theorem op-perturb needs a single-frame file")
        if not args.operators:
            raise FrameFileError("--theorem op-perturb needs --operators FILE")
        ops = load_operators(args.operators, loaded.ambient_dim)
        report = operator_perturbation(loaded, ops, tol)
        status = "valid" if report.hypothesis_ok else "hypothesis-fails"
        cross_family = report.family
    elif theorem == "scaled-dual":
        if not isinstance(loaded, GFrame):
            raise FrameFileError("--theorem scaled-dual needs a single-frame file")
        report = scaled_dual_weave(loaded, tol)
        status = "valid" if report.hypothesis_ok else "hypothesis-fails"
        if report.op_report is not None:
            cross_family = report.op_report.family
    else:
        raise AssertionError(f"unhandled theorem {theorem!r}")
    return status, report, cross_family


def cmd_certify(args) -> int:
    tol = _tolerance(args)
    budget = _budget(args)
    status, report, cross_family = _certify_payloads(args, tol, budget)
    payload = {
        "tool": _tool_block(tol, seed=args.seed, budget=budget),
        "theorem": args.theorem,
        "status": status,
        "certificate": report_dict(report),
    }
    if args.cross_check and cross_family is not None:
        cross = certify_woven(cross_family, mode="exhaustive", budget=budget, tol=tol)
        payload["cross_check"] = report_dict(cross)
    _emit(payload, args)
    if status in _FAILING_STATUSES:
        return EXIT_HYPOTHESIS
    if status == "not-falsified":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_riesz(args) -> int:
    tol = _tolerance(args)
    budget = _budget(args)
    loaded = load_any(args.path)
    payload = {"tool": _tool_block(tol, budget=budget)}
    code = EXIT_OK
    if isinstance(loaded, GFrame):
        payload["riesz_bounds"] = report_dict(riesz_bounds(loaded, tol))
        if args.permutation:
            pi = _parse_int_list(args.permutation, "--permutation")
            report = permutation_weave(loaded, pi, tol, budget=budget)
            payload["permutation_weave"] = report_dict(report)
            code = EXIT_OK if report.woven else EXIT_NOT_WOVEN
    else:
        # One sweep serves both reports.
        report, constants = _riesz_pair_reports(loaded, tol, budget, angles=True)
        payload["weaving_riesz"] = report_dict(report)
        payload["equivalence_constants"] = report_dict(constants)
        code = EXIT_OK if report.woven else EXIT_NOT_WOVEN
    _emit(payload, args)
    return code


def cmd_generate(args) -> int:
    dims = _parse_int_list(args.dims, "--dims")
    spectrum = _parse_float_list(args.spectrum, "--spectrum") if args.spectrum else None
    try:
        spec = GenSpec(
            ambient_dim=args.n,
            block_dims=dims,
            kind=args.kind,
            seed=args.seed,
            spectrum=spectrum,
            noise_scale=args.noise_scale,
        )
        made = generate(spec)
    except ValueError as exc:
        raise FrameFileError(str(exc)) from exc
    if isinstance(made, GFrame):
        save_frame(made, args.out)
        kind_written = "frame"
    else:
        save_family(made, args.out)
        kind_written = "family"
    print(f"wrote {kind_written} ({args.kind}, seed {args.seed}) to {args.out}")
    return EXIT_OK


def _add_common(parser, with_seed=False, with_budget=False):
    parser.add_argument("--json", metavar="PATH", default=None, help="write a JSON report")
    parser.add_argument("--rank-rtol", type=float, default=DEFAULT_TOL.rank_rtol)
    parser.add_argument("--frame-rtol", type=float, default=DEFAULT_TOL.frame_rtol)
    parser.add_argument("--eq-atol", type=float, default=DEFAULT_TOL.eq_atol)
    if with_seed:
        parser.add_argument("--seed", type=int, default=0)
    if with_budget:
        parser.add_argument(
            "--budget", type=int, default=None,
            help="partition budget (default: GWEAVE_BUDGET env or 10**6)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gweave",
        description="g-frame analysis and weaving certification",
    )
    parser.add_argument("--version", action="version", version=f"gweave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="bounds and classification of a single frame file")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("weave", help="certify a family file woven / not woven")
    p.add_argument("path")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    _add_common(p, with_seed=True, with_budget=True)
    p.set_defaults(func=cmd_weave)

    p = sub.add_parser("certify", help="run a sufficient-condition certificate")
    p.add_argument("path")
    p.add_argument(
        "--theorem",
        required=True,
        choices=("k", "pw", "pw-chain", "op-perturb", "scaled-dual"),
    )
    p.add_argument("--base", type=int, default=1, help="base member for --theorem pw")
    p.add_argument("--lam", default=None, help="comma-separated lambda scalars")
    p.add_argument("--eta", default=None, help="comma-separated eta scalars")
    p.add_argument("--mu", default=None, help="comma-separated mu scalars")
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--operators", default=None, help="JSON file with per-index operators")
    p.add_argument("--cross-check", action="store_true",
                   help="also compute the exhaustive universal bounds")
    _add_common(p, with_seed=True, with_budget=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("riesz", help="Riesz bounds / Riesz weaving analysis")
    p.add_argument("path")
    p.add_argument("--permutation", default=None,
                   help="comma-separated permutation to weave a frame against itself")
    _add_common(p, with_budget=True)
    p.set_defaults(func=cmd_riesz)

    p = sub.add_parser("generate", help="write a seeded random frame or family file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", required=True, type=int, help="ambient dimension")
    p.add_argument("--dims", required=True, help="comma-separated block dimensions")
    p.add_argument("--spectrum", default=None, help="comma-separated eigenvalues")
    p.add_argument("--noise-scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Entries whose squares leave float64 end here, not in NaN bounds.
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (FrameFileError, OSError) as exc:
        # OSError: a missing, unreadable or unwritable path.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DegenerateGFrameError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # precondition violations (wrong member count, non-basis input, ...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
