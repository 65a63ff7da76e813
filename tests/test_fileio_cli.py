import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gweave import (
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    GFrame,
    GFrameFamily,
    Partition,
    __version__,
    apply_operator,
    certify_woven,
    chained_certificate,
    equivalence_constants,
    frame_bounds,
    is_g_orthonormal,
    operator_perturbation,
    perturbation_certificate,
    report_dict,
    riesz_bounds,
    scaled_dual_weave,
    weaving_riesz_check,
)
import gweave.cli
import gweave.perturb
import gweave.riesz
import gweave.weaving
from gweave.cli import _EXIT_CODES, main
from gweave.fileio import (
    FrameFileError,
    load_any,
    load_family,
    load_frame,
    save_family,
    save_frame,
)

from _support import (
    ill_conditioned_basis,
    noisy_family,
    onb_frame,
    random_frame,
    riesz_pair,
    swapped_onb_family,
)


@pytest.fixture()
def frame_file(tmp_path):
    path = tmp_path / "frame.json"
    save_frame(onb_frame(2), path)
    return path


@pytest.fixture()
def swapped_family_file(tmp_path):
    path = tmp_path / "fam.json"
    save_family(swapped_onb_family(), path)
    return path


@pytest.fixture()
def copies_family_file(tmp_path):
    f = onb_frame(2)
    path = tmp_path / "copies.json"
    save_family(GFrameFamily((f, f)), path)
    return path


class TestRoundTrip:
    def test_complex_frame_exact(self, tmp_path):
        f = random_frame(3, (1, 2), seed=13)
        path = tmp_path / "f.json"
        save_frame(f, path)
        loaded = load_frame(path)
        assert loaded.ambient_dim == f.ambient_dim
        for a, b in zip(loaded.blocks, f.blocks):
            assert np.array_equal(a, b)
        assert json.loads(path.read_text())["field"] == "complex"

    def test_real_frame_uses_plain_numbers(self, tmp_path):
        f = GFrame(2, (np.array([[1.0, 0.5]]), np.array([[0.25, -3.0]])))
        path = tmp_path / "real.json"
        save_frame(f, path)
        payload = json.loads(path.read_text())
        assert payload["field"] == "real"
        assert payload["blocks"][0]["entries"] == [[1.0, 0.5]]
        loaded = load_frame(path)
        for a, b in zip(loaded.blocks, f.blocks):
            assert np.array_equal(a, b)

    def test_family_roundtrip(self, tmp_path):
        fam = swapped_onb_family()
        path = tmp_path / "fam.json"
        save_family(fam, path)
        loaded = load_family(path)
        assert loaded.m == 2
        for fr_a, fr_b in zip(loaded.frames, fam.frames):
            for a, b in zip(fr_a.blocks, fr_b.blocks):
                assert np.array_equal(a, b)

    def test_save_is_byte_stable(self, tmp_path):
        f = random_frame(2, (1, 1, 1), seed=3)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_frame(f, p1)
        save_frame(f, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_any_dispatch(self, frame_file, swapped_family_file):
        assert isinstance(load_any(frame_file), GFrame)
        assert isinstance(load_any(swapped_family_file), GFrameFamily)


def _row_blocks(*rows, field="real"):
    """A 2-dim frame file payload of one-row blocks with the given entries."""
    blocks = [{"rows": 1, "entries": [row]} for row in rows]
    return {"ambient_dim": 2, "field": field, "blocks": blocks}


class TestMalformedFiles:
    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"ambient_dim": 2,\n  "field": }')
        with pytest.raises(FrameFileError, match="line 2"):
            load_frame(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": 2, "blocks": []}))
        with pytest.raises(FrameFileError, match="field"):
            load_frame(path)

    def test_bad_entry_shape_names_the_spot(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {
            "ambient_dim": 2,
            "field": "real",
            "blocks": [{"rows": 1, "entries": [[1.0, 2.0, 3.0]]}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(FrameFileError, match=r"blocks\[0\].entries\[0\]"):
            load_frame(path)

    def test_complex_entry_must_be_pair(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {
            "ambient_dim": 1,
            "field": "complex",
            "blocks": [{"rows": 1, "entries": [[7]]}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(FrameFileError, match=r"entries\[0\]\[0\]"):
            load_frame(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {
            "ambient_dim": 1,
            "field": "real",
            "blocks": [{"rows": 1, "entries": [[1e400]]}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(FrameFileError, match="finite"):
            load_frame(path)

    def test_size_past_memory_exit_2(self, tmp_path, capsys):
        # 2**45 complex entries are 512 TiB, more than any address space:
        # the row lengths must be checked before the matrix is allocated.
        path = tmp_path / "huge.json"
        payload = {
            "ambient_dim": 2**45,
            "field": "real",
            "blocks": [{"rows": 1, "entries": [[1.0]]}],
        }
        path.write_text(json.dumps(payload))
        assert main(["analyze", str(path)]) == 2
        assert f"blocks[0].entries[0]: expected {2**45} entries" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_integer_past_float64_exit_2(self, tmp_path, capsys, field):
        # 1e400 parses as inf and fails the finiteness check; an integer
        # with 400 digits made float() raise OverflowError (exit 3).
        huge = json.loads("1" + "0" * 400)
        entry = huge if field == "real" else [0.0, huge]
        path = tmp_path / "big.json"
        payload = {"ambient_dim": 1, "field": field, "blocks": [{"rows": 1, "entries": [[entry]]}]}
        path.write_text(json.dumps(payload))
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "blocks[0].entries[0][0]: integer too large for float64" in err
        assert "0" * 400 not in err

    def test_frame_where_family_expected(self, frame_file):
        with pytest.raises(FrameFileError, match="frames"):
            load_family(frame_file)

    _FRAME = {"ambient_dim": 2, "field": "real", "blocks": [{"rows": 1, "entries": [[1.0, 0.0]]}]}
    _DEEP = "[" * 200_000 + "]" * 200_000
    _BIG = 10**309  # an integer past float64

    @pytest.mark.parametrize(
        "command, content, where, message",
        [
            ("analyze", {**_FRAME, "blocks": [{"rows": 1, "entries": [["x", 0.0]]}]},
             ".blocks[0].entries[0][0]", "expected a real number, got 'x'"),
            ("analyze", {**_FRAME, "ambient_dim": 0}, ".ambient_dim",
             "expected a positive integer"),
            ("analyze", {**_FRAME, "ambient_dim": True}, ".ambient_dim",
             "expected a positive integer"),
            ("analyze", {**_FRAME, "field": "quaternion"}, ".field",
             "expected 'real' or 'complex', got 'quaternion'"),
            ("analyze", {**_FRAME, "blocks": []}, ".blocks", "expected a nonempty list"),
            ("analyze", {**_FRAME, "blocks": [1]}, ".blocks[0]", "expected an object"),
            ("analyze", {**_FRAME, "blocks": [{"rows": 0, "entries": []}]}, ".blocks[0].rows",
             "expected a positive integer"),
            ("analyze", {"frames": [_FRAME, _FRAME]}, "",
             "found a family file where a frame file was expected"),
            ("weave", {"frames": [1, 2]}, ".frames[0]", "expected an object"),
            ("weave", {"frames": [_FRAME]}, ".frames",
             "expected a list of at least two frames"),
            ("weave", {"frames": [_FRAME, {**_FRAME, "ambient_dim": 1,
                                           "blocks": [{"rows": 1, "entries": [[1.0]]}]}]},
             "", "member 2: ambient_dim differs from member 1"),
            ("analyze", _DEEP, "", "JSON nested too deeply"),
            ("weave", _DEEP, "", "JSON nested too deeply"),
            ("analyze", '{"frames": ' + _DEEP + "}", "", "JSON nested too deeply"),
            ("weave", '{"frames": ' + _DEEP + "}", "", "JSON nested too deeply"),
            # Types np.array would coerce: True to 1.0, '1.5' to 1.5, None to nan.
            ("analyze", _row_blocks([True, 0.0]), ".blocks[0].entries[0][0]",
             "expected a real number, got True"),
            ("analyze", _row_blocks([1.0, "1.5"]), ".blocks[0].entries[0][1]",
             "expected a real number, got '1.5'"),
            ("analyze", _row_blocks([None, 0.0]), ".blocks[0].entries[0][0]",
             "expected a real number, got None"),
            ("analyze", _row_blocks([[True, 0.0], [0.0, 0.0]], field="complex"),
             ".blocks[0].entries[0][0]", "expected an [re, im] pair, got [True, 0.0]"),
            ("analyze", _row_blocks([[1.0, 0.0], [0.0, "1.5"]], field="complex"),
             ".blocks[0].entries[0][1]", "expected an [re, im] pair, got [0.0, '1.5']"),
            ("analyze", _row_blocks([[None, 0.0], [0.0, 0.0]], field="complex"),
             ".blocks[0].entries[0][0]", "expected an [re, im] pair, got [None, 0.0]"),
            ("analyze", _row_blocks([0.0, [1.0, 0.0]]), ".blocks[0].entries[0][1]",
             "expected a real number, got [1.0, 0.0]"),
            ("analyze", _row_blocks([[1.0, 0.0], [0.0, 0.0, 0.0]], field="complex"),
             ".blocks[0].entries[0][1]", "expected an [re, im] pair, got [0.0, 0.0, 0.0]"),
            # The first integer past float64 is named.
            ("analyze", _row_blocks([1.0, _BIG], [_BIG, 0.0]), ".blocks[0].entries[0][1]",
             "integer too large for float64"),
            ("analyze", _row_blocks([[0.0, 1.0], [0.0, _BIG]], [[_BIG, 0.0], [0.0, 0.0]],
                                    field="complex"),
             ".blocks[0].entries[0][1]", "integer too large for float64"),
            # The first bad entry wins, a bad type or an overflow alike; a
            # non-finite entry only after every entry of its block parsed.
            ("analyze", _row_blocks(["x", _BIG]), ".blocks[0].entries[0][0]",
             "expected a real number, got 'x'"),
            ("analyze", _row_blocks([_BIG, "x"]), ".blocks[0].entries[0][0]",
             "integer too large for float64"),
            ("analyze", _row_blocks([[0.0, _BIG], [True, 0.0]], field="complex"),
             ".blocks[0].entries[0][0]", "integer too large for float64"),
            ("analyze", _row_blocks([[True, 0.0], [0.0, _BIG]], field="complex"),
             ".blocks[0].entries[0][0]", "expected an [re, im] pair, got [True, 0.0]"),
            ("analyze", _row_blocks([float("nan"), "x"]), ".blocks[0].entries[0][1]",
             "expected a real number, got 'x'"),
            ("analyze", _row_blocks([float("nan"), 0.0], ["x", 0.0]), ".blocks[0].entries",
             "entries must be finite numbers"),
            ("analyze", _row_blocks([1.0, 0.0], ["x", 0.0], [0.0]),
             ".blocks[1].entries[0][0]", "expected a real number, got 'x'"),
            ("analyze", {**_FRAME, "blocks": [{"rows": 1, "entries": [["x", 0.0]]},
                                              {"entries": []}]},
             ".blocks[0].entries[0][0]", "expected a real number, got 'x'"),
            ("analyze", _row_blocks([1.0, 0.0], [1.0]), ".blocks[1].entries[0]",
             "expected 2 entries"),
        ],
        ids=["real-entry", "ambient-dim-0", "ambient-dim-bool", "field", "no-blocks",
             "block-not-object", "rows-0", "family-for-frame", "member-not-object",
             "one-member", "members-differ", "deep-analyze", "deep-weave",
             "deep-frames-analyze", "deep-frames-weave",
             "real-true", "real-string", "real-null", "complex-true", "complex-string",
             "complex-null", "real-pair", "complex-triple", "real-overflow-first",
             "complex-overflow-first", "real-type-before-overflow",
             "real-overflow-before-type", "complex-overflow-before-type",
             "complex-type-before-overflow", "real-type-before-nan",
             "nan-block-before-type-block", "type-block-before-short-row",
             "type-block-before-missing-rows", "short-row-in-second-block"],
    )
    def test_frame_file_errors_exit_2(self, tmp_path, capsys, command, content, where, message):
        # A nesting past the recursion limit used to escape as a
        # RecursionError traceback, exit 1 ("not woven").
        path = tmp_path / "bad.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}{where}: {message}\n"


class TestAnalyzeCommand:
    def test_identity_onb(self, frame_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["analyze", str(frame_file), "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["frame_bounds"]["parseval"] is True
        assert payload["frame_bounds"]["classification"] == "g-frame"
        assert payload["g_orthonormal"] is True
        assert payload["canonical_dual_available"] is True

    def test_rank_deficient_analyzes_fine(self, tmp_path):
        path = tmp_path / "thin.json"
        save_frame(GFrame(2, (np.array([[2.0, 0.0]]),)), path)
        out = tmp_path / "rep.json"
        code = main(["analyze", str(path), "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["frame_bounds"]["classification"] == "degenerate"
        assert payload["canonical_dual_available"] is False

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code = main(["analyze", str(path)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_golden_determinism(self, frame_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", str(frame_file), "--json", str(a)]) == 0
        assert main(["analyze", str(frame_file), "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestWeaveCommand:
    def test_copies_exit_0(self, copies_family_file, tmp_path):
        out = tmp_path / "w.json"
        code = main(["weave", str(copies_family_file), "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["status"] == "woven"
        assert payload["report"]["universal_lower"] == pytest.approx(1.0, abs=1e-12)

    def test_swapped_exit_1_with_witness(self, swapped_family_file, tmp_path):
        out = tmp_path / "w.json"
        code = main(["weave", str(swapped_family_file), "--json", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["report"]["witness_lower"] == [1, 2]

    def test_budget_exceeded_exit_5(self, tmp_path, capsys):
        f = onb_frame(2)
        blocks = tuple(f.blocks[i % 2] for i in range(30))
        big = GFrame(2, blocks)
        path = tmp_path / "big.json"
        save_family(GFrameFamily((big, big)), path)
        code = main(["weave", str(path)])
        assert code == 5
        assert "2^30 = 1073741824" in capsys.readouterr().err

    def test_budget_env_override(self, tmp_path, capsys, monkeypatch):
        fam = swapped_onb_family()
        path = tmp_path / "fam.json"
        save_family(fam, path)
        monkeypatch.setenv("GWEAVE_BUDGET", "2")
        assert main(["weave", str(path)]) == 5
        monkeypatch.setenv("GWEAVE_BUDGET", "100")
        assert main(["weave", str(path)]) == 1

    def test_sampled_inconclusive_exit_4(self, copies_family_file):
        code = main([
            "weave", str(copies_family_file), "--mode", "sampled",
            "--budget", "16", "--seed", "1",
        ])
        assert code == 4

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_sampled_budget_below_one_exit_2(self, copies_family_file, capsys, budget):
        code = main([
            "weave", str(copies_family_file), "--mode", "sampled",
            "--budget", budget, "--seed", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "budget must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize(
        "command, extra, single",
        [
            ("weave", ("--mode", "exhaustive"), False),
            ("riesz", (), False),
            ("riesz", ("--permutation", "2,1"), True),
            ("certify", ("--theorem", "k"), False),
            ("riesz", (), True),
            ("certify", ("--theorem", "pw"), False),
            ("certify", ("--theorem", "pw-chain"), False),
            ("certify", ("--theorem", "op-perturb", "--operators", "OPS"), True),
            ("certify", ("--theorem", "scaled-dual"), True),
        ],
        ids=["weave", "riesz", "riesz-permutation", "certify-k", "riesz-frame",
             "certify-pw", "certify-pw-chain", "certify-op-perturb", "certify-scaled-dual"],
    )
    def test_every_command_rejects_budget_below_one(
        self, copies_family_file, frame_file, tmp_path, capsys, command, extra, single, budget
    ):
        # Commands that enumerate nothing must reject the budget too.
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"field": "real", "matrices": [[[0.9, 0.0], [0.0, 0.9]]]}))
        path = frame_file if single else copies_family_file
        extra = [str(ops) if arg == "OPS" else arg for arg in extra]
        code = main([command, str(path), *extra, "--budget", budget])
        assert code == 2
        err = capsys.readouterr().err
        assert "budget must be >= 1" in err
        assert "Traceback" not in err

    def test_env_budget_below_one_exit_2(self, frame_file, monkeypatch, capsys):
        monkeypatch.setenv("GWEAVE_BUDGET", "0")
        assert main(["certify", str(frame_file), "--theorem", "scaled-dual"]) == 2
        assert "budget must be >= 1" in capsys.readouterr().err

    def test_env_budget_not_an_integer_exit_2(self, copies_family_file, monkeypatch, capsys):
        monkeypatch.setenv("GWEAVE_BUDGET", "abc")
        assert main(["weave", str(copies_family_file)]) == 2
        assert capsys.readouterr().err == "error: GWEAVE_BUDGET must be an integer, got 'abc'\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("weave", "MISSING"),
            ("analyze", "DIR"),
            ("weave", "FAMILY", "--json", "DIR"),
            ("generate", "--kind", "parseval", "--n", "2", "--dims", "1,1", "--out", "DIR"),
        ],
        ids=["missing-input", "directory-input", "directory-json", "directory-out"],
    )
    def test_unreadable_or_unwritable_path_exit_2(
        self, copies_family_file, tmp_path, capsys, args
    ):
        paths = {
            "MISSING": str(tmp_path / "nope.json"),
            "DIR": str(tmp_path),
            "FAMILY": str(copies_family_file),
        }
        code = main([paths.get(arg, arg) for arg in args])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(tmp_path) in err

    def test_sampled_determinism(self, swapped_family_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["weave", str(swapped_family_file), "--mode", "sampled",
                "--budget", "32", "--seed", "9"]
        assert main(args + ["--json", str(a)]) == 1
        assert main(args + ["--json", str(b)]) == 1
        assert a.read_bytes() == b.read_bytes()


class TestCertifyCommand:
    def test_k_identical_pair(self, copies_family_file, tmp_path):
        out = tmp_path / "k.json"
        code = main([
            "certify", str(copies_family_file), "--theorem", "k",
            "--cross-check", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "feasible"
        assert payload["certificate"]["k"] == pytest.approx(0.0, abs=1e-12)
        assert payload["certificate"]["predicted_lower"] == pytest.approx(2 / 3, abs=1e-12)
        assert payload["cross_check"]["universal_lower"] >= payload["certificate"]["predicted_lower"] - 1e-8

    def test_k_members_without_lower_bound_hypothesis_fails(self, tmp_path):
        # Both members span only e1, so the family is not woven, yet every
        # singleton constraint is feasible with K = 1/4 and predicted lower
        # bound 0.  The theorem assumes g-frame members.
        a = GFrame(2, (np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])))
        b = GFrame(2, (np.array([[1.5, 0.0]]), np.array([[2.5, 0.0]])))
        path = tmp_path / "fam.json"
        save_family(GFrameFamily((a, b), allow_degenerate=True), path)
        assert main(["weave", str(path)]) == 1
        out = tmp_path / "k.json"
        code = main(["certify", str(path), "--theorem", "k", "--cross-check",
                     "--json", str(out)])
        assert code == 6
        payload = json.loads(out.read_text())
        assert payload["status"] == "hypothesis-fails"
        assert payload["certificate"]["feasible"] is True
        assert payload["certificate"]["k"] == pytest.approx(0.25, abs=1e-12)
        assert payload["certificate"]["predicted_lower"] == 0.0
        assert payload["cross_check"]["status"] == "not-woven"

    @pytest.mark.parametrize("seed", range(8))
    def test_k_rank_deficient_members_hypothesis_fails(self, tmp_path, seed):
        # Members in one 2-D subspace of C^4 with the same kernels: K is
        # feasible, and the computed member lower bounds are 0 or a rounding
        # residue of about 1e-15, which must not pass for a g-frame.
        rng = np.random.default_rng(seed)
        basis = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        blocks = [(rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))) @ basis
                  for _ in range(5)]
        scaled = [rng.uniform(0.5, 1.5) * blk for blk in blocks]
        fam = GFrameFamily((GFrame(4, tuple(blocks)), GFrame(4, tuple(scaled))),
                           allow_degenerate=True)
        path = tmp_path / "fam.json"
        save_family(fam, path)
        out = tmp_path / "k.json"
        assert main(["certify", str(path), "--theorem", "k", "--json", str(out)]) == 6
        payload = json.loads(out.read_text())
        assert payload["certificate"]["feasible"] is True
        assert payload["status"] == "hypothesis-fails"

    @pytest.mark.parametrize(
        "theorem, wrong, message",
        [
            ("k", "frame", "--theorem k needs a family file"),
            ("pw", "frame", "--theorem pw needs a family file"),
            ("pw-chain", "frame", "--theorem pw-chain needs a family file"),
            ("op-perturb", "family", "--theorem op-perturb needs a single-frame file"),
            ("scaled-dual", "family", "--theorem scaled-dual needs a single-frame file"),
            ("op-perturb", "frame", "--theorem op-perturb needs --operators FILE"),
        ],
    )
    def test_wrong_input_kind_exit_2(
        self, frame_file, copies_family_file, capsys, theorem, wrong, message
    ):
        path = frame_file if wrong == "frame" else copies_family_file
        assert main(["certify", str(path), "--theorem", theorem, "--lam", "0.1"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_k_budget_does_not_cap_the_singleton_solve(self, tmp_path, capsys):
        # N = 12 has 2**12 - 1 subsets, but minimal_k solves only the 12
        # singleton constraints, so a budget far below 2**N still certifies.
        # The budget keeps capping the enumerated --cross-check.
        path = tmp_path / "fam.json"
        save_family(noisy_family(3, (3,) * 12, 2, seed=3, noise=1e-2), path)
        out = tmp_path / "k.json"
        code = main(["certify", str(path), "--theorem", "k", "--budget", "4",
                     "--json", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["status"] == "feasible"
        code = main(["certify", str(path), "--theorem", "k", "--budget", "4",
                     "--cross-check"])
        assert code == 5
        assert "2^12 = 4096" in capsys.readouterr().err

    def test_pw_scaled_pair(self, tmp_path):
        f = onb_frame(2)
        fam = GFrameFamily((f, apply_operator(f, 1.1 * np.eye(2))))
        path = tmp_path / "fam.json"
        save_family(fam, path)
        out = tmp_path / "pw.json"
        code = main([
            "certify", str(path), "--theorem", "pw", "--base", "1",
            "--lam", "0.1", "--cross-check", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "valid"
        assert payload["certificate"]["predicted_lower"] == pytest.approx(0.79, abs=1e-9)
        assert payload["cross_check"]["universal_lower"] == pytest.approx(1.0, abs=1e-10)

    def test_pw_chain(self, tmp_path):
        f = onb_frame(2)
        fam = GFrameFamily(
            (f, apply_operator(f, 1.05 * np.eye(2)), apply_operator(f, 1.1 * np.eye(2)))
        )
        path = tmp_path / "fam3.json"
        save_family(fam, path)
        code = main([
            "certify", str(path), "--theorem", "pw-chain", "--lam", "0.051,0.051",
        ])
        assert code == 0

    def test_pw_exact_with_eta_exit_2_when_hypothesis_fails(self, tmp_path, capsys):
        f = onb_frame(2)
        path = tmp_path / "fam.json"
        save_family(GFrameFamily((f, apply_operator(f, 1.6 * np.eye(2)))), path)
        code = main(["certify", str(path), "--theorem", "pw", "--lam", "0.6", "--eta", "0.1"])
        assert code == 2
        assert "lambda-only" in capsys.readouterr().err

    def test_scaled_dual_hypothesis_fails_exit_6(self, tmp_path):
        f = GFrame(2, (np.array([[1.0, 0.0]]), np.array([[0.0, np.sqrt(2.5)]])))
        path = tmp_path / "wide.json"
        save_frame(f, path)
        out = tmp_path / "sd.json"
        code = main(["certify", str(path), "--theorem", "scaled-dual", "--json", str(out)])
        assert code == 6
        payload = json.loads(out.read_text())
        assert payload["status"] == "hypothesis-fails"
        assert payload["certificate"]["ratio"] == pytest.approx(2.5, abs=1e-12)

    def test_scaled_dual_valid(self, frame_file):
        assert main(["certify", str(frame_file), "--theorem", "scaled-dual"]) == 0

    def test_op_perturb_with_operator_file(self, frame_file, tmp_path):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({
            "field": "real",
            "matrices": [[[0.9, 0.0], [0.0, 0.9]]],
        }))
        out = tmp_path / "op.json"
        code = main([
            "certify", str(frame_file), "--theorem", "op-perturb",
            "--operators", str(ops), "--cross-check", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["certificate"]["predicted_lower"] == pytest.approx(0.81, abs=1e-12)
        assert payload["cross_check"]["universal_lower"] == pytest.approx(0.81, abs=1e-12)

    def test_pw_sampled_inconclusive_exit_4(self, tmp_path):
        f = onb_frame(2)
        fam = GFrameFamily((f, apply_operator(f, 1.1 * np.eye(2))))
        path = tmp_path / "fam.json"
        save_family(fam, path)
        code = main([
            "certify", str(path), "--theorem", "pw", "--lam", "0.2",
            "--eta", "0.01", "--mode", "sampled", "--trials", "50",
        ])
        assert code == 4

    @pytest.mark.parametrize(
        "flags",
        [
            ("--lam", "nan"),
            ("--lam", "inf"),
            ("--lam", "0.1", "--eta", "nan", "--mode", "sampled"),
            ("--lam", "0.1", "--mode", "sampled", "--trials", "0"),
            ("--lam", "0.1", "--mode", "sampled", "--trials", "-3"),
        ],
        ids=["lam-nan", "lam-inf", "eta-nan", "trials-0", "trials-negative"],
    )
    @pytest.mark.parametrize("theorem", ["pw", "pw-chain"])
    def test_non_finite_scalars_and_no_trials_exit_2(self, tmp_path, capsys, flags, theorem):
        f = onb_frame(2)
        path = tmp_path / "fam.json"
        save_family(GFrameFamily((f, apply_operator(f, 1.1 * np.eye(2)))), path)
        out = tmp_path / "pw.json"
        code = main(["certify", str(path), "--theorem", theorem, *flags, "--json", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "finite and nonnegative" in err or "trials must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--lam", ""), "lambdas must have 1 entries, got 0"),
            (("--lam", "0.1", "--eta", ""), "etas must have 1 entries, got 0"),
            (("--lam", "0.1", "--mu", "", "--mode", "sampled"), "mus must have 1 entries, got 0"),
        ],
        ids=["lam", "eta", "mu"],
    )
    @pytest.mark.parametrize("theorem", ["pw", "pw-chain"])
    def test_empty_scalar_list_exits_2(self, tmp_path, capsys, flags, message, theorem):
        # An empty list used to count as no flag, that is as zeros.
        f = onb_frame(2)
        path = tmp_path / "fam.json"
        save_family(GFrameFamily((f, apply_operator(f, 1.1 * np.eye(2)))), path)
        out = tmp_path / "pw.json"
        code = main(["certify", str(path), "--theorem", theorem, *flags, "--json", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, where, message",
        [
            ('{"matrices": ', "", "invalid JSON"),
            ("[[[0.9, 0.0], [0.0, 0.9]]]", "", "expected a top-level object"),
            ('{"field": "real"}', "", "missing required field 'matrices'"),
            ('{"field": "quaternion", "matrices": [[[1, 0], [0, 1]]]}', ".field",
             "expected 'real' or 'complex'"),
            ('{"field": "real", "matrices": []}', ".matrices", "expected a nonempty list"),
            ('{"field": "real", "matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}',
             ".matrices[0]", "expected 2 rows"),
            ('{"field": "real", "matrices": [[[1, true], [0, 1]]]}', ".matrices[0][0][1]",
             "expected a real number, got True"),
            ('{"field": "real", "matrices": [[[1, 0], [0, 1]], [[null, 0], [0, 1]]]}',
             ".matrices[1][0][0]", "expected a real number, got None"),
            ('{"matrices": [[[[1, 0], [0, 0]], [[0, 0], ["1.5", 0]]]]}', ".matrices[0][1][1]",
             "expected an [re, im] pair, got ['1.5', 0]"),
            ('{"matrices": [[[[1, 0], [0, 0]], [[0, 0], [true, 0]]]]}', ".matrices[0][1][1]",
             "expected an [re, im] pair, got [True, 0]"),
            ('{"matrices": [[[[1, 0], [0, 0]], [[0, 0], [null, 0]]]]}', ".matrices[0][1][1]",
             "expected an [re, im] pair, got [None, 0]"),
            (f'{{"field": "real", "matrices": [[[1, {10**309}], [{10**309}, 1]]]}}',
             ".matrices[0][0][1]", "integer too large for float64"),
            ('{"field": "real", "matrices": [[[1, "x"], [0, 1]], [[1]]]}',
             ".matrices[0][0][1]", "expected a real number, got 'x'"),
        ],
        ids=["invalid-json", "non-object", "no-matrices", "bad-field", "empty-list", "wrong-size",
             "real-true", "real-null", "complex-string", "complex-true", "complex-null",
             "overflow-first", "type-before-wrong-size"],
    )
    def test_operators_file_errors_exit_2(self, frame_file, tmp_path, capsys, text, where, message):
        ops = tmp_path / "ops.json"
        ops.write_text(text)
        code = main(["certify", str(frame_file), "--theorem", "op-perturb",
                     "--operators", str(ops)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {ops}{where}: {message}" in err


def _plain(value):
    """A report attribute as its JSON value."""
    if isinstance(value, Partition):
        return list(value.labels)
    if isinstance(value, np.ndarray):
        return [[z.real, z.imag] for z in value]
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _assert_section(section, report, keys):
    assert set(section) == set(keys)
    for key in keys:
        assert section[key] == _plain(getattr(report, key)), key


_TOOL_TOLERANCE = {
    "rank_rtol": DEFAULT_TOL.rank_rtol,
    "frame_rtol": DEFAULT_TOL.frame_rtol,
    "eq_atol": DEFAULT_TOL.eq_atol,
}
_WEAVING_KEYS = (
    "status", "universal_lower", "universal_upper", "witness_lower",
    "witness_upper", "partitions_checked", "mode", "seed",
)
_PW_KEYS = (
    "base_index", "chained", "lambdas", "etas", "mus", "member_lowers",
    "member_uppers", "predicted_lower", "predicted_upper", "verification_mode",
    "status", "synthesis_gaps",
)
_OP_KEYS = (
    "base_lower", "base_upper", "max_deviation", "condition_value",
    "condition_threshold", "hypothesis_ok", "predicted_lower",
)
_SCALED_DUAL_KEYS = (
    "base_lower", "base_upper", "ratio", "hypothesis_ok", "scale",
    "deviation_norm", "deviation_bound",
)


class TestReportSections:
    """Every section of the JSON reports that no benchmark fingerprint covers:
    its exact key set, and each value against the report attribute."""

    @staticmethod
    def _run(args, tmp_path, code):
        out = tmp_path / "report.json"
        assert main([*args, "--json", str(out)]) == code
        return json.loads(out.read_text())

    @staticmethod
    def _assert_certify_top(payload, theorem, status, cross):
        keys = {"tool", "theorem", "status", "certificate"} | ({"cross_check"} if cross else set())
        assert set(payload) == keys
        assert payload["tool"] == {
            "name": "gweave", "version": __version__, "tolerance": _TOOL_TOLERANCE,
            "seed": 0, "budget": DEFAULT_BUDGET,
        }
        assert payload["theorem"] == theorem
        assert payload["status"] == status

    @staticmethod
    def _scaled_pair_file(tmp_path):
        f = onb_frame(2)
        fam = GFrameFamily((f, apply_operator(f, 1.1 * np.eye(2))))
        path = tmp_path / "fam.json"
        save_family(fam, path)
        return path, fam

    def test_analyze(self, tmp_path):
        frame = random_frame(3, (1, 2, 1), seed=4)
        path = tmp_path / "frame.json"
        save_frame(frame, path)
        payload = self._run(["analyze", str(path)], tmp_path, 0)
        assert set(payload) == {
            "tool", "frame", "frame_bounds", "riesz_bounds", "g_orthonormal",
            "canonical_dual_available",
        }
        assert payload["tool"] == {
            "name": "gweave", "version": __version__, "tolerance": _TOOL_TOLERANCE,
        }
        _assert_section(payload["frame"], frame, ("ambient_dim", "n_blocks", "block_dims"))
        fb = frame_bounds(frame)
        assert set(payload["frame_bounds"]) == {
            "lower", "upper", "classification", "tight", "parseval",
        }
        _assert_section(
            {k: payload["frame_bounds"][k] for k in ("lower", "upper", "classification")},
            fb, ("lower", "upper", "classification"),
        )
        assert payload["frame_bounds"]["tight"] is False
        assert payload["frame_bounds"]["parseval"] is False
        _assert_section(
            payload["riesz_bounds"], riesz_bounds(frame),
            ("lower", "upper", "complete", "is_basis"),
        )
        assert payload["g_orthonormal"] == is_g_orthonormal(frame)
        assert payload["canonical_dual_available"] is True

    @pytest.mark.parametrize(
        "lam, status, code", [("0.1", "valid", 0), ("0.05", "lambda-below-gap", 6)]
    )
    def test_pw_exact(self, tmp_path, lam, status, code):
        path, fam = self._scaled_pair_file(tmp_path)
        payload = self._run(
            ["certify", str(path), "--theorem", "pw", "--lam", lam, "--cross-check"],
            tmp_path, code,
        )
        self._assert_certify_top(payload, "pw", status, cross=True)
        cert = perturbation_certificate(fam, 1, (float(lam),))
        _assert_section(payload["certificate"], cert, _PW_KEYS + ("falsification_witness",))
        assert payload["certificate"]["falsification_witness"] is None
        _assert_section(payload["cross_check"], certify_woven(fam), _WEAVING_KEYS)

    def test_pw_sampled_falsified(self, tmp_path):
        path, fam = self._scaled_pair_file(tmp_path)
        payload = self._run(
            ["certify", str(path), "--theorem", "pw", "--lam", "0.01",
             "--mode", "sampled", "--trials", "20"],
            tmp_path, 6,
        )
        self._assert_certify_top(payload, "pw", "falsified", cross=False)
        cert = perturbation_certificate(
            fam, 1, (0.01,), mode="sampled-falsification", trials=20
        )
        section = payload["certificate"]
        _assert_section({k: section[k] for k in _PW_KEYS}, cert, _PW_KEYS)
        assert set(section) == set(_PW_KEYS) | {"falsification_witness"}
        subset, segments = cert.falsification_witness
        assert section["falsification_witness"] == {
            "subset": list(subset), "segments": _plain(segments),
        }
        assert len(section["falsification_witness"]["segments"]) == len(subset)

    def test_pw_sampled_not_falsified(self, tmp_path):
        path, fam = self._scaled_pair_file(tmp_path)
        payload = self._run(
            ["certify", str(path), "--theorem", "pw", "--lam", "0.2", "--eta", "0.01",
             "--mode", "sampled", "--trials", "50"],
            tmp_path, 4,
        )
        self._assert_certify_top(payload, "pw", "not-falsified", cross=False)
        cert = perturbation_certificate(
            fam, 1, (0.2,), (0.01,), mode="sampled-falsification", trials=50
        )
        _assert_section(payload["certificate"], cert, _PW_KEYS + ("falsification_witness",))
        assert payload["certificate"]["synthesis_gaps"] is None

    def test_pw_chain(self, tmp_path):
        f = onb_frame(2)
        fam = GFrameFamily(
            (f, apply_operator(f, 1.05 * np.eye(2)), apply_operator(f, 1.1 * np.eye(2)))
        )
        path = tmp_path / "fam3.json"
        save_family(fam, path)
        payload = self._run(
            ["certify", str(path), "--theorem", "pw-chain", "--lam", "0.051,0.051"],
            tmp_path, 0,
        )
        self._assert_certify_top(payload, "pw-chain", "valid", cross=False)
        cert = chained_certificate(fam, (0.051, 0.051))
        _assert_section(payload["certificate"], cert, _PW_KEYS + ("falsification_witness",))
        assert payload["certificate"]["chained"] is True

    def test_op_perturb(self, tmp_path):
        frame = random_frame(3, (1, 2, 1), seed=8)
        path = tmp_path / "frame.json"
        save_frame(frame, path)
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"field": "real", "matrices": [np.diag([0.95, 1.0, 1.05]).tolist()]}))
        payload = self._run(
            ["certify", str(path), "--theorem", "op-perturb", "--operators", str(ops),
             "--cross-check"],
            tmp_path, 0,
        )
        self._assert_certify_top(payload, "op-perturb", "valid", cross=True)
        report = operator_perturbation(frame, np.diag([0.95, 1.0, 1.05]))
        _assert_section(payload["certificate"], report, _OP_KEYS)
        _assert_section(payload["cross_check"], certify_woven(report.family), _WEAVING_KEYS)

    def test_scaled_dual_valid(self, tmp_path):
        frame = random_frame(3, (1, 2, 1), seed=5, lo=1.0, hi=1.8)
        path = tmp_path / "frame.json"
        save_frame(frame, path)
        payload = self._run(
            ["certify", str(path), "--theorem", "scaled-dual", "--cross-check"], tmp_path, 0
        )
        self._assert_certify_top(payload, "scaled-dual", "valid", cross=True)
        report = scaled_dual_weave(frame)
        section = payload["certificate"]
        _assert_section(
            {k: section[k] for k in _SCALED_DUAL_KEYS}, report, _SCALED_DUAL_KEYS
        )
        assert set(section) == set(_SCALED_DUAL_KEYS) | {"op_report"}
        _assert_section(section["op_report"], report.op_report, _OP_KEYS)
        _assert_section(
            payload["cross_check"], certify_woven(report.op_report.family), _WEAVING_KEYS
        )

    def test_scaled_dual_failing(self, tmp_path):
        frame = GFrame(2, (np.array([[1.0, 0.0]]), np.array([[0.0, np.sqrt(2.5)]])))
        path = tmp_path / "wide.json"
        save_frame(frame, path)
        payload = self._run(
            ["certify", str(path), "--theorem", "scaled-dual", "--cross-check"], tmp_path, 6
        )
        self._assert_certify_top(payload, "scaled-dual", "hypothesis-fails", cross=False)
        report = scaled_dual_weave(frame)
        assert report.scaled_dual is None
        _assert_section(payload["certificate"], report, _SCALED_DUAL_KEYS + ("op_report",))
        assert payload["certificate"]["op_report"] is None


class TestRieszCommand:
    def test_frame_bounds(self, frame_file, tmp_path):
        out = tmp_path / "r.json"
        assert main(["riesz", str(frame_file), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["riesz_bounds"]["is_basis"] is True

    def test_permutation_flag(self, frame_file):
        assert main(["riesz", str(frame_file), "--permutation", "1,2"]) == 0
        assert main(["riesz", str(frame_file), "--permutation", "2,1"]) == 1

    def test_permutation_on_a_pair_exits_2(self, copies_family_file, tmp_path, capsys):
        # The flag used to be ignored on a pair file, which then exited 0.
        out = tmp_path / "r.json"
        args = ["riesz", str(copies_family_file), "--permutation", "9,9,9", "--json", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: --permutation needs a single-frame file\n"
        assert not out.exists()

    def test_empty_permutation_exits_2(self, frame_file, copies_family_file, tmp_path, capsys):
        # An empty list used to count as no flag: exit 0 with the bounds only.
        out = tmp_path / "r.json"
        assert main(["riesz", str(frame_file), "--permutation", "", "--json", str(out)]) == 2
        assert capsys.readouterr().err == "error: pi must be a permutation of 1..2\n"
        assert not out.exists()
        assert main(["riesz", str(copies_family_file), "--permutation", ""]) == 2
        assert capsys.readouterr().err == "error: --permutation needs a single-frame file\n"

    def test_permutation_at_the_given_frame_rtol(self, tmp_path):
        # A g-Riesz basis only at --frame-rtol 1e-12, not at the default.
        path = tmp_path / "narrow.json"
        save_frame(ill_conditioned_basis(), path)
        for pi, code in (("1,2,3", 0), ("2,1,3", 1)):
            args = ["riesz", str(path), "--permutation", pi, "--frame-rtol", "1e-12"]
            assert main(args) == code

    def test_family_report(self, swapped_family_file, tmp_path):
        out = tmp_path / "r.json"
        code = main(["riesz", str(swapped_family_file), "--json", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["weaving_riesz"]["woven"] is False
        assert payload["equivalence_constants"]["a2"] == pytest.approx(0.0, abs=1e-12)

    def test_non_basis_family_exits_2(self, tmp_path, capsys):
        f = onb_frame(2)
        redundant = GFrame(2, f.blocks + (np.array([[0.5, 0.5]]),))
        other = GFrame(2, f.blocks + (np.array([[0.5, -0.5]]),))
        path = tmp_path / "fat.json"
        save_family(GFrameFamily((redundant, other)), path)
        assert main(["riesz", str(path)]) == 2
        assert "Riesz basis" in capsys.readouterr().err

    @pytest.fixture()
    def sweeps(self, monkeypatch):
        """Count the calls of the private partition sweep."""
        calls = []
        sweep = gweave.riesz._riesz_sweep

        def counted(*args, **kwargs):
            calls.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(gweave.riesz, "_riesz_sweep", counted)
        return calls

    def test_pair_sweeps_once(self, tmp_path, sweeps):
        path = tmp_path / "pair.json"
        save_family(riesz_pair(4, 0), path)
        assert main(["riesz", str(path)]) in (0, 1)
        assert len(sweeps) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_pair_sections_equal_the_library_reports(self, tmp_path, seed):
        # N = 9: 512 partitions, eight blocks of the sweep.
        fam = riesz_pair(9, seed)
        path, out = tmp_path / "pair.json", tmp_path / "r.json"
        save_family(fam, path)
        rep = weaving_riesz_check(fam)
        assert main(["riesz", str(path), "--json", str(out)]) == (0 if rep.woven else 1)
        payload = json.loads(out.read_text())
        assert payload["weaving_riesz"] == report_dict(rep)
        assert payload["equivalence_constants"] == report_dict(equivalence_constants(fam))

    def test_pair_with_non_basis_member_exits_2_without_sweeping(self, tmp_path, capsys, sweeps):
        # Member 2 is a g-frame, but its Riesz bounds 1e-4 and 1 are too far
        # apart for the raised frame_rtol.
        f = onb_frame(2)
        path = tmp_path / "skewed.json"
        save_family(GFrameFamily((f, GFrame(2, (f.blocks[0], 0.01 * f.blocks[1])))), path)
        assert main(["riesz", str(path), "--frame-rtol", "1e-2"]) == 2
        assert "member 2 is not a g-Riesz basis" in capsys.readouterr().err
        assert sweeps == []

    def test_pair_over_budget_exits_5_without_sweeping(self, tmp_path, capsys, sweeps):
        path = tmp_path / "pair.json"
        save_family(riesz_pair(4, 0), path)
        assert main(["riesz", str(path), "--budget", "8"]) == 5
        assert "Riesz weaving check needs 2^4" in capsys.readouterr().err
        assert sweeps == []


class TestGenerateCommand:
    def test_generate_frame_and_analyze(self, tmp_path):
        out = tmp_path / "gen.json"
        code = main([
            "generate", "--kind", "prescribed-spectrum", "--n", "2",
            "--dims", "1,1,1", "--spectrum", "1,4", "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        loaded = load_frame(out)
        assert loaded.ambient_dim == 2

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--kind", "parseval", "--n", "2", "--dims", "1,1",
                "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_family(self, tmp_path):
        out = tmp_path / "fam.json"
        code = main([
            "generate", "--kind", "perturbed", "--n", "2", "--dims", "1,1,1",
            "--noise-scale", "0.01", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        fam = load_family(out)
        assert fam.m == 2

    def test_inconsistent_flags_exit_2(self, tmp_path, capsys):
        code = main([
            "generate", "--kind", "riesz-basis", "--n", "3", "--dims", "1,1",
            "--seed", "0", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "summing" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--dims", "1,x"), "--dims: expected comma-separated integers, got '1,x'"),
            (("--dims", "1,1", "--spectrum", "1,y"),
             "--spectrum: expected comma-separated numbers, got '1,y'"),
            (("--dims", "1,1", "--spectrum", ""), "spectrum must have 2 entries, got 0"),
        ],
        ids=["dims", "spectrum", "spectrum-empty"],
    )
    def test_bad_list_flag_exit_2(self, tmp_path, capsys, flags, message):
        code = main(["generate", "--kind", "prescribed-spectrum", "--n", "2", *flags,
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_empty_spectrum_is_a_given_flag(self, tmp_path, capsys):
        # It used to count as no flag, and a Parseval frame was written.
        out = tmp_path / "x.json"
        code = main(["generate", "--kind", "parseval", "--n", "2", "--dims", "1,1",
                     "--spectrum", "", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: spectrum is only meaningful for prescribed-spectrum\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--kind", "prescribed-spectrum", "--spectrum", "inf,1"),
             "spectrum entries must be finite"),
            (("--kind", "prescribed-spectrum", "--spectrum", "nan,1"),
             "spectrum entries must be finite"),
            (("--kind", "perturbed", "--noise-scale", "inf"), "noise_scale must be finite"),
            (("--kind", "perturbed", "--noise-scale", "nan"), "noise_scale must be finite"),
        ],
        ids=["spectrum-inf", "spectrum-nan", "noise-inf", "noise-nan"],
    )
    def test_non_finite_scalars_exit_2(self, tmp_path, capsys, flags, message):
        # inf used to exit 3 from a numpy warning in generate; nan exited 2
        # only when save rejected the non-finite entries it produced.
        out = tmp_path / "x.json"
        code = main(["generate", "--n", "2", "--dims", "1,1", *flags, "--out", str(out)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestExitTable:
    def test_every_report_status_has_its_code(self):
        # A status missing from the table would raise KeyError, a traceback
        # with exit 1 ("not woven").  Every string assigned to a ``status``
        # in the modules that make reports must be a key, and no other.
        made = set()
        for module in (gweave.weaving, gweave.perturb, gweave.cli):
            for node in ast.walk(ast.parse(inspect.getsource(module))):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "status" for t in node.targets
                ):
                    made |= {
                        c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)
                    }
        assert made == set(_EXIT_CODES)
        assert _EXIT_CODES == {
            "woven": 0, "valid": 0, "feasible": 0,
            "not-woven": 1,
            "sampled-no-counterexample": 4, "not-falsified": 4,
            "hypothesis-fails": 6, "lambda-below-gap": 6, "falsified": 6, "infeasible": 6,
        }


class TestModuleEntryPoint:
    def test_version(self):
        # ``python -m gweave.cli`` runs the same main as the console script.
        src = str(Path(gweave.cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-m", "gweave.cli", "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, f"gweave {__version__}\n", "")


class TestOneParserPerProcess:
    """``main`` reuses one parser; no call may see another's arguments."""

    def test_import_builds_no_parser(self):
        src = str(Path(gweave.cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = "import gweave.cli; print(gweave.cli.build_parser.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (0, "0\n")

    def test_one_parser_serves_every_call(self, frame_file):
        assert main(["analyze", str(frame_file)]) == 0
        assert gweave.cli.build_parser() is gweave.cli.build_parser()

    def test_defaults_after_a_sampled_call(self, swapped_family_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["weave", str(swapped_family_file), "--mode", "sampled", "--seed", "7",
                     "--budget", "64", "--json", str(a)]) == 1
        assert main(["weave", str(swapped_family_file), "--json", str(b)]) == 1
        first, second = (json.loads(path.read_text()) for path in (a, b))
        assert first["report"]["mode"] == "sampled"
        assert (first["tool"]["seed"], first["tool"]["budget"]) == (7, 64)
        assert second["report"]["mode"] == "exhaustive"
        assert second["report"]["seed"] is None
        assert "seed" not in second["tool"]
        assert second["tool"]["budget"] == DEFAULT_BUDGET

    def test_valid_call_after_a_usage_error(self, frame_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["weave", str(frame_file), "--mode", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gweave weave ")
        assert "invalid choice: 'bogus'" in err
        assert main(["analyze", str(frame_file)]) == 0
        out, err = capsys.readouterr()
        assert "frame_bounds:" in out and err == ""

    def test_valid_call_after_version(self, frame_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"gweave {__version__}\n"
        assert main(["analyze", str(frame_file)]) == 0
        assert "frame_bounds:" in capsys.readouterr().out

    def test_budget_env_read_per_call(self, swapped_family_file, tmp_path, monkeypatch):
        reports = []
        for budget in ("8", "100"):
            monkeypatch.setenv("GWEAVE_BUDGET", budget)
            out = tmp_path / f"{budget}.json"
            assert main(["weave", str(swapped_family_file), "--json", str(out)]) == 1
            reports.append(json.loads(out.read_text())["tool"]["budget"])
        assert reports == [8, 100]


class TestNumericFailureExit:
    def test_linalg_error_maps_to_exit_3(self, frame_file, monkeypatch, capsys):
        import gweave.cli as cli_mod

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(cli_mod, "frame_bounds", boom)
        assert main(["analyze", str(frame_file)]) == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "F"],
            ["riesz", "F"],
            ["riesz", "PAIR"],
            ["riesz", "F", "--permutation", "2,1"],
            ["weave", "PAIR"],
            ["weave", "PAIR", "--mode", "sampled"],
            ["certify", "PAIR", "--theorem", "k"],
        ],
    )
    def test_overflowing_squares_exit_3(self, tmp_path, capsys, argv):
        # Finite entries of 1e200 square past float64: each command used
        # to raise OverflowError or TypeError, or report NaN bounds as
        # feasible.
        paths = {"F": tmp_path / "f.json", "PAIR": tmp_path / "pair.json"}
        save_frame(onb_frame(2), paths["F"])
        save_family(GFrameFamily((onb_frame(2), onb_frame(2))), paths["PAIR"])
        for path in paths.values():
            # Every float in these files is a matrix entry.
            scaled = json.loads(path.read_text(), parse_float=lambda x: 1e200 * float(x))
            path.write_text(json.dumps(scaled))
        out = tmp_path / "out.json"
        command, target, *flags = argv
        assert main([command, str(paths[target]), "--json", str(out), *flags]) == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not out.exists()

