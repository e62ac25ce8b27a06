import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel_jacobi import cli, domains, serialize, verify
from siegel_jacobi.cli import main
from siegel_jacobi.domains import JacobiBallPoint, sample_point
from siegel_jacobi.errors import GeometryError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_point(tmp_path, pt, name="pt.json"):
    path = tmp_path / name
    path.write_text(serialize.dumps(serialize.point_to_json(pt)))
    return str(path)


class TestEval:
    def test_det_at_origin(self, capsys):
        code, out = run_cli(
            capsys, "eval", "det", "--n", "1", "--k", "2", "--mu", "1", "--point", "origin"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {"closed_form": 1.0, "constant_C": 1.0, "value": 1.0}

    def test_curvature_constant(self, capsys):
        code, out = run_cli(
            capsys, "eval", "curvature", "--n", "2", "--k", "2", "--mu", "1",
            "--point", "origin",
        )
        assert code == 0
        assert json.loads(out)["scalar_curvature"] == -12.0

    def test_potential_matches_library(self, capsys, tmp_path, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        path = write_point(tmp_path, pt)
        code, out = run_cli(
            capsys, "eval", "potential", "--n", "2", "--k", "3", "--mu", "1.5",
            "--point", path,
        )
        assert code == 0
        from siegel_jacobi.metric import MetricParams, kahler_potential

        assert json.loads(out)["value"] == kahler_potential(
            MetricParams(n=2, k=3, mu=1.5), pt
        )

    def test_kernel_two_point(self, capsys, tmp_path, rng):
        p1 = sample_point("jacobi_ball", 1, rng)
        p2 = sample_point("jacobi_ball", 1, rng)
        code, out = run_cli(
            capsys, "eval", "kernel", "--n", "1", "--k", "4", "--mu", "1",
            "--point", write_point(tmp_path, p1, "a.json"),
            "--point2", write_point(tmp_path, p2, "b.json"),
        )
        assert code == 0
        data = json.loads(out)
        assert 0 < data["berezin"] < 1
        assert data["diastasis"] > 0
        assert abs(data["epsilon"] - 1) < 1e-10

    def test_kernel_diagonal_default(self, capsys):
        code, out = run_cli(
            capsys, "eval", "kernel", "--n", "1", "--k", "4", "--mu", "1",
            "--point", "origin",
        )
        data = json.loads(out)
        # printed as 0.0, not -0.0, which also compares equal to 0.0
        assert data["berezin"] == 1.0 and '"diastasis":0.0' in out

    def test_kernel_non_positive_lambda_is_null(self, capsys):
        # at n = 2, k = 4.5 the i = 1 factor of Lambda_n is negative
        code, out = run_cli(
            capsys, "eval", "kernel", "--n", "2", "--k", "4.5", "--mu", "1",
            "--point", "origin",
        )
        assert code == 0
        data = json.loads(out)
        assert data["Lambda_n"] is None
        assert data["K"] == [1.0, 0.0]

    @pytest.mark.parametrize("point2", [False, True])
    def test_kernel_prints_exactly_its_nine_keys(self, capsys, tmp_path, rng, point2):
        extra = ("--point2", write_point(tmp_path, sample_point("jacobi_ball", 2, rng)))
        code, out = run_cli(
            capsys, "eval", "kernel", "--n", "2", "--k", "6", "--point", "origin",
            *(extra if point2 else ()),
        )
        assert code == 0
        assert set(json.loads(out)) == {
            "F", "K", "kappa", "berezin", "diastasis", "epsilon",
            "Q_ball", "Q_jacobi", "Lambda_n",
        }

    def test_laplacian_lng(self, capsys):
        code, out = run_cli(
            capsys, "eval", "laplacian", "--n", "1", "--k", "2", "--mu", "1",
            "--point", "origin", "--field", "lnG",
        )
        assert code == 0
        val = serialize.decode_complex(json.loads(out)["value"])
        assert val.real == pytest.approx(3.0, rel=1e-5)

    @pytest.mark.parametrize("field", ["const", "lnG", "trWWbar", "normz2", "re_poly(3)"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_laplacian_stacked_field_matches_per_point(self, capsys, tmp_path, n, field):
        # the CLI evaluates every built-in field stacked; the printed value
        # is the per-line loop Laplacian to the last bit
        from fd_reference import loop_laplacian
        from siegel_jacobi.laplacian import builtin_field, laplacian_coefficients
        from siegel_jacobi.metric import MetricParams

        pt = sample_point("jacobi_ball", n, np.random.default_rng(n))
        code, out = run_cli(
            capsys, "eval", "laplacian", "--n", str(n), "--k", "4", "--mu", "1",
            "--point", write_point(tmp_path, pt), "--field", field,
        )
        assert code == 0
        params = MetricParams(n=n, k=4.0, mu=1.0)
        f = builtin_field(field, "jacobi_ball", params)
        C = laplacian_coefficients("jacobi_ball", params, pt).matrix
        val = loop_laplacian(f, pt, C)
        assert json.loads(out) == {"field": field, "value": serialize.encode(val)}

    def test_ball_point_file_validated_once(self, capsys, tmp_path, rng, monkeypatch):
        # a {n, W} file is validated as it is read, not again as (0, W): one
        # eigendecomposition, the margin check
        path = write_point(tmp_path, sample_point("ball", 2, rng))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(1) or eigvalsh(*a))
        code, _ = run_cli(capsys, "eval", "det", "--n", "2", "--point", path)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("quantity", ["det", "kernel", "metric"])
    @pytest.mark.parametrize("domain", ["ball", "jacobi_ball"])
    def test_point_file_forms_n_once(self, capsys, tmp_path, rng, monkeypatch, domain, quantity):
        # the (0, W) point over a {n, W} file shares the validated point's
        # store, so N is formed once, for the margin check, as for {n, z, W}
        path = write_point(tmp_path, sample_point(domain, 3, rng))
        calls = []
        cross_gram = domains.cross_gram
        monkeypatch.setattr(domains, "cross_gram", lambda W: calls.append(1) or cross_gram(W))
        code, _ = run_cli(capsys, "eval", quantity, "--n", "3", "--point", path)
        assert (code, len(calls)) == (0, 1)

    def test_metric_blocks_emitted(self, capsys):
        code, out = run_cli(
            capsys, "eval", "metric", "--n", "1", "--k", "2", "--mu", "1",
            "--point", "origin",
        )
        # h once: no copy of its blocks
        assert list(json.loads(out)) == ["h"]

    def test_inverse_blocks_emitted(self, capsys):
        code, out = run_cli(
            capsys, "eval", "inverse", "--n", "1", "--k", "2", "--mu", "1",
            "--point", "origin",
        )
        assert list(json.loads(out)) == ["h_inv"]


class TestTransform:
    def test_cayley_and_back(self, capsys, tmp_path, rng):
        pt = sample_point("jacobi_upper", 2, rng)
        code, out = run_cli(
            capsys, "transform", "cayley", "--point", write_point(tmp_path, pt)
        )
        assert code == 0
        ball = json.loads(out)
        ball_path = tmp_path / "ball.json"
        ball_path.write_text(json.dumps(ball))
        code, out = run_cli(capsys, "transform", "inv-cayley", "--point", str(ball_path))
        assert code == 0
        back = serialize.point_from_json(json.loads(out))
        assert np.max(np.abs(back.V - pt.V)) < 1e-12
        assert np.max(np.abs(back.u - pt.u)) < 1e-12

    def test_fc_and_back(self, capsys, tmp_path, rng):
        pt = sample_point("jacobi_ball", 2, rng)
        code, out = run_cli(capsys, "transform", "fc", "--point", write_point(tmp_path, pt))
        assert code == 0
        data = json.loads(out)
        assert "eta" in data
        fc_path = tmp_path / "fc.json"
        fc_path.write_text(json.dumps(data))
        code, out = run_cli(capsys, "transform", "inv-fc", "--point", str(fc_path))
        back = serialize.point_from_json(json.loads(out))
        assert np.max(np.abs(back.z - pt.z)) < 1e-12

    def test_wrong_model_rejected(self, capsys, tmp_path, rng):
        pt = sample_point("jacobi_ball", 1, rng)
        code, out = run_cli(
            capsys, "transform", "cayley", "--point", write_point(tmp_path, pt)
        )
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "GeometryError"


class TestSample:
    def test_point_deterministic(self, capsys):
        _, out1 = run_cli(capsys, "sample", "point", "--domain", "ball", "--n", "2", "--seed", "9")
        _, out2 = run_cli(capsys, "sample", "point", "--domain", "ball", "--n", "2", "--seed", "9")
        assert out1 == out2

    def test_sampled_point_validates(self, capsys):
        code, out = run_cli(
            capsys, "sample", "point", "--domain", "jacobi_upper", "--n", "2",
            "--seed", "4", "--radius", "0.3",
        )
        assert code == 0
        pt = serialize.point_from_json(json.loads(out))
        assert np.linalg.eigvalsh(pt.R)[0] > 0

    def test_group_element(self, capsys):
        code, out = run_cli(capsys, "sample", "group", "--domain", "jacobi_ball", "--n", "2", "--seed", "3")
        assert code == 0
        h = serialize.element_from_json(json.loads(out))
        assert h.n == 2

    def test_group_element_real(self, capsys):
        code, out = run_cli(capsys, "sample", "group", "--domain", "upper", "--n", "1", "--seed", "3")
        assert code == 0
        assert "lambda_mu" in json.loads(out)


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out = run_cli(
            capsys, "verify", "inverse", "--n", "1", "--k", "4", "--mu", "1",
            "--trials", "3", "--seed", "7",
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        for entry in report["properties"]:
            assert set(entry) == {"property", "trials", "max_error", "tol", "pass", "worst"}

    def test_byte_identical_reports(self, capsys):
        args = ("verify", "kernels", "--n", "1", "--k", "4", "--mu", "1",
                "--trials", "2", "--seed", "11")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_default_weight_passes_parseval(self, capsys):
        # the parseval property is undefined for k <= 3
        code, out = run_cli(capsys, "verify", "parseval", "--n", "1", "--trials", "1")
        assert code == 0
        report = json.loads(out)
        assert report["k"] == 4.0 and report["pass"] is True

    def test_tol_option_is_a_usage_error(self, capsys):
        # each property keeps its registered tolerance; there is no override
        code, out = run_cli(
            capsys, "verify", "inverse", "--n", "1", "--trials", "1",
            "--tol", "inverse_identity=1e-3",
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "UsageError"

    @pytest.mark.parametrize(
        "flag, value, detail",
        [("--trials", "-3", "trials must be >= 0, got -3"), ("--n", "0", "n must be >= 1")],
        ids=["trials=-3", "n=0"],
    )
    def test_error_after_parsing_follows_output(self, capsys, flag, value, detail):
        # an argument that parses but is rejected later writes its error
        # where the report would go: one line on stdout, nothing on stderr
        code = main(["verify", "inverse", "--n", "1", "--trials", "1", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert captured.out == (
            '{"error":{"detail":"' + detail + '","kind":"ValueError"}}\n'
        )

    def test_underflowing_parseval_exit_one(self, capsys):
        # at k = 1e6 the n = 1 norm underflows to 0, and at k = 1e200 scipy
        # forms no Gauss-Jacobi rule: the parseval property reports
        # NotConverged instead of a traceback or a usage error
        for k in ("1e6", "1e200"):
            code, out = run_cli(capsys, "verify", "parseval", "--n", "1", "--k", k, "--trials", "1")
            assert code == 1
            report = json.loads(out, parse_constant=_reject_constant)
            assert report["pass"] is False
            [entry] = report["properties"]
            assert entry["max_error"] is None
            assert entry["worst"]["point"]["error"].startswith("NotConverged")

    def test_negative_trials_rejected(self, capsys):
        code, out = run_cli(capsys, "verify", "metric", "--trials", "-3")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "ValueError"

    def _metric_fd_match_error(self, capsys) -> str:
        # at mu = 1e308 h leaves the float range: a check that raises there is
        # a failed trial (exit 1), not a usage error (exit 2)
        code = main(["verify", "metric", "--n", "2", "--k", "4", "--mu", "1e308",
                     "--trials", "2", "--seed", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        report = json.loads(captured.out, parse_constant=_reject_constant)
        entry = {e["property"]: e for e in report["properties"]}["metric_fd_match"]
        assert entry["max_error"] is None
        return entry["worst"]["point"]["error"]

    def test_overflowing_metric_fails_its_trial(self, capsys):
        error = self._metric_fd_match_error(capsys)
        assert error.startswith("NumericalOverflow: metric at n=2, k=4.0, mu=1e+308")

    def test_linalg_error_fails_its_trial(self, capsys, monkeypatch):
        def metric_blocks(params, pt):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(verify, "metric_blocks", metric_blocks)
        assert self._metric_fd_match_error(capsys).startswith("LinAlgError")


_INVERSE_ARGS = ("verify", "inverse", "--n", "1", "--k", "4", "--trials", "2", "--seed", "7")

_COMMANDS = "(choose from 'eval', 'transform', 'sample', 'verify')"

# argv -> (exit code, error kind or None, the error's detail), recorded from
# the argparse parser that the table parser replaced; every detail names the
# argument at fault
_PARSE_CONTRACT = {
    "eval det --k=4 --point origin": (0, None, None),
    "eval --point origin det": (0, None, None),
    "eval --point origin -- det": (0, None, None),
    "transform fc --poi origin": (0, None, None),  # --point is the one match here
    # a negative number is a value: the library refuses k = -1, the parser does not
    "eval det --k -1 --point origin": (
        2, "ValueError", "weights k and mu must be positive and finite, got k=-1.0, mu=1.0"),
    "eval det --poi origin": (
        2, "UsageError", "ambiguous option: --poi could match --point, --point2"),
    "eval det --point origin --bogus 1": (2, "UsageError", "unrecognized arguments: --bogus 1"),
    "eval det --point": (2, "UsageError", "argument --point: expected one argument"),
    "eval det --n one --point origin": (
        2, "UsageError", "argument --n: invalid int value: 'one'"),
    "eval volume --point origin": (
        2, "UsageError", "argument quantity: invalid choice: 'volume' (choose from 'potential', "
        "'metric', 'inverse', 'det', 'curvature', 'kernel', 'laplacian')"),
    "sample point --domain cube": (
        2, "UsageError", "argument --domain: invalid choice: 'cube' "
        "(choose from 'ball', 'jacobi_ball', 'upper', 'jacobi_upper')"),
    "eval det extra --point origin": (2, "UsageError", "unrecognized arguments: extra"),
    "transform fc": (2, "UsageError", "the following arguments are required: --point"),
    "eval --point origin": (
        2, "UsageError", "the following arguments are required: quantity"),
    "frobnicate": (2, "UsageError", f"argument command: invalid choice: 'frobnicate' {_COMMANDS}"),
    "": (2, "UsageError", "the following arguments are required: command"),
    # an option before the command is unknown, so its value is read as the command
    "--n 1 eval det --point origin": (
        2, "UsageError", f"argument command: invalid choice: '1' {_COMMANDS}"),
    # -1e5 does not look like a negative number to argparse; --k=-1e5 passes it
    "eval det --k -1e5 --point origin": (2, "UsageError", "argument --k: expected one argument"),
    "eval det --point origin --help=x": (
        2, "UsageError", "argument -h/--help: ignored explicit argument 'x'"),
    # argparse read --opt=-- as an empty list (a TypeError traceback); it is the value '--'
    "eval det --point origin --k=--": (
        2, "UsageError", "argument --k: invalid float value: '--'"),
}


class TestParse:
    @pytest.mark.parametrize("argv", list(_PARSE_CONTRACT), ids=lambda argv: argv or "empty")
    def test_parse_contract(self, capsys, argv):
        code, kind, detail = _PARSE_CONTRACT[argv]
        got = main(argv.split())
        captured = capsys.readouterr()
        assert got == code
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        data = json.loads(captured.out)
        if kind is None:
            assert "error" not in data
        else:
            assert data == {"error": {"kind": kind, "detail": detail}}

    @pytest.mark.parametrize("given, spelled", [
        ("eval det --n 1 --n 2 --point origin", "eval det --n 2 --point origin"),
        ("eval laplacian --fd 1e-3 --point origin", "eval laplacian --fd-step 1e-3 --point origin"),
        ("verify inverse --tri 1", "verify inverse --trials 1"),
        ("eval det --k=3 --point=origin", "eval det --k 3 --point origin"),
    ], ids=["last-wins", "fd-prefix", "trials-prefix", "equals"])
    def test_same_values_however_spelled(self, capsys, given, spelled):
        assert run_cli(capsys, *given.split()) == run_cli(capsys, *spelled.split())

    @pytest.mark.parametrize("argv, usage", [
        (["--help"], "sjk eval {potential,"),
        (["-h"], "sjk verify {"),
        (["eval", "-h"], "sjk eval {potential,metric,inverse,det,curvature,kernel,laplacian} "
                         "[--n INT=1] [--k FLOAT=2.0] [--mu FLOAT=1.0] --point STR"),
        (["verify", "all", "--he"], "sjk verify {all,"),
    ], ids=["sjk-help", "sjk-h", "eval-h", "verify-he"])
    def test_help_is_one_json_object(self, capsys, argv, usage):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        data = json.loads(captured.out)
        assert list(data) == ["usage"]
        assert usage in data["usage"]
        # all four commands before a command, one after it
        assert data["usage"].count("\n") == (3 if len(argv) == 1 else 0)

    def test_point_option_ending_in_dashes_is_a_file_name(self, capsys):
        code, out = run_cli(capsys, "eval", "det", "--point=--")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "FileNotFoundError"

    def test_one_call_leaves_no_state_for_the_next(self, capsys, tmp_path, rng):
        point = write_point(tmp_path, sample_point("jacobi_ball", 2, rng))
        sequence = [
            ("eval", "det", "--n", "2", "--k", "3", "--point", point),
            ("transform", "fc", "--point", point),
            ("sample", "group", "--domain", "upper", "--n", "2", "--seed", "7"),
            ("verify", "inverse", "--n", "2", "--k", "1e-300", "--mu", "1e300", "--trials", "1"),
            ("eval", "det", "--n", "one", "--point", "origin"),
            _INVERSE_ARGS,
        ]
        interleaved = []
        for argv in sequence:
            interleaved.append(run_cli(capsys, *argv))
            run_cli(capsys, "eval", "det", "--n", "3", "--k", "5", "--point", "origin")
        in_a_row = [run_cli(capsys, *argv) for argv in sequence]
        assert in_a_row == interleaved
        # state that one call left behind would change a later call
        assert [code for code, _ in in_a_row] == [0, 0, 0, 1, 2, 0]


def _reject_constant(token):
    raise AssertionError(f"{token} is not valid JSON")


_ELEMENT = {"p": [[[1.0, 0.0]]], "q": [[[0.0, 0.0]]], "t": 0.0}


class TestErrors:
    @pytest.mark.parametrize(
        "payload,code,kind",
        [
            ({"n": 1, "z": [[0.1, 0.0]]}, 2, "ValueError"),
            ({"n": 1, "z": 0.5, "W": [[[0.1, 0.0]]]}, 2, "ValueError"),
            ([[0.1, 0.0]], 2, "ValueError"),
            (3, 2, "ValueError"),
            (_ELEMENT, 2, "ValueError"),
            ({"n": 1, "z": [[float("nan"), 0.0]], "W": [[[0.1, 0.0]]]}, 3, "InvalidInput"),
            ({"n": 1, "z": [[0.1, 0.0]], "W": [[[float("inf"), 0.0]]]}, 3, "InvalidInput"),
            ({"n": 2, "z": [[0.1, 0.0, "junk"]], "W": [[[0.1, 0.0, None]]]}, 2, "ValueError"),
            ({"n": 3, "z": [True], "W": [[False]]}, 2, "ValueError"),
            ({"n": 1, "z": [[0.1, 0.0]], "W": [[[0.1, 0.0, 0.0]]]}, 2, "ValueError"),
            ({"n": 2, "z": [[0.1, 0.0]], "W": [[[0.1, 0.0]]]}, 2, "ValueError"),
            ({"n": True, "z": [[0.1, 0.0]], "W": [[[0.1, 0.0]]]}, 2, "ValueError"),
            ({"n": 1, "z": [10**400], "W": [[0]]}, 2, "ValueError"),
        ],
        ids=[
            "missing-W", "scalar-z", "list", "number", "element-missing-alpha", "nan-z", "inf-W",
            "extra-items", "booleans", "extra-item-W", "own-n", "boolean-n", "huge-int",
        ],
    )
    def test_malformed_point_file(self, capsys, tmp_path, payload, code, kind):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        got = main(["eval", "det", "--n", "1", "--k", "2", "--mu", "1", "--point", str(path)])
        captured = capsys.readouterr()
        assert got == code
        assert captured.err == ""
        assert json.loads(captured.out, parse_constant=_reject_constant)["error"]["kind"] == kind

    @pytest.mark.parametrize(
        "payload",
        [{"n": 1, "W": [[[0.1, 0.0]]]}, {"n": 1, "eta": 0.5, "W": [[[0.1, 0.0]]]},
         # an eta of another length than W's size is named, as a point's z is
         {"n": 1, "eta": [0.5, 0.1], "W": [[[0.1, 0.0]]]}],
    )
    def test_malformed_fc_file(self, capsys, tmp_path, payload):
        path = tmp_path / "fc.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "transform", "inv-fc", "--point", str(path))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "ValueError"
        assert "eta" in error["detail"]

    @pytest.mark.parametrize(
        "argv",
        [["eval", "det", "--n", "1", "--point"], ["transform", "inv-fc", "--point"]],
        ids=["point", "fc"],
    )
    def test_deeply_nested_file_exit_two(self, capsys, tmp_path, argv):
        # nesting past the JSON decoder's recursion limit is malformed input
        # (one error object, exit 2), not a RecursionError traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        got = main([*argv, str(path)])
        captured = capsys.readouterr()
        assert got == 2
        assert captured.err == ""
        assert json.loads(captured.out)["error"]["kind"] == "ValueError"

    @pytest.mark.parametrize("argv", [
        ("eval", "det", "--n", "2", "--point"),
        ("eval", "kernel", "--n", "2", "--point", "origin", "--point2"),
        ("transform", "inv-cayley", "--point"),
    ], ids=["point", "point2", "transform"])
    def test_point_file_with_a_bom(self, capsys, tmp_path, rng, argv):
        # JSON is UTF-8, so a file that opens with a UTF-8 BOM reads as the same point
        plain = write_point(tmp_path, sample_point("jacobi_ball", 2, rng))
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "pt.json").read_bytes())
        expected = run_cli(capsys, *argv, plain)
        assert expected[0] == 0
        assert run_cli(capsys, *argv, str(bom)) == expected

    def test_non_ascii_point_file_under_an_ascii_locale(self, tmp_path):
        # the file is read as bytes, so the locale's encoding plays no part
        path = tmp_path / "note.json"
        path.write_bytes('{"n": 1, "z": [[0.1, 0.0]], "W": [[[0.1, 0.0]]], "note": "é"}'.encode())
        env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C",
               "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "siegel_jacobi.cli", "eval", "det", "--point", str(path)],
            env=env, capture_output=True, text=True, check=False,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["value"] > 1.0

    def test_usage_error(self, capsys):
        code, out = run_cli(capsys, "frobnicate")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "UsageError"

    def test_domain_error_exit_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 1, "z": [[0, 0]], "W": [[[1.2, 0.0]]]}))
        code, out = run_cli(
            capsys, "eval", "potential", "--n", "1", "--k", "2", "--mu", "1",
            "--point", str(bad),
        )
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "NotInBall"

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "det", "--point", "origin"),
            ("sample", "point"),
            ("sample", "group"),
            ("transform", "inv-cayley", "--point", "origin"),
            ("verify", "all", "--trials", "1"),
        ],
        ids=["eval", "sample-point", "sample-group", "transform", "verify"],
    )
    def test_size_beyond_memory_exit_three(self, capsys, argv):
        # an n x n float array at n = 1e7 takes 728 TiB, beyond the address
        # space, so its allocation fails at once
        code, out = run_cli(capsys, *argv, "--n", "10000000")
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "MemoryError"

    def test_cayley_image_at_the_boundary_exit_three(self, capsys, tmp_path):
        # a valid upper point whose ball image has margin 3.7e-13 < 1e-10:
        # the image's margin check refuses it as a domain error
        path = tmp_path / "upper.json"
        path.write_text(json.dumps({"n": 1, "V": [[[0.3, 1e-13]]], "u": [[0.1, 0.0]]}))
        code, out = run_cli(capsys, "transform", "cayley", "--n", "1", "--point", str(path))
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "NotInBall"

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("domain", ["jacobi_ball", "upper"])
    def test_sample_group_needs_positive_n(self, capsys, n, domain):
        code = main(["sample", "group", "--domain", domain, "--n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error == {"kind": "ValueError", "detail": "n must be >= 1"}

    def test_volume_group_is_gone(self, capsys):
        # action_jacobian checks the volume laws, in the invariance group
        code, out = run_cli(capsys, "verify", "volume", "--n", "1", "--trials", "1")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "UsageError"

    def test_laplacian_group_is_gone(self, capsys):
        # action_jacobian's isometry law carries the Laplacian's equivariance
        code = main(["verify", "laplacian", "--n", "1", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert json.loads(captured.out)["error"]["kind"] == "UsageError"

    @pytest.mark.parametrize("kind", ["fc", "inv-cayley", "cayley"])
    def test_transform_of_an_empty_point_exit_two(self, capsys, kind):
        # --n 0 builds a 0 x 0 origin, which the point constructors refuse
        code = main(["transform", kind, "--n", "0", "--point", "origin"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert json.loads(captured.out)["error"]["kind"] == "ValueError"

    @pytest.mark.parametrize("step", ["nan", "inf", "0", "-1", "1e-300", "1e-9"])
    def test_invalid_fd_step_exit_two(self, capsys, step):
        code, out = run_cli(
            capsys, "eval", "laplacian", "--n", "1", "--point", "origin", f"--fd-step={step}"
        )
        assert code == 2
        error = json.loads(out, parse_constant=_reject_constant)["error"]
        assert error["kind"] == "ValueError"
        assert "fd_step" in error["detail"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "det", "--n", "1", "--k", "inf", "--point", "origin"),
            ("eval", "det", "--n", "1", "--mu", "inf", "--point", "origin"),
            ("eval", "kernel", "--n", "1", "--k", "nan", "--point", "origin"),
            ("verify", "parseval", "--n", "1", "--k", "4", "--mu", "inf", "--trials", "1"),
        ],
        ids=["eval-k-inf", "eval-mu-inf", "eval-k-nan", "verify-mu-inf"],
    )
    def test_non_finite_weight_exit_two(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        error = json.loads(captured.out, parse_constant=_reject_constant)["error"]
        assert error["kind"] == "ValueError"
        assert "finite" in error["detail"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_det_overflow_exit_three(self, capsys):
        # 2^{n^2} at the origin with k = 4: finite at n = 31, inf at n = 32
        code, out = run_cli(
            capsys, "eval", "det", "--n", "32", "--k", "4", "--point", "origin"
        )
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "NumericalOverflow"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_det_underflow_exit_three(self, capsys):
        # mu^n = 1e-600 underflows: reported, not printed as a determinant of 0.0
        code, out = run_cli(
            capsys, "eval", "det", "--n", "2", "--mu", "1e-300", "--point", "origin"
        )
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "NumericalOverflow"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "quantity, weight",
        [("laplacian", ("--k", "1e-310")), ("inverse", ("--k", "1e-310")),
         ("potential", ("--mu", "1e308")), ("metric", ("--mu", "1e308")),
         ("curvature", ("--mu", "1e308"))],
        ids=["laplacian-k", "inverse-k", "potential-mu", "metric-mu", "curvature-mu"],
    )
    def test_extreme_weight_eval_exit_three(self, capsys, tmp_path, quantity, weight):
        # h^{-1} = C/mu + D/k and h = mu A + (k/2) B leave the float range:
        # a domain error and no numpy warning, not a LinAlgError from the
        # Laplacian's eigenframe (exit 2)
        pt = JacobiBallPoint(z=np.array([3.0, 0.0]), W=np.diag([0.5, 0.3]))
        point = "origin" if quantity in ("laplacian", "inverse") else write_point(tmp_path, pt)
        code = main(["eval", quantity, "--n", "2", *weight, "--point", point])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        assert json.loads(captured.out)["error"]["kind"] == "NumericalOverflow"

    @pytest.mark.parametrize("quantity, weight, what", [
        ("inverse", ("--mu", "1e-310"), "metric inverse"),
        ("curvature", ("--k", "1e-310"), "scalar curvature"),
    ])
    def test_overflow_detail_names_the_quantity(self, capsys, quantity, weight, what):
        # the closed form refuses its own non-finite result, before the JSON
        # encoder's "a result is not a finite float" could
        code = main(["eval", quantity, "--n", "1", *weight, "--point", "origin"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (3, "")
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "NumericalOverflow"
        assert error["detail"].startswith(what + " at n=1, ")

    def test_weight_beyond_half_the_float_range_exit_zero(self, capsys):
        # 2k overflows at k = 1e308; the metric forms only k/2
        code, out = run_cli(capsys, "eval", "metric", "--n", "1", "--k", "1e308", "--point", "origin")
        assert code == 0
        h = json.loads(out, parse_constant=_reject_constant)["h"]
        assert [row[1:] for row in h[1:]] == [[[5e307, 0.0]]]  # the W block

    @pytest.mark.filterwarnings("error")
    def test_nonintegral_weight_exit_zero(self, capsys):
        # 2k = 4.6 is no integer: a valid weight, evaluated with no warning
        code = main(["eval", "det", "--n", "1", "--k", "2.3", "--point", "origin"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out, parse_constant=_reject_constant)["value"] == 1.15

    @pytest.mark.parametrize(
        "n, k, mu",
        [("2", "4", "1e-300"), ("3", "1e-120", "1"), ("1", "1e308", "1"), ("2", "1e200", "1"),
         ("2", "1e-300", "1e300")],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_weights_verify_exit_one(self, capsys, n, k, mu):
        # each failing check is a report entry that names its worst trial:
        # one JSON report, exit 1, and no numpy warning on the way
        code, out = run_cli(
            capsys, "verify", "all", "--n", n, "--k", k, "--mu", mu, "--trials", "1"
        )
        assert code == 1
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["pass"] is False
        assert all(e["worst"] is not None for e in report["properties"] if not e["pass"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n, k, w", [(12, "4", 0.9995), (10, "1000", 0.0), (1, "1000", 0.9)])
    def test_kernel_overflow_exit_three(self, capsys, tmp_path, n, k, w):
        # the volume densities, Lambda_n and K in turn leave the float range
        pt = JacobiBallPoint(z=np.zeros(n), W=w * np.eye(n))
        code, out = run_cli(
            capsys, "eval", "kernel", "--n", str(n), "--k", k, "--point", write_point(tmp_path, pt)
        )
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "NumericalOverflow"

    @pytest.mark.parametrize("lam", [
        # the argument of det(1 - t W Vbar) dips below -pi and comes back:
        # it ends on the principal log
        [0.9j] * 5 + [0.9999 * np.exp(-0.01j)],
        # three aligned factors end it at -3.9757, off the principal log:
        # the continuous branch is still the one K takes
        [0.97 * np.exp(1j * np.arccos(0.97))] * 3,
    ], ids=["n6-principal", "n3-crossing"])
    def test_kernel_branch_of_a_winding_pair(self, capsys, tmp_path, lam):
        # V = diag(sqrt|lam|), W = diag(sqrt|lam| e^{i arg lam}): W Vbar = diag(lam)
        lam = np.array(lam)
        root = np.sqrt(np.abs(lam))
        V, W = (
            write_point(tmp_path, JacobiBallPoint(z=np.zeros(lam.size), W=np.diag(A)), name)
            for A, name in ((root, "V.json"), (lam / root, "W.json"))
        )
        got, out = run_cli(
            capsys, "eval", "kernel", "--n", str(lam.size), "--k", "4", "--point", V, "--point2", W
        )
        assert got == 0
        assert np.isfinite(json.loads(out)["K"]).all()

    @pytest.mark.parametrize("kind", cli._TRANSFORMS)
    def test_transform_size_mismatch_exit_three(self, capsys, tmp_path, rng, kind):
        pt = sample_point("upper" if kind == "cayley" else "jacobi_ball", 2, rng)
        path = write_point(tmp_path, pt)
        if kind == "inv-fc":
            code, out = run_cli(capsys, "transform", "fc", "--n", "2", "--point", path)
            assert code == 0
            (tmp_path / "fc.json").write_text(out)
            path = str(tmp_path / "fc.json")
        code, out = run_cli(capsys, "transform", kind, "--n", "1", "--point", path)
        assert code == 3
        assert json.loads(out)["error"] == {
            "kind": "DimensionMismatch", "detail": "point has n=2, --n is 1"
        }

    def test_point2_dimension_mismatch(self, capsys, tmp_path, rng):
        p2 = sample_point("jacobi_ball", 2, rng)
        code, out = run_cli(
            capsys, "eval", "kernel", "--n", "1", "--k", "4", "--mu", "1",
            "--point", "origin", "--point2", write_point(tmp_path, p2),
        )
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "DimensionMismatch"

    def test_missing_file(self, capsys):
        code, out = run_cli(
            capsys, "eval", "potential", "--n", "1", "--k", "2", "--mu", "1",
            "--point", "/nonexistent/file.json",
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("eval", "det", "--point", "origin"),
        ("transform", "fc", "--point", "origin"),
        ("sample", "point"),
        ("verify", "inverse", "--trials", "1"),
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flag", ["--output", "--format"])
    def test_no_output_or_format_option(self, capsys, tmp_path, argv, flag):
        # every result and error goes to stdout, in one compact layout
        value = {"--output": str(tmp_path / "x.json"), "--format": "pretty"}[flag]
        code = main([*argv, flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out)["error"]["kind"] == "UsageError"
        assert not (tmp_path / "x.json").exists()

    def test_lambda_beyond_the_float_range_named(self, capsys):
        # at k = 1e308 the log of Lambda_n is inf - inf: reported by name,
        # not as a NaN that the JSON encoder refuses
        code, out = run_cli(capsys, "eval", "kernel", "--n", "2", "--k", "1e308", "--point", "origin")
        assert code == 3
        error = json.loads(out)["error"]
        assert error["kind"] == "NumericalOverflow" and "Lambda_n" in error["detail"]


# --------------------------------------------------------------------------
# hostile point files: every generated file is invalid at the --n it is read
# with, so every command that reads it must print one error object and exit
# 2 (malformed input) or 3 (a point outside its domain, or of another size)

_FAULTS = (
    "not_object", "missing_key", "nesting", "junk_entry", "non_finite", "boundary", "size",
    "own_n",
)
_JUNK = st.one_of(
    st.text(alphabet="xyz", min_size=1, max_size=3),
    st.none(),
    st.booleans(),
    st.just({}),
    st.just([0.1]),
    st.just([[0.1, 0.0]]),
    st.just([0.1, 0.0, 0.0]),
    st.just([0.1, True]),
)


def _bad_shape(draw, value, n):
    """value (a wire vector or matrix of n entries per row) reshaped so that
    no decoder or constructor accepts it."""
    if np.ndim(value[0]) == 1:  # a vector of [re, im] entries
        return draw(st.sampled_from([0.5, value + [value[0]], [value]]))
    ragged = [row + [row[0]] if i == 0 else row for i, row in enumerate(value)]
    wide = [row + [row[0]] for row in value]
    deep = [[[entry] for entry in row] for row in value]
    return draw(st.sampled_from([0.5, [0.1] * n, ragged, wide, deep]))


@st.composite
def _hostile_point(draw):
    """(n, JSON text of the file, its one fault)."""
    n = draw(st.integers(1, 3))
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "not_object":
        value = draw(st.one_of(
            st.lists(st.floats(-1, 1), max_size=3), st.floats(-1, 1),
            st.text(alphabet="xyz", max_size=3), st.none(), st.booleans(),
        ))
        return n, json.dumps(value), fault
    if fault == "missing_key":
        # no W and no V: either z without its W, or no point key at all
        keys = draw(st.sets(st.sampled_from(["n", "z", "u", "eta"])))
        return n, json.dumps({key: [[0.1, 0.0]] * n for key in keys}), fault
    kind = draw(st.sampled_from(["ball", "jacobi_ball", "upper", "jacobi_upper"]))
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    if fault == "size":
        other = draw(st.sampled_from([m for m in (1, 2, 3) if m != n]))
        return n, serialize.dumps(serialize.point_to_json(sample_point(kind, other, rng))), fault
    d = serialize.point_to_json(sample_point(kind, n, rng))
    if fault == "own_n":  # the file's own "n" disagrees with its parts
        d["n"] = draw(st.sampled_from([m for m in (0, 1, 2, 3, 4) if m != n] + [True, float(n)]))
        return n, json.dumps(d), fault
    key = draw(st.sampled_from(sorted(set(d) - {"n"})))
    if fault == "boundary":
        r = draw(st.floats(1.0, 3.0))
        if "V" in d:  # Im V = -r + 1 <= 0 in at least one direction
            V = serialize.decode_matrix(d["V"])
            d["V"] = serialize.encode(V.real + 1j * (1.0 - r) * np.eye(n))
        else:
            phase = np.exp(1j * draw(st.floats(0.0, 6.3)))
            d["W"] = serialize.encode(r * phase * np.eye(n))
        return n, json.dumps(d), fault
    if fault == "nesting":
        d[key] = _bad_shape(draw, d[key], n)
        return n, json.dumps(d), fault
    i = draw(st.integers(0, n - 1))
    target = d[key] if np.ndim(d[key][0]) == 1 else d[key][draw(st.integers(0, n - 1))]
    if fault == "junk_entry":
        target[i] = draw(_JUNK)
    else:  # written as the NaN / Infinity literals that json.loads accepts
        target[i][draw(st.integers(0, 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return n, json.dumps(d), fault


_READERS = [("eval", q) for q in cli._EVAL_KINDS] + [("point2",)] + [
    ("transform", kind) for kind in cli._TRANSFORMS
]


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(case=_hostile_point(), reader=st.sampled_from(_READERS))
def test_hostile_point_file_gives_one_error_object(hostile_dir, case, reader):
    n, text, fault = case
    path = hostile_dir / "point.json"
    path.write_text(text)
    if reader[0] == "point2":
        argv = ["eval", "kernel", "--n", str(n), "--point", "origin", "--point2", str(path)]
    else:
        argv = [*reader, "--n", str(n), "--point", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (2, 3), (argv, text)
    if fault == "size" and reader != ("transform", "inv-fc"):  # inv-fc needs an eta key
        assert code == 3, (argv, text)
    if fault == "own_n":
        assert code == 2, (argv, text)
    assert out.getvalue().count("\n") == 1
    assert list(json.loads(out.getvalue(), parse_constant=_reject_constant)) == ["error"]


_GEOMETRY_KINDS = {"GeometryError"} | {c.__name__ for c in GeometryError.__subclasses__()}


def _near_boundary_point(n, margin, rng):
    """A Jacobi-ball point whose N = 1 - W Wbar has smallest eigenvalue
    margin: W is a symmetric Gaussian matrix scaled to spectral norm
    sqrt(1 - margin)."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    W = np.sqrt(1.0 - margin) * (A + A.T) / np.linalg.norm(A + A.T, 2)
    return JacobiBallPoint(z=rng.standard_normal(n) + 1j * rng.standard_normal(n), W=W)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16, 24, 32])
def test_eval_contract_near_the_boundary(tmp_path, n):
    # every eval quantity prints one JSON object: finite numbers with exit
    # 0, or a GeometryError kind with exit 3, never exit 2 or a traceback.
    # metric, inverse and curvature print d x d matrices (d = 560 at n = 32;
    # det assembles the same h at every n) and laplacian evaluates a 1 + 8d
    # point stencil, so both are run at the smaller n only.
    quantities = ["potential", "det", "kernel"]
    quantities += ["metric", "inverse", "curvature"] if n <= 12 else []
    quantities += ["laplacian"] if n <= 3 else []
    rng = np.random.default_rng(n)
    for margin in (0.5, 1e-2, 1e-4, 1e-6):
        path = write_point(tmp_path, _near_boundary_point(n, margin, rng))
        for k, q in itertools.product(("2", "4", "10", "1000"), quantities):
            argv = ["eval", q, "--n", str(n), "--k", k, "--point", path]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert out.getvalue().count("\n") == 1, argv
            data = json.loads(out.getvalue(), parse_constant=_reject_constant)
            if code == 3:
                assert list(data) == ["error"], argv
                assert data["error"]["kind"] in _GEOMETRY_KINDS, (argv, data)
            else:
                assert code == 0, (argv, data)
