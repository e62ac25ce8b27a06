import json

import numpy as np
import pytest

from siegel_jacobi import cli, serialize
from siegel_jacobi.cli import build_parser, main
from siegel_jacobi.domains import sample_point


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
        assert data["berezin"] == 1.0 and data["diastasis"] == 0.0

    def test_laplacian_lng(self, capsys):
        code, out = run_cli(
            capsys, "eval", "laplacian", "--n", "1", "--k", "2", "--mu", "1",
            "--point", "origin", "--field", "lnG",
        )
        assert code == 0
        val = serialize.decode_complex(json.loads(out)["value"])
        assert val.real == pytest.approx(3.0, rel=1e-5)

    def test_metric_blocks_emitted(self, capsys):
        code, out = run_cli(
            capsys, "eval", "metric", "--n", "1", "--k", "2", "--mu", "1",
            "--point", "origin",
        )
        data = json.loads(out)
        assert set(data) == {"h1", "h2", "h3", "h4", "h"}

    def test_inverse_blocks_emitted(self, capsys):
        code, out = run_cli(
            capsys, "eval", "inverse", "--n", "1", "--k", "2", "--mu", "1",
            "--point", "origin",
        )
        assert set(json.loads(out)) == {"h1", "h2", "h3", "h4", "h_inv"}


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

    def test_fail_exit_one(self, capsys):
        code, out = run_cli(
            capsys, "verify", "inverse", "--n", "1", "--k", "4", "--mu", "1",
            "--trials", "2", "--seed", "7", "--tol", "inverse_identity=1e-30",
        )
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_byte_identical_reports(self, capsys):
        args = ("verify", "kernels", "--n", "1", "--k", "4", "--mu", "1",
                "--trials", "2", "--seed", "11")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_bad_tol_syntax(self, capsys):
        code, out = run_cli(
            capsys, "verify", "inverse", "--n", "1", "--tol", "oops",
        )
        assert code == 2

    def test_negative_trials_rejected(self, capsys):
        code, out = run_cli(capsys, "verify", "metric", "--trials", "-3")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "ValueError"


_INVERSE_ARGS = ("verify", "inverse", "--n", "1", "--k", "4", "--trials", "2", "--seed", "7")


class TestParserReuse:
    def test_shared_parser_matches_fresh_parser(self, capsys, tmp_path, rng):
        point = write_point(tmp_path, sample_point("jacobi_ball", 2, rng))
        sequence = [
            ("eval", "det", "--n", "2", "--k", "3", "--point", point),
            ("transform", "fc", "--point", point),
            ("sample", "group", "--domain", "upper", "--n", "2", "--seed", "7"),
            (*_INVERSE_ARGS, "--tol", "inverse_identity=1e-30",
             "--tol", "ball_pair_inverse=1e-30"),
            ("eval", "det", "--n", "one", "--point", "origin"),
            _INVERSE_ARGS,
        ]
        fresh = []
        for argv in sequence:
            build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        build_parser.cache_clear()
        shared = [run_cli(capsys, *argv) for argv in sequence]
        assert shared == fresh
        # a --tol list shared across calls would fail the last verify too
        assert [code for code, _ in shared] == [0, 0, 0, 1, 2, 0]

    def test_parser_built_once(self, capsys, monkeypatch):
        run_cli(capsys, "eval", "det", "--point", "origin")
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        for quantity in ("det", "potential", "metric"):
            code, _ = run_cli(capsys, "eval", quantity, "--point", "origin")
            assert code == 0
        assert built == []


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
        ],
        ids=["missing-W", "scalar-z", "list", "number", "element-missing-alpha", "nan-z", "inf-W"],
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
        "payload", [{"n": 1, "W": [[[0.1, 0.0]]]}, {"n": 1, "eta": 0.5, "W": [[[0.1, 0.0]]]}]
    )
    def test_malformed_fc_file(self, capsys, tmp_path, payload):
        path = tmp_path / "fc.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "transform", "inv-fc", "--point", str(path))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "ValueError"

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_det_overflow_exit_three(self, capsys):
        # 2^{n^2} at the origin with k = 4: finite at n = 31, inf at n = 32
        code, out = run_cli(
            capsys, "eval", "det", "--n", "32", "--k", "4", "--point", "origin"
        )
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "NumericalOverflow"

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

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "out.json"
        code, _ = run_cli(
            capsys, "eval", "det", "--n", "1", "--k", "2", "--mu", "1",
            "--point", "origin", "--output", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["value"] == 1.0

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_unwritable_output_file(self, capsys, tmp_path, fmt):
        out_path = tmp_path / "missing" / "out.json"
        code = main(["sample", "point", "--output", str(out_path), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert json.loads(captured.out)["error"]["kind"] == "FileNotFoundError"
        assert not out_path.exists()

    def test_pretty_format(self, capsys):
        code, out = run_cli(
            capsys, "eval", "det", "--n", "1", "--k", "2", "--mu", "1",
            "--point", "origin", "--format", "pretty",
        )
        assert out.startswith("{\n")
