"""Tests of the benchmark itself: seeded inputs, output checks with a
negative control, deterministic trace counts, and the BENCHMARK.json contract.

Run from the checkout root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workload
from calibrate import LOOPS, Speed
from inputs import WORKLOADS, canonical_bytes, make_inputs, write_point_files
from tracer import LAYERS, Tracer
from workloads import WORKLOAD_CLASSES

ROOT = Path(__file__).resolve().parent.parent
COUNT_METRICS = (
    [f"{layer}.calls" for layer in LAYERS]
    + ["metric.aux_calls", "metric.pair_entries", "oracle.fn_evals", "kernels.parseval_calls",
       "domains.validations", "serialize.bytes_out", "verify.trials"]
)


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_are_byte_identical_for_a_seed(name):
    first = canonical_bytes(make_inputs(name, 7))
    assert first == canonical_bytes(make_inputs(name, 7))
    assert first != canonical_bytes(make_inputs(name, 8))


def test_point_files_are_byte_identical_for_a_seed(tmp_path):
    contents = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths = write_point_files(make_inputs("cli_small_n", 3), str(tmp_path / sub))
        contents.append([Path(p).read_bytes() for files in paths.values() for p in files.values()])
    assert contents[0] == contents[1]


@pytest.mark.parametrize("name", ["cli_small_n", "eval_large_n"])
def test_correct_outputs_pass_their_checks(name, tmp_path):
    wl = WORKLOAD_CLASSES[name](5, str(tmp_path))
    _, _, outcomes = workload.run_pass(wl, 0)
    summary = workload._summary(outcomes)
    assert summary["attempted"] == len(wl.requests(0))
    assert summary["failed"] == 0
    assert summary["residual_max"] < 1e-2


def _scale_h4(module, monkeypatch):
    """Negative control: scale the h4 block by 1 + 1e-3, as fuzz_all's
    h4_scale hook does, in the metric_blocks that `module` calls."""
    from siegel_jacobi.metric import MetricEval

    original = module.metric_blocks

    def corrupted(params, pt):
        ev = original(params, pt)
        n = params.n
        h = ev.h.copy()
        h[n:, n:] *= 1.0 + 1e-3
        return MetricEval(h1=ev.h1, h2=ev.h2, h3=ev.h3, h4=h[n:, n:], h=h)

    monkeypatch.setattr(module, "metric_blocks", corrupted)


@pytest.mark.parametrize("name, module", [
    ("eval_large_n", "siegel_jacobi.metric"),
    ("cli_small_n", "siegel_jacobi.cli"),
])
def test_corrupted_metric_is_counted_as_failed(name, module, tmp_path, monkeypatch):
    wl = WORKLOAD_CLASSES[name](5, str(tmp_path))
    _scale_h4(sys.modules[module], monkeypatch)
    requests = wl.requests(0)
    _, _, outcomes = workload.run_pass(wl, 0)
    summary = workload._summary(outcomes)
    assert summary["failed"] > 0
    assert summary["failed"] / summary["attempted"] > 0
    failed_kinds = {req.key[-1] for req, (ok, _) in zip(requests, outcomes) if not ok}
    assert ("metric_inverse" if name == "eval_large_n" else "inverse") in failed_kinds


def test_inverse_check_flags_a_scaled_block():
    from siegel_jacobi import MetricParams, metric_blocks, metric_inverse
    from siegel_jacobi.domains import JacobiBallPoint

    pt = make_inputs("eval_large_n", 1)["cases"][0]["point"]
    params = MetricParams(n=pt["n"], k=4.0, mu=1.0)
    jp = JacobiBallPoint(z=pt["z"], W=pt["W"])
    h = metric_blocks(params, jp).h
    h_inv = metric_inverse(params, jp).h_inv
    assert checks.residuals_ok(checks.check_inverse(h, h_inv))
    bad = h.copy()
    bad[pt["n"]:, pt["n"]:] *= 1.0 + 1e-3
    assert not checks.residuals_ok(checks.check_inverse(bad, h_inv))


def test_speed_scale_uses_the_calibrations_near_a_request():
    speed = Speed("numeric")
    nominal = LOOPS["numeric"][1]
    speed.at, speed.ns = [0.0, 0.2e9, 0.4e9, 5e9], [2e6, 4e6, 6e6, 8e6]
    assert speed.scale(0.2e9, 0.2e9) == nominal / 4e6    # median of all three
    assert speed.scale(4.9e9, 5.0e9) == nominal / 8e6    # only the late one
    assert speed.scale(2.6e9, 2.6e9) == nominal / 6e6    # none in the window: nearest


def test_normalised_latencies_track_the_calibration(tmp_path, monkeypatch):
    wl = WORKLOAD_CLASSES["eval_large_n"](5, str(tmp_path))
    speed = Speed("numeric")
    monkeypatch.setattr(Speed, "scale", lambda self, t0, t1: 2.0)
    latencies, _, outcomes = workload.run_pass(wl, 0, speed=speed)
    assert len(latencies) == len(outcomes) == len(wl.requests(0))
    assert speed.ns                                   # calibrated at least once
    assert all(lat > 0 and lat % 2 == 0 for lat in latencies)  # every time was scaled


def _traced_counts(name, tmp_path, passes):
    wl = WORKLOAD_CLASSES[name](11, str(tmp_path))
    wl.trace_passes = passes
    result = workload.traced_run(wl, str(tmp_path / "spans.jsonl"))
    return {k: result["metrics"][k] for k in COUNT_METRICS}, result


@pytest.mark.parametrize("name, passes", [
    ("cli_small_n", 1), ("eval_large_n", 2), ("fuzz_verify", 1),
])
def test_trace_counts_repeat_exactly(name, passes, tmp_path):
    first, result = _traced_counts(name, tmp_path, passes)
    second, _ = _traced_counts(name, tmp_path, passes)
    assert first == second
    assert result["failed"] == 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_tracer_uninstall_restores_the_package():
    import siegel_jacobi.cli as cli
    import siegel_jacobi.metric as metric
    from siegel_jacobi.domains import JacobiBallPoint

    before = (metric.metric_blocks, cli.metric_blocks, JacobiBallPoint.__post_init__)
    tracer = Tracer()
    tracer.install()
    assert metric.metric_blocks is not before[0]
    assert cli.metric_blocks is metric.metric_blocks
    tracer.uninstall()
    assert (metric.metric_blocks, cli.metric_blocks, JacobiBallPoint.__post_init__) == before


def test_benchmark_json_names_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    _, result = _traced_counts("eval_large_n", tmp_path, 1)
    per_layer = {name: run.per_layer_unit(name) for name in result["metrics"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_run_prints_every_end_to_end_metric_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_large_n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small_n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
