"""Tests of the benchmark itself: generator, checker, tracer and output.

Run from the repository root:  python3 -m pytest -q ggbench/tests
"""
from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = gen.make_pool(workload, 5, 2)
    b = gen.make_pool(workload, 5, 2)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    other = gen.make_pool(workload, 6, 2)
    assert json.dumps(a, sort_keys=True) != json.dumps(other, sort_keys=True)
    # a longer pool only appends rounds
    longer = gen.make_pool(workload, 5, 3)
    assert json.dumps(longer[: len(a)], sort_keys=True) == json.dumps(a, sort_keys=True)
    assert gen.make_warmup(workload, 5) != a[: len(gen.ROUNDS[workload])]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_op_records_an_expected_outcome(workload):
    for op in gen.make_pool(workload, 1, 1) + gen.make_warmup(workload, 1):
        assert op["expect"]["exit"] in (0, 1)
        assert op["kind"] in ("cli", "kernel", "mixed")
        assert op["class"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    assert SPEC["command"] == ["python3", "ggbench/run.py"]


def test_integer_sets_have_infinite_radius():
    """The generator's closed-form filter agrees with the library's verdict."""
    from ggsys import build_reduced_system, convergence_condition, select_base, vector_set

    for op in gen.make_pool("verify-int", 3, 2):
        cfg = op["config"]
        if op["class"].startswith("verify"):
            A = vector_set(cfg["omega"])
            verdict = convergence_condition(build_reduced_system(select_base(A, cfg["base"])))
            assert set(verdict.radius_verdict) == {"infinite"}


def test_grassmannian_rows_match_library():
    from ggsys import grassmannian_set

    for p, n in ((2, 4), (3, 5)):
        lib = grassmannian_set(p, n).vectors.omega.real.astype(int).tolist()
        assert lib == gen.grassmannian_rows(p, n)


# -- checker -----------------------------------------------------------------


def _gauss_op_and_report():
    from ggsys import cli

    op = {"kind": "cli", "class": "gauss", "config": copy.deepcopy(gen.GAUSS), "expect": {"exit": 0}}
    report, code = cli.run("gauss.json")
    return op, report, code


def test_checker_accepts_a_good_report():
    op, report, code = _gauss_op_and_report()
    margins = check.check_op(op, code, json.dumps(report))
    assert margins and min(margins) > 0


def test_checker_flags_injected_nan():
    op, report, code = _gauss_op_and_report()
    report["checks"][0]["max_rel_residual"] = float("nan")
    with pytest.raises(check.CheckFailure):
        check.check_op(op, code, json.dumps(report))  # json writes a bare NaN token
    text = json.dumps(report).replace("NaN", "1e999")  # overflows to inf on parse
    with pytest.raises(check.CheckFailure):
        check.check_op(op, code, text)


def test_checker_flags_wrong_exit_code():
    op, report, code = _gauss_op_and_report()
    assert code == 0
    with pytest.raises(check.CheckFailure, match="exit code"):
        check.check_op(op, 1, json.dumps(report))
    with pytest.raises(check.CheckFailure, match="exit code"):
        check.check_op(op, 2, json.dumps(report))


def test_checker_does_not_trust_passed_alone():
    op, report, code = _gauss_op_and_report()
    report["checks"][1]["max_rel_residual"] = 10 * report["checks"][1]["tolerance"]
    with pytest.raises(check.CheckFailure):
        check.check_op(op, code, json.dumps(report))


def test_checker_compares_against_closed_forms():
    op = next(o for o in gen.make_pool("quadrature", 2, 1) if o["class"] == "pair-const-q1")
    value = complex(*op["expect"]["reference"])
    report = {
        "task": "distribution", "passed": True, "checks": [],
        "results": {"pairing": {"value": [value.real * (1 + 1e-6), value.imag], "tail_estimate": 0.0}},
    }
    with pytest.raises(check.CheckFailure, match="closed form"):
        check.check_op(op, 0, json.dumps(report))


def test_series_oracle_matches_library_on_eval_config():
    from ggsys import cli

    op = next(o for o in gen.make_pool("eval-grid", 4, 1) if o["kind"] == "cli")
    path = ROOT / ".ggbench_work" / "test-eval.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(op["config"]), encoding="utf-8")
    try:
        report, code = cli.run(str(path))
    finally:
        path.unlink()
    margins = check.check_op(op, code, json.dumps(cli._jsonify(report)))
    assert margins and min(margins) > 0


# -- tracer ------------------------------------------------------------------


def test_tracer_replaces_every_binding_and_restores_them():
    import ggsys
    import ggsys.contour
    import ggsys.gammafn
    import ggsys.series

    original = ggsys.gammafn.rgamma
    t = tracer.Tracer()
    t.install()
    try:
        for holder in (ggsys, ggsys.gammafn, ggsys.series, ggsys.contour):
            assert holder.rgamma is not original
            assert holder.rgamma.__wrapped__ is original
        ggsys.series.gauss_series_eval(0.5, 0.3, 1.2, 0.25)
    finally:
        t.uninstall()
    assert ggsys.series.rgamma is original and ggsys.rgamma is original
    layers = t.metrics(0)
    assert layers["gammafn.rgamma.calls"]["value"] >= 1
    assert layers["series.eval.calls"]["value"] == 1


# -- end to end --------------------------------------------------------------


def _result_line(capsys) -> dict:
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-2])["conditions"]
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_metric_is_emitted(workload, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    monkeypatch.setitem(run.TRACE_ROUNDS, workload, 1)
    monkeypatch.setitem(run.POOL_ROUNDS, workload, 1)

    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "0"]) == 0
    out = _result_line(capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) and v["value"] != 0 for v in out["metrics"].values())

    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "1"]) == 0
    out = _result_line(capsys)
    assert out["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert out["metrics"]["cli.ops"]["value"] >= 1


def test_reference_scales_use_the_kernel_times_around_each_op():
    ref = reference.REFERENCE_S
    # op 0 ran between two kernel calls at the reference speed, op 1 between
    # one at that speed and one at half of it
    assert reference.scales([ref, ref, 2 * ref]) == pytest.approx([1.0, 2.0 / 3.0])
    assert reference.reference_time() > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "ggbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "ggbench/run.py", "--workload", "verify-int", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
