"""End-to-end tests for the JSON config / report front-end."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ggsys
from ggsys.cli import main, run
from ggsys.model import build_reduced_system, select_base, vector_set
from ggsys.series import SeriesSpec, gg_series_eval, mixed_gamma_series_eval, reduced_series_eval

CONFIG_DIR = Path(ggsys.__file__).parent / "configs"


def _load_bundled(name):
    return json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _report(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def test_bundled_gauss_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--config", "gauss.json", "--quiet", "--out", str(out)])
    assert code == 0
    rep = _report(out)
    assert rep["passed"] is True
    assert len(rep["checks"]) == 5
    assert all(c["passed"] for c in rep["checks"])
    assert rep["task"] == "verify"
    assert rep["parameters"]["seed"] == 0


def test_bundled_gauss_byte_identical(tmp_path):
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert main(["--config", "gauss.json", "--quiet", "--out", str(first)]) == 0
    assert main(["--config", "gauss.json", "--quiet", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_perturbed_control_fails(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--config", "gauss-perturbed.json", "--quiet", "--out", str(out)])
    assert code == 1
    rep = _report(out)
    assert rep["passed"] is False
    assert any(not c["passed"] for c in rep["checks"])


def test_seed_override_is_echoed(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--config", "gauss.json", "--quiet", "--out", str(out), "--seed", "5"])
    assert code == 0
    assert _report(out)["parameters"]["seed"] == 5


def test_malformed_omega_exits_2(tmp_path):
    cfg = {"task": "bases", "omega": [["oops"]]}
    out = tmp_path / "report.json"
    code = main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)])
    assert code == 2
    assert "omega[0][0]" in _report(out)["error"]


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"task": ', encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["--config", str(path), "--quiet", "--out", str(out)])
    assert code == 2
    assert "line" in _report(out)["error"]


def test_unknown_task_exits_2(tmp_path):
    cfg = {"task": "solve", "omega": [[[1, 0]]]}
    out = tmp_path / "report.json"
    code = main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)])
    assert code == 2
    assert "task" in _report(out)["error"]


def test_unknown_field_exits_2(tmp_path):
    cfg = {"task": "bases", "omega": [[[1, 0]]], "omega": 3}
    out = tmp_path / "report.json"
    code = main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)])
    assert code == 2
    assert "omega" in _report(out)["error"]


def test_missing_config_lists_bundled(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--config", "nope.json", "--quiet", "--out", str(out)])
    assert code == 2
    assert "gauss.json" in _report(out)["error"]


def test_declared_shape_mismatch_exits_2(tmp_path):
    cfg = _load_bundled("gauss.json")
    cfg["n"] = 2
    out = tmp_path / "report.json"
    code = main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)])
    assert code == 2
    assert "n:" in _report(out)["error"]


def test_bases_task_gauss(tmp_path):
    cfg = {"task": "bases", "omega": _load_bundled("gauss.json")["omega"]}
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["results"]["base_count"] == 4
    assert [1, 2, 3] in rep["results"]["bases"]
    assert rep["results"]["reducibility"]["is_reduced"] is True


def test_reduce_task_gauss(tmp_path):
    cfg = {
        "task": "reduce",
        "omega": _load_bundled("gauss.json")["omega"],
        "base": [1, 2, 3],
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["results"]["off_base"] == [4]
    assert rep["results"]["l_coefficients"] == [[[-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]]
    assert rep["results"]["convergence"]["holds"] == [True]


def test_eval_task_matches_library(tmp_path):
    raw = _load_bundled("gauss.json")
    cfg = {
        "task": "eval",
        "omega": raw["omega"],
        "base": [1, 2, 3],
        "truncation": 30,
        "beta": [[[-0.3, 0.0], [0.2, 0.1], [0.4, 0.0]]],
        "x": [[[0.2, 0.05]]],
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 0
    point = _report(out)["results"]["points"][0]

    A = vector_set([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]])
    spec = SeriesSpec(build_reduced_system(select_base(A, (1, 2, 3))), (0, 0, 0), 30)
    expected = reduced_series_eval(spec, [-0.3, 0.2 + 0.1j, 0.4], [0.2 + 0.05j])
    assert complex(*point["value"]) == pytest.approx(expected.value, abs=1e-14)
    assert point["terms_used"] == expected.terms_used


def test_eval_full_mode(tmp_path):
    raw = _load_bundled("gauss.json")
    cfg = {
        "task": "eval",
        "omega": raw["omega"],
        "base": [1, 2, 3],
        "mode": "full",
        "truncation": 26,
        "beta": [[[-0.4, 0.0], [0.3, 0.0], [0.2, 0.0]]],
        "a": [[[1.1, 0.0], [0.9, 0.0], [1.2, 0.0], [0.1, 0.0]]],
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 0
    point = _report(out)["results"]["points"][0]

    A = vector_set([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]])
    spec = SeriesSpec(build_reduced_system(select_base(A, (1, 2, 3))), (0, 0, 0), 26, mode="full")
    expected = gg_series_eval(spec, [-0.4, 0.3, 0.2], [1.1, 0.9, 1.2, 0.1])
    assert complex(*point["value"]) == pytest.approx(expected.value, abs=1e-14)


def test_eval_mixed_mode(tmp_path):
    cfg = {
        "task": "eval",
        "omega": [[1, 0], [0, 1], [-1, -2]],
        "base": [1, 2],
        "mode": "mixed",
        "partition": [[1], [2]],
        "truncation": 10,
        "beta": [[0.3, 0.7]],
        "x": [[0.2]],
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 0
    point = _report(out)["results"]["points"][0]

    A = vector_set([[1, 0], [0, 1], [-1, -2]])
    spec = SeriesSpec(
        build_reduced_system(select_base(A, (1, 2))), (0, 0), 10,
        mode="mixed", partition=((1,), (2,)),
    )
    expected = mixed_gamma_series_eval(spec, [0.3, 0.7], [0.2])
    assert complex(*point["value"]) == expected.value
    assert point["terms_used"] == expected.terms_used


def test_integral_task_bessel_config(tmp_path):
    out = tmp_path / "report.json"
    assert main(["--config", "bessel-hankel.json", "--quiet", "--out", str(out)]) == 0
    rep = _report(out)
    value = complex(*rep["results"]["value"])

    A = vector_set([[1], [-1]])
    spec = SeriesSpec(build_reduced_system(select_base(A, (1,))), (0,), 50)
    series = reduced_series_eval(spec, [0.5], [0.25])
    assert abs(value - 2j * np.pi * series.value) < 1e-8
    assert rep["results"]["nodes_used"] > 0
    assert rep["results"]["contour"]["tolerance"] == 1e-10


def test_lattice_task_order_two(tmp_path):
    out = tmp_path / "report.json"
    assert main(["--config", "two-points-lattice.json", "--quiet", "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["results"]["quotient"]["order"] == 2
    assert rep["results"]["quotient"]["elementary_divisors"] == [2]
    assert len(rep["results"]["quotient"]["representatives"]) == 2


def test_resonance_task_chain_set(tmp_path):
    cfg = {
        "task": "resonance",
        "omega": [
            [[1, 0], [0.3, 0]],
            [[0.6, 0], [-0.8, 0]],
            [[-0.4, 0], [-1.1, 0]],
        ],
        "vector": [[0.4, 0], [1.1, 0]],
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["results"]["consistent_count"] >= 1
    for entry in rep["results"]["consistent_vectors"]:
        assert entry["consistent"] is True
        assert entry["codim"] == 1
    requested = rep["results"]["requested_vector"]
    assert requested["consistent"] is True
    assert requested["decomposition"] is not None


def test_distribution_task_values(tmp_path):
    cfg = {
        "task": "distribution",
        "omega": [[[1, 0]]],
        "distribution": {
            "ell": [1],
            "x": [[0.3, 0]],
            "phi": {"kind": "constant"},
        },
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 0
    rep = _report(out)
    plus = complex(*rep["results"]["gamma_plus"]["value"])
    minus = complex(*rep["results"]["gamma_minus"]["value"])
    pairing = complex(*rep["results"]["pairing"]["value"])
    assert abs(plus - np.exp(-1)) < 1e-12
    assert abs(minus - np.e) < 1e-12
    assert abs(pairing - np.exp(1.3)) < 1e-10


def test_distribution_fourier_pass_and_fail(tmp_path):
    base = {
        "task": "distribution",
        "omega": [[[1, 0]]],
        "distribution": {
            "ell": [1],
            "x": [[0.3, 0]],
            "fourier": {"ell": 1.0, "x": [0.3, 0]},
        },
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, base), "--quiet", "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["checks"][0]["equation"] == "fourier-consistency"
    assert rep["checks"][0]["passed"] is True

    bad = json.loads(json.dumps(base))
    bad["distribution"]["fourier"]["perturbation"] = 0.35
    code = main(["--config", _write(tmp_path, bad, "bad.json"), "--quiet", "--out", str(out)])
    assert code == 1
    assert _report(out)["passed"] is False


def test_family_task_rank_two(tmp_path):
    cfg = {
        "task": "family",
        "omega": _load_bundled("gauss.json")["omega"],
        "bases": [[1, 2, 3], [1, 2, 4]],
        "samples": 8,
        "truncation": 24,
        "tolerance": 1e-8,
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 0
    rep = _report(out)
    assert rep["results"]["rank"] == 2
    assert len(rep["results"]["family"]) == 2
    assert rep["checks"][0]["passed"] is True


def test_run_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "ggsys", "--config", "two-points-lattice.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["results"]["quotient"]["order"] == 2
    assert rep["version"] == ggsys.__version__
