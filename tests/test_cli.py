"""End-to-end tests for the JSON config / report front-end."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ggsys
from ggsys.cli import _FIELDS, _OMITTED, main, run
from ggsys.cli import _write as write_report
from ggsys.contour import ContourSpec, euler_segment_integral, hankel_integral, shifted_plane_integral
from ggsys.distributions import gamma_minus_pair, gamma_plus_pair, gg_distribution_pair
from ggsys.errors import DomainError, InvalidInputError
from ggsys.model import build_reduced_system, enumerate_bases, select_base, vector_set
from ggsys.resonance import analyze_vector, decompose_structure
from ggsys.series import SeriesSpec, gg_series_eval, mixed_gamma_series_eval, reduced_series_eval
from ggsys.verify import FamilyRankResult, residual_report

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
    # the perturbation reaches the gg-system checks only
    assert [(c["equation"], c["passed"]) for c in rep["checks"]] == [
        ("derivative-shift", False),
        ("weighted-shift", False),
        ("weighted-forms-agreement", False),
        ("reduced-base", True),
        ("reduced-offbase", True),
    ]


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
    spec = SeriesSpec(build_reduced_system(select_base(A, (1, 2, 3))), (0, 0, 0), 26)
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


def test_integral_task_nonconvergence_exits_one(tmp_path):
    cfg = {
        "task": "integral",
        "omega": [[1], [-1]],
        "integral": {
            "kind": "shifted-plane", "base": [1], "beta": [0.7], "x": [0.3],
            "tolerance": 1e-30, "max_refinements": 2,
        },
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 1
    rep = _report(out)
    assert rep["error"] == "shifted-plane quadrature did not stabilize below 1e-30 in 2 levels"
    assert rep["passed"] is False


def test_unreachable_plane_tolerance_fails_within_the_evaluation_cap(tmp_path):
    # 12 levels from 64 nodes would reach 129,025^2 points; the cap of 2^24
    # evaluations stops the refinement after 4,033^2
    cfg = {
        "task": "integral",
        "omega": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "integral": {
            "kind": "shifted-plane", "base": [1, 2], "branch": [0, 0], "beta": [1.4, 0.4],
            "x": [0.9, 0.2], "tolerance": 1e-17,
        },
    }
    out = tmp_path / "report.json"
    t0 = time.perf_counter()
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 1
    assert time.perf_counter() - t0 < 5.0
    assert _report(out)["error"] == "shifted-plane quadrature did not stabilize below 1e-17 in 16777216 evaluations"


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


def test_resonance_sweep_failure_names_omega(tmp_path):
    # a repeated vector leaves a copy unmatched by the chains of -e1; that
    # candidate is reported with no decomposition and the sweep is no failure
    cfg = {"task": "resonance", "omega": [[1, 0], [0, 1], [1, 0], [1, 1]], "vector": [-1, 0]}
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 0
    results = _report(out)["results"]
    assert results["consistent_count"] == 2
    first, second = results["consistent_vectors"]
    assert (first["decomposition"]["chains"], first["decomposition"]["zero_chain"]) == ([[1, 4], [3]], [2])
    assert second["v"] == [[-1.0, 0.0], [0.0, 0.0]] and second["decomposition"] is None
    assert results["requested_vector"] == second


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


def test_family_without_a_convergence_domain_names_bases(tmp_path):
    cfg = {
        "task": "family",
        "omega": _load_bundled("gauss.json")["omega"],
        "samples": 4,
        "truncation": 16,
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == "bases: no common convergence domain found for the family"


def test_family_at_truncation_zero_names_truncation(tmp_path):
    cfg = {
        "task": "family",
        "omega": _load_bundled("gauss.json")["omega"],
        "bases": [[1, 2, 3], [1, 2, 4]],
        "samples": 4,
        "truncation": 0,
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == "truncation: must be >= 1 for the family task"


def test_eval_without_parameters_exits_2(tmp_path):
    cfg = {"task": "eval", "omega": _load_bundled("gauss.json")["omega"], "beta": [], "x": []}
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == "beta: expected a non-empty array"


def test_run_module_entrypoint():
    # without --out the report goes to stdout alone
    proc = subprocess.run(
        [sys.executable, "-m", "ggsys", "--config", "two-points-lattice.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["results"]["quotient"]["order"] == 2
    assert rep["version"] == ggsys.__version__


def _reads_numbers(reader, path):
    try:
        reader(100, path)
    except InvalidInputError:
        return False
    return True


# every field whose reader takes a plain number
NUMERIC_FIELDS = [
    path
    for path, (reader, _) in _FIELDS.items()
    if reader is not None and _reads_numbers(reader, path)
]


def _config_reading(path):
    """A valid config whose task reads the field at ``path``."""
    if path.startswith("integral."):
        sub = {"kind": "hankel-loop", "beta": 0.5, "x": [0.25]}
        return {"task": "integral", "omega": [[1], [-1]], "integral": sub}
    if path.startswith("distribution."):
        sub = {"ell": [1], "x": [0.3], "phi": {"kind": "poly-exp"}, "fourier": {}}
        return {"task": "distribution", "omega": [[1]], "distribution": sub}
    if path == "sv_threshold":
        omega = _load_bundled("gauss.json")["omega"]
        return {"task": "family", "omega": omega, "bases": [[1, 2, 3]], "samples": 2, "truncation": 12}
    return _load_bundled("gauss.json")


def _set(cfg, path, value):
    *parents, key = path.split(".")
    for name in parents:
        cfg = cfg.setdefault(name, {})
    cfg[key] = value


def test_field_table_base_configs_are_valid(tmp_path):
    out = tmp_path / "report.json"
    for path in ("integral.nodes", "distribution.fourier.x", "sv_threshold", "tolerance"):
        code = main(["--config", _write(tmp_path, _config_reading(path)), "--quiet", "--out", str(out)])
        assert code == 0, _report(out)
    assert {"tolerance", "x_bound", "integral.cutoff", "distribution.fourier.support"} <= set(NUMERIC_FIELDS)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True], ids=["NaN", "Infinity", "true"])
@pytest.mark.parametrize("path", NUMERIC_FIELDS)
def test_numeric_field_rejects_non_finite_and_bool(tmp_path, path, value):
    cfg = _config_reading(path)
    _set(cfg, path, value)
    out = tmp_path / "report.json"
    code = main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)])
    assert code == 2
    assert _report(out)["error"].startswith(f"{path}:")


@pytest.mark.parametrize(
    "where", ["config", "integral", "distribution", "distribution.phi", "distribution.fourier"]
)
def test_unknown_field_in_every_object(tmp_path, where):
    cfg = _config_reading("integral.x" if where == "integral" else "distribution.x")
    target = cfg
    for name in ([] if where == "config" else where.split(".")):
        target = target[name]
    target["bogus"] = 1
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"].startswith(f"{where}: unknown field(s) ['bogus']")


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--seed", "-1"), ("--tolerance", "nan"), ("--tolerance", "-1"), ("--truncation", "-1"),
        ("--truncation", "151"), ("--truncation", "0"),  # past the factorial table; verify needs >= 1
    ],
)
def test_overrides_go_through_the_field_table(tmp_path, flag, value):
    out = tmp_path / "report.json"
    code = main(["--config", "gauss.json", "--quiet", "--out", str(out), flag, value])
    assert code == 2
    assert _report(out)["error"].startswith(flag[2:] + ":")


@pytest.mark.parametrize("value", [float("nan"), 10**400], ids=["NaN", "past-float-range"])
def test_non_finite_late_in_omega_exits_2(tmp_path, value):
    cfg = _load_bundled("gauss.json")
    cfg["omega"][3][2] = value
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"].startswith("omega[3][2]:")


@pytest.mark.parametrize("task", ["eval", "verify"])
def test_twist_of_the_wrong_length_names_k(tmp_path, task):
    cfg = _load_bundled("gauss.json")
    cfg["k"] = [1, 0]
    if task == "eval":
        cfg.update(task="eval", beta=[[0.1, 0.2, 0.3]], x=[[0.1]])
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == "k: expected 3 entries, got 2"


def _eval_config(**fields):
    cfg = _load_bundled("gauss.json")
    cfg.update(task="eval", beta=[[0.1, 0.2, 0.3]], x=[[0.1]])
    cfg.update(fields)
    return cfg


@pytest.mark.parametrize(
    "cfg, path, value",
    [
        (_config_reading("sv_threshold"), "truncation", 151),
        (_eval_config(), "truncation", 151),
        (_config_reading("distribution.x"), "distribution.m_truncation", 151),
        (_config_reading("distribution.x"), "distribution.r_truncation", 200),
    ],
    ids=["family", "eval", "m_truncation", "r_truncation"],
)
def test_truncation_past_the_factorial_table_names_its_field(tmp_path, cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    _set(cfg, path, value)
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # rejected before any sum overflows
        assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == f"{path}: must be <= 150"


def test_eval_fails_closed_on_an_unsettled_series(tmp_path):
    cfg = {"task": "eval", "omega": [[1], [2]], "base": [1], "beta": [[0.3]], "x": [[5]], "truncation": 10}
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 1
    rep = _report(out)
    assert [(c["equation"], c["passed"]) for c in rep["checks"]] == [("series-tail", False)]
    assert rep["passed"] is False

    settled = _eval_config(truncation=30)
    assert main(["--config", _write(tmp_path, settled), "--quiet", "--out", str(out)]) == 0
    check = _report(out)["checks"][0]
    assert check["equation"] == "series-tail" and check["max_rel_residual"] < 1e-20


_MIXED = {
    "task": "eval", "omega": [[1, 0], [0, 1], [-1, -2]], "base": [1, 2], "mode": "mixed",
    "partition": [[1], [2]], "truncation": 10, "beta": [[0.3, 0.7]], "x": [[0.2]],
}
_RESONANCE = {"task": "resonance", "omega": [[1, 0.3], [0.6, -0.8], [-0.4, -1.1]]}
_INTEGRAL = _config_reading("integral.x")  # a hankel-loop on omega [[1], [-1]]
_PLANE = {"kind": "shifted-plane", "beta": [0.5], "x": [0.25], "base": [1]}
_DEPENDENT = {"omega": [[1, 0], [2, 0], [0, 1]]}  # vectors 1 and 2 are no base


@pytest.mark.parametrize(
    "cfg, error",
    [
        (_eval_config(beta=[[0.1, 0.2, "q"]]), "beta[0][2]: expected a number or an [re, im] pair"),
        (_eval_config(beta=[[0.1, 0.2, 0.3]] * 2, x=[[0.1], [0.1, 0.2]]), "x[1]: expected 1 entries, got 2"),
        (_MIXED | {"partition": [[1], [5]]}, "partition[1][0]: must be <= 3"),
        (_config_reading("sv_threshold") | {"bases": [[1, 2, 3], [9, 2, 4]]}, "bases[1][0]: must be <= 4"),
        (_RESONANCE | {"vector": [0.4]}, "vector: expected 2 entries, got 1"),
        (
            {"task": "distribution", "omega": [[1]], "distribution": {"ell": [1], "x": [0.3, 0.1]}},
            "distribution.x: expected 1 entries, got 2",
        ),
        (_INTEGRAL | {"integral": _PLANE | {"branch": [0, 1]}}, "integral.branch: expected 1 entries, got 2"),
        (_INTEGRAL | {"integral": _INTEGRAL["integral"] | {"base": 5}}, "integral.base: must be <= 2"),
        # library errors mapped to a field; the lattice, integral and family-domain
        # mappings have tests of their own below
        ({"task": "bases", "omega": [[1, 0], [2, 0]]}, "omega: vectors do not span the ambient space"),
        (_DEPENDENT | {"task": "reduce", "base": [1, 2]}, "base: vectors (1, 2) are linearly dependent"),
        (_eval_config(partition=[[1], [2, 3]]), "partition: partition goes with mixed mode only"),
        (_DEPENDENT | {"task": "family", "bases": [[1, 2]]}, "bases: vectors (1, 2) are linearly dependent"),
        # a point's domain error names the point's argument, and a pole (a kind of domain error) its beta
        (
            {"task": "eval", "omega": [[1, 0], [0, 1], [1, 1]], "base": [1, 2], "mode": "full",
             "beta": [[0.3, 0.4]], "a": [[0, 1, 0.2]]},
            "a[0]: arguments at the base positions must be nonzero",
        ),
        (
            _MIXED | {"omega": [[1, 0], [0, 1], [-1, -1]], "beta": [[0, 0.3]], "truncation": 5},
            "beta[0]: gamma factor hits a pole inside the truncation range",
        ),
        # the config as a whole; a string is a --config path that does not exist
        (_eval_config(base=[1, 1, 3]), "base: labels must be distinct"),
        ({"task": "bases", "omega": [[1, 0, 0], [0, 1], [0, 0, 1]]}, "omega: rows have inconsistent lengths"),
        ({"task": "bases", "omega": [[1, 0], [0, 1], [1, 1]], "N": 4}, "N: declared 4, but omega has 3 rows"),
        ({"task": "reduce", "omega": [[1, 0], [0, 1], [1, 1]]}, "base: the reduce task needs an explicit base"),
        (_eval_config(x=[[0.1], [0.2]]), "x: expected one entry per beta (1), got 2"),
        ("no-such-dir/missing.json", "--config: no such file: no-such-dir/missing.json"),
        ([_eval_config()], "--config: top level must be a JSON object"),
    ],
    ids=[
        "beta", "x", "partition", "bases", "vector", "distribution.x", "integral.branch", "hankel-base",
        "vector-set", "select-base", "series-spec", "candidate-family", "eval-argument", "eval-pole",
        "repeated-base", "ragged-omega", "declared-N", "reduce-without-base", "x-past-beta", "missing-config",
        "top-level-array",
    ],
)
def test_bad_entry_is_named_by_its_path(tmp_path, cfg, error):
    out = tmp_path / "report.json"
    path = cfg if isinstance(cfg, str) else _write(tmp_path, cfg)
    assert main(["--config", path, "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == error


@pytest.mark.parametrize(
    "cfg, error",
    [
        (_MIXED | {"partition": [[1], [3]]}, "partition: partition must split the base labels"),
        ({k: v for k, v in _MIXED.items() if k != "partition"}, "partition: partition goes with mixed mode only"),
    ],
    ids=["off-base-label", "missing"],
)
def test_a_mixed_partition_error_names_partition(tmp_path, cfg, error):
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == error


def test_a_resonance_sweep_refusal_names_omega(tmp_path, monkeypatch):
    def refuse(A):
        raise DomainError("chain tops overlap; direction is not consistent")

    monkeypatch.setattr(ggsys.cli, "candidate_consistent_vectors", refuse)
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, _RESONANCE), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == "omega: chain tops overlap; direction is not consistent"


def test_mixed_eval_overflow_exits_1_with_its_cause(tmp_path, capsys):
    # the numerator factor Gamma(180.3 - m) is past the double range
    cfg = _MIXED | {"beta": [[-180.3, 0.7]]}
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 1
    assert _report(out)["error"] == "gamma factor leaves the double range"
    assert capsys.readouterr().err == ""


# x**k overflows in numpy while the table itself stays finite
_X_OVERFLOW = {
    "task": "eval",
    "omega": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]],
    "base": [1, 2, 3],
    "truncation": 25,
    "beta": [[0.3, 0.4, 0.5]],
    "x": [[1e200]],
}


def test_floating_point_events_go_into_the_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, _X_OVERFLOW), "--quiet", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    events = _report(out)["numeric_events"]
    assert any("overflow" in e for e in events)  # the class of the event, not numpy's wording
    assert events == sorted(set(events))
    assert all("invalid value" in e or "overflow" in e for e in events)
    assert main(["--config", "gauss.json", "--quiet", "--out", str(out)]) == 0
    assert "numeric_events" not in _report(out)


def test_every_field_but_the_kind_dependent_two_has_a_reader():
    unread = [path for path, (reader, _) in _FIELDS.items() if reader is None]
    assert unread == ["integral.base", "integral.beta"]


def test_overflow_report_is_strict_json(tmp_path):
    out = tmp_path / "report.json"
    with np.errstate(all="ignore"):
        code = main(["--config", _write(tmp_path, _X_OVERFLOW), "--quiet", "--out", str(out)])
    assert code == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    rep = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)
    assert rep["passed"] is False
    unsettled = [c for c in rep["checks"] if c["max_rel_residual"] is None]
    assert unsettled
    assert all(c["passed"] is False for c in unsettled)


@pytest.mark.parametrize(
    "cfg",
    [
        _load_bundled("gauss.json"),
        _X_OVERFLOW | {"x": [[0.1]]},
        {"task": "family", "omega": _X_OVERFLOW["omega"], "bases": [[1, 2, 3], [1, 2, 4]], "samples": 3},
    ],
    ids=["verify", "eval", "family"],
)
def test_a_table_past_the_double_range_fails_by_name(tmp_path, capsys, cfg):
    # products of three reciprocal gammas near 1/Gamma(-100) pass 1e308
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out), "--truncation", "149"]) == 1
    assert _report(out)["error"] == "series coefficient leaves the double range"
    assert capsys.readouterr().err == ""


# a two-dimensional set whose order-25 table would need 13,884,156 terms
_OVER_CAP = {
    "omega": [[1, 0], [0, 1], [-1, -1], [-2, -1], [-1, -2], [-3, -1], [-1, -3], [-2, -3], [-3, -2], [-4, -1]],
    "truncation": 25,
}


@pytest.mark.parametrize(
    "cfg",
    [
        {"task": "verify", "base": [1, 2]},
        {"task": "eval", "base": [1, 2], "beta": [[0.3, 0.4]], "x": [[0.1] * 8]},
        {"task": "family", "bases": [[1, 2]]},
    ],
    ids=["verify", "eval", "family"],
)
def test_term_cap_names_truncation(tmp_path, capsys, cfg):
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, _OVER_CAP | cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == "truncation: needs 13884156 terms, above the 2000000 cap"
    assert capsys.readouterr().err == ""


def test_fourier_overflow_fails_by_name(tmp_path, capsys):
    # the oscillatory integrand exp(x e^(i xi)) overflows at x = 800; under the
    # suite's RuntimeWarning-as-error filter a numpy warning would raise here
    cfg = {
        "task": "distribution",
        "omega": [[1], [-1]],
        "distribution": {"ell": [[1.0]], "x": [0.5], "fourier": {"support": 3.0, "x": 800}},
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 1
    assert _report(out)["error"] == "oscillatory quadrature overflowed (support=3.0, x=(800+0j))"
    assert capsys.readouterr().err == ""


def test_an_overflowing_pairing_fails_by_name(tmp_path, capsys):
    # x^m/m! overflows at x = 1e30, so the outer series sums to NaN
    cfg = {"task": "distribution", "omega": [[1]], "distribution": {"ell": [[1.0]], "x": [1e30]}}
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 1
    report = _report(out)
    assert run(_write(tmp_path, cfg)) == (report, 1)
    assert report["error"] == "outer series is not decaying at the truncation (nan)"
    # the error report keeps the floating-point events that led to the NaN
    assert "overflow encountered in power" in report["numeric_events"]
    assert report["numeric_events"] == sorted(set(report["numeric_events"]))
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [300, 400, 1000])
def test_a_loop_integral_at_large_x_settles_on_its_closed_form(tmp_path, capsys, x):
    # e^(x/t) would pass the double range near |t| = 1/2; the loop stays at |t| >= sqrt(x)
    sub = {"kind": "hankel-loop", "base": 1, "beta": 0.5, "x": [x], "tolerance": 1e-10}
    result = _integral(tmp_path, sub, [[1], [-1]])
    want = 2j * np.pi * x**-0.25 * sp.iv(0.5, 2 * math.sqrt(x))
    assert abs(complex(*result["value"]) - want) <= 1e-10 * abs(want)
    assert capsys.readouterr().err == ""


def test_an_integral_offset_is_an_unknown_field(tmp_path):
    cfg = {"task": "integral", "omega": [[1], [-1]],
           "integral": {"kind": "hankel-loop", "beta": 0.5, "x": [0.25], "offset": 0.5}}
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"].startswith("integral: unknown field(s) ['offset']")


def test_integral_domain_error_names_the_integral(tmp_path):
    cfg = {
        "task": "integral",
        "omega": [[1, 0], [0, 1], [1, 1]],
        "integral": {"kind": "shifted-plane", "base": [1, 2], "beta": [-0.5, 0.5], "x": [0.3]},
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"].startswith("integral: need Re beta_i > 0 at every base position")
    cfg["integral"] |= {"beta": [0.5, 0.5], "x": [0.3, 0.1]}
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == "integral: x must list one value per off-base label"


@pytest.mark.parametrize(
    "cfg",
    [
        {"task": "reduce", "base": [1, 2]},
        {"task": "bases"},
        {"task": "verify", "base": [1, 2], "samples": 3},
    ],
    ids=["reduce", "bases", "verify"],
)
def test_ell_convention_reports_the_omega_report(tmp_path, cfg):
    omega = [[1, 0], [0, 1], [1, 1], [1, -1]]
    ell = [[-1, 0], [0, -1], [-1, -1], [-1, 1]]
    texts, codes = {}, set()
    for convention, rows in (("omega", omega), ("ell", ell)):
        out = tmp_path / f"{convention}.json"
        config = {**cfg, "omega": rows, "shift_convention": convention}
        codes.add(main(["--config", _write(tmp_path, config), "--quiet", "--out", str(out)]))
        texts[convention] = out.read_text(encoding="utf-8").splitlines()
    assert len(codes) == 1  # the verify sums diverge here (exit 1) under both conventions
    differ = [(a, b) for a, b in zip(texts["omega"], texts["ell"]) if a != b]
    assert len(texts["omega"]) == len(texts["ell"])
    assert differ == [('    "shift_convention": "omega"', '    "shift_convention": "ell"')]


@pytest.mark.parametrize(
    "omega, error",
    [
        ([[2000000000], [1]], "base: quotient order 2000000000 is above the 262144 cap"),
        ([[0.5], [1]], "omega: lattice operations need integer vector coordinates"),
        ([[3000000000], [1]], "omega: lattice operations need integer vector coordinates"),
    ],
    ids=["order-2e9", "fraction", "past-int32"],
)
def test_lattice_refusals_name_their_field(tmp_path, omega, error):
    out = tmp_path / "report.json"
    t0 = time.perf_counter()
    cfg = {"task": "lattice", "omega": omega, "base": [1]}
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert _report(out)["error"] == error


def test_eval_far_from_the_real_axis_matches_mpmath(tmp_path):
    # 1/Gamma(1.3 + 250i) is finite, though sin(pi z) of its reflection is not
    cfg = {
        "task": "eval", "omega": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]], "base": [1, 2, 3],
        "truncation": 10, "beta": [[[0.3, 250], [0.2, 0], [0.1, 0]]], "x": [[1e-3]],
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 0
    rep = _report(out)
    assert "numeric_events" not in rep
    with mpmath.workdps(40):
        beta = (mpmath.mpc(0.3, 250), mpmath.mpf("0.2"), mpmath.mpf("0.1"))
        x = mpmath.mpf("1e-3")
        want = complex(mpmath.fsum(
            x**m / mpmath.factorial(m)
            * mpmath.rgamma(beta[0] - m + 1) * mpmath.rgamma(beta[1] - m + 1) * mpmath.rgamma(beta[2] + m + 1)
            for m in range(11)
        ))
    got = complex(*rep["results"]["points"][0]["value"])
    assert abs(got - want) <= 1e-12 * abs(want)


def _integral(tmp_path, sub, omega):
    out = tmp_path / "report.json"
    cfg = {"task": "integral", "omega": omega, "integral": sub}
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 0
    return _report(out)["results"]


def test_euler_segment_through_the_cli_matches_the_library(tmp_path):
    omega = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
    sub = {"kind": "euler-segment", "base": [1, 2], "beta": [-0.5, -0.7], "x": [0.08], "tolerance": 1e-12}
    results = _integral(tmp_path, sub, omega)
    want = euler_segment_integral(vector_set(omega), (1, 2), [-0.5, -0.7], [0.08], ContourSpec(tolerance=1e-12))
    assert complex(*results["value"]) == want.value
    assert results["inputs"] == {"base": [1, 2], "beta": [[-0.5, 0.0], [-0.7, 0.0]]}


def test_a_hankel_beta_may_be_a_one_vector(tmp_path):
    sub = {"kind": "hankel-loop", "beta": 0.3, "x": [0.25]}
    scalar = _integral(tmp_path, sub, [[1], [-1]])
    vector = _integral(tmp_path, sub | {"beta": [0.3]}, [[1], [-1]])
    assert vector == scalar
    assert complex(*scalar["value"]) == hankel_integral(vector_set([[1], [-1]]), 1, 0.3, [0.25], ContourSpec()).value


@pytest.mark.parametrize("adaptive", [True, False])
def test_plane_adaptive_flag_is_read(tmp_path, adaptive):
    sub = {"kind": "shifted-plane", "base": [1], "beta": [0.5], "x": [0.25], "adaptive": adaptive, "tolerance": 1e-6}
    results = _integral(tmp_path, sub, [[1], [-1]])
    want = shifted_plane_integral(
        vector_set([[1], [-1]]), (1,), (0,), [0.5], [0.25], ContourSpec(adaptive=adaptive, tolerance=1e-6)
    )
    assert complex(*results["value"]) == want.value
    assert results["contour"]["adaptive"] is adaptive


@pytest.mark.parametrize("phi, probe, ell, x", [
    ({"kind": "power", "degree": 2}, lambda s: s**2, [1], [0.3]),
    ({"kind": "exponential", "rate": [0.5, 0.0]}, lambda s: np.exp(0.5 * s), [1], [0.3]),
    ({"kind": "constant"}, lambda s: 1.0, [1], [0.3]),
    ({"kind": "poly-exp", "degree": 3, "rate": [-0.4, 0.2]}, lambda s: s**3 * np.exp((-0.4 + 0.2j) * s), [0.7], [-0.2]),
    ({"kind": "constant"}, lambda s: 1.0, [[1.0], [0.37]], [0.3, -0.25]),
    ({"kind": "constant"}, lambda s: 1.0, [[1.0, 0.0], [0.5, 1.0]], [0.3, -0.25]),
], ids=["power", "exponential", "constant", "poly-exp", "constant-q2", "constant-q2-n2"])
def test_distribution_phi_kinds(tmp_path, phi, probe, ell, x):
    # each kind takes a block's points as one array; the plain callable, probed point by point, gives the same bits
    rows = np.atleast_2d(ell).tolist()
    omega = np.eye(len(rows[0]), dtype=int).tolist()
    cfg = {"task": "distribution", "omega": omega, "distribution": {"ell": ell, "x": x, "phi": phi}}
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 0
    results = _report(out)["results"]
    want = gg_distribution_pair(rows, x, probe)
    assert complex(*results["pairing"]["value"]) == want.value
    assert results["pairing"]["tail_estimate"] == want.tail_estimate
    if len(omega) == 1:
        for name, pair in (("gamma_plus", gamma_plus_pair), ("gamma_minus", gamma_minus_pair)):
            assert complex(*results[name]["value"]) == pair(probe).value, name


def test_distribution_phi_past_one_dimension_must_be_constant(tmp_path):
    sub = {"ell": [[1, 0]], "x": [0.3], "phi": {"kind": "power", "degree": 1}}
    cfg = {"task": "distribution", "omega": [[1, 0], [0, 1]], "distribution": sub}
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == "distribution.phi.kind: only 'constant' is available when n > 1"


def test_a_tiny_plane_argument_at_phase_pi_is_taken(tmp_path):
    # x e^(-i pi) = -x has phase exactly pi however small x is
    for x in (1e-12, 1e-13):
        sub = {"kind": "shifted-plane", "base": [1], "beta": [0.5], "x": [x]}
        value = complex(*_integral(tmp_path, sub, [[1], [-1]])["value"])
        want = 2 * x**-0.25 * sp.kv(0.5, 2 * math.sqrt(x)) * np.exp(-0.5j * np.pi)
        assert abs(value - want) <= 1e-12 * abs(want)


def test_a_plane_cutoff_search_that_fails_names_the_integral(tmp_path):
    sub = {"kind": "shifted-plane", "base": [1], "beta": [0.5], "x": [0.25], "cutoff": 0.01}
    cfg = {"task": "integral", "omega": [[1], [-1]], "integral": sub}
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == "integral: integrand does not decay on the truncation boundary"


def test_a_fixed_plane_grid_that_overflows_names_its_level_sum(tmp_path):
    # at x = 0 nothing damps e^(-beta sigma); the fixed grid samples no window, so its level sum overflows
    sub = {"kind": "shifted-plane", "base": [1], "beta": [0.5], "x": [0], "cutoff": 1500, "adaptive": False}
    cfg = {"task": "integral", "omega": [[1], [-1]], "integral": sub}
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 1
    assert _report(out)["error"] == "shifted-plane quadrature level sum is not finite"


# -- the program: `python -m ggsys` from this checkout, case by case -----------------

SRC = Path(__file__).resolve().parents[1] / "src"

G24 = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
       [1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]]


def _g24_bases(rep):
    # G(2,4) has 32 bases; scaled by 1e160 ||M||_F overflows, so base enumeration
    # sends every subset to the SVD rule, and must still find the same 32
    want = [list(base.I) for base in enumerate_bases(vector_set(G24))]
    return rep["results"]["base_count"] == 32 and rep["results"]["bases"] == want


def _loop_at(x):
    # e^(x/t) would leave the double range near |t| = 1/2, but the loop's parabola keeps |t| >= sqrt(x)
    sub = {"kind": "hankel-loop", "base": 1, "beta": 0.5, "x": [x], "tolerance": 1e-10}
    return {"task": "integral", "omega": [[1], [-1]], "integral": sub}


def _is_bessel_loop(x):
    # within 1e-10 of 2 pi i x^(-beta/2) I_beta(2 sqrt x), beta = 1/2
    want = 2j * np.pi * x**-0.25 * sp.iv(0.5, 2 * np.sqrt(x))
    return lambda rep: abs(complex(*rep["results"]["value"]) - want) <= 1e-10 * abs(want)


def _is_bessel_plane(beta, x):
    # within 1e-12 of 2 x^(-beta/2) K_beta(2 sqrt x) e^(-i pi beta), the plane on +-e_1 at branch 0
    want = 2 * x ** (-beta / 2) * sp.kv(beta, 2 * np.sqrt(x)) * np.exp(-1j * np.pi * beta)
    return lambda rep: abs(complex(*rep["results"]["value"]) - want) <= 1e-12 * abs(want)


_PLANE_AT_300 = {"task": "integral", "omega": [[1], [-1]], "integral": {
    "kind": "shifted-plane", "base": [1], "branch": [0], "beta": [0.5], "x": [300], "tolerance": 1e-10}}

# (config name and flags, the config to write there or None for a bundled one, exit code, what the report holds)
PROGRAM_CASES = [
    ("bessel-hankel.json", None, 0, None),
    ("gauss.json", None, 0, None),
    ("gauss-perturbed.json", None, 1, None),
    ("two-points-lattice.json", None, 0, lambda rep: rep["results"]["quotient"]["order"] == 2),
    # an overflowing run names its cause in the report, not on stderr
    ("gauss.json --truncation 149", None, 1, lambda rep: "double range" in rep["error"]),
    ("g24.json", {"task": "bases", "omega": G24}, 0, _g24_bases),
    ("g24-scaled.json", {"task": "bases", "omega": (1e160 * np.array(G24)).tolist()}, 0, _g24_bases),
    # x^m/m! overflows at x = 1e30, so the pairing's outer series must fail closed
    ("pairing-overflow.json", {"task": "distribution", "omega": [[1]], "distribution": {"ell": [[1.0]], "x": [1e30]}}, 1, None),
    *((f"hankel-large-x-{x}.json", _loop_at(x), 0, _is_bessel_loop(x)) for x in (300, 400, 1000)),
    # a value near 1e-16 settles relative to itself, not against an absolute 1e-10
    ("plane-large-x-300.json", _PLANE_AT_300, 0, _is_bessel_plane(0.5, 300.0)),
    # 40 samples of seven 1,771-term tables: the verify checks tabulate them in several blocks
    ("verify-blocks.json", {
        "task": "verify", "omega": [[-1, -2, -1], [0, 1, 0], [1, 0, 0], [-1, -2, 0], [1, -2, -2], [0, 0, 1]],
        "base": [2, 3, 6], "k": [0, -1, -1], "seed": 332, "samples": 40, "truncation": 20,
    }, 0, None),
]


def test_every_bundled_config_is_a_program_case():
    assert {path.name for path in CONFIG_DIR.glob("*.json")} <= {case[0] for case in PROGRAM_CASES}


@pytest.mark.parametrize("argv, cfg, code, holds", PROGRAM_CASES, ids=[case[0] for case in PROGRAM_CASES])
def test_report_layout_and_stdout(tmp_path, argv, cfg, code, holds):
    # the exit code, nothing on stderr, the same text on stdout as in --out, and the
    # layout of json.dumps(sort_keys=True, indent=2, ensure_ascii=False)
    name, *flags = argv.split()
    if cfg is not None:
        name = _write(tmp_path, cfg, name)
    out = tmp_path / "report.json"
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-m", "ggsys", "--config", name, *flags, "--out", str(out)],
        capture_output=True, cwd=tmp_path, encoding="utf-8",
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"},
    )
    assert (proc.returncode, proc.stderr) == (code, "")
    text = out.read_text(encoding="utf-8")
    assert proc.stdout == text
    rep = json.loads(text)
    assert text == json.dumps(rep, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert rep["version"] == ggsys.__version__
    assert holds is None or holds(rep)


@pytest.mark.parametrize("name", sorted(path.name for path in CONFIG_DIR.glob("*.json")))
def test_run_returns_the_parsed_report_and_exit_code(tmp_path, name):
    out = tmp_path / "report.json"
    code = main(["--config", name, "--quiet", "--out", str(out)])
    assert run(name) == (_report(out), code)


# -- the report writer against the two passes it replaced -----------------------


def _plain(obj):
    """The value rules of the writer's predecessor: obj copied into plain JSON values."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (complex, np.complexfloating)):
        return [_plain(float(obj.real)), _plain(float(obj.imag))]
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        omitted = _OMITTED.get(type(obj), ())
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.name not in omitted}
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _dumps(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2, ensure_ascii=False)


_EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e300, math.nan, math.inf, -math.inf]
_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)
_STRINGS = st.text(max_size=8) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028é∑😀", ""])
_ARRAYS = hnp.arrays(
    st.sampled_from([np.bool_, np.int64, np.float64, np.complex128]),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
    elements={"allow_nan": True, "allow_infinity": True},
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**40), 10**40), _FLOATS, _COMPLEX, _STRINGS,
    st.builds(np.bool_, st.booleans()), st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.float64, _FLOATS), st.builds(np.complex128, _COMPLEX), _ARRAYS,
)
_TREES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS | st.integers(-9, 9), inner, max_size=4),
    max_leaves=20,
)


@given(_TREES)
@example({"b": [-0.0, math.nan, (1, 2)], "a": {}, 10: [], 9: np.array([[1 + 2j]])})
@settings(max_examples=300, deadline=None)
def test_writer_matches_the_pair_it_replaced(obj):
    assert write_report(obj) == _dumps(obj)


def test_writer_applies_the_omitted_rule():
    an = analyze_vector(vector_set([(1.0, 0.3), (0.6, -0.8), (-0.4, -1.1)]), [0.4, 1.1])
    dec = decompose_structure(vector_set([(1, 0), (0, 1), (0, 2)]), [0.0, -1.0])
    family = FamilyRankResult(2, (1.5, 0.25), residual_report("family-member-system", [1e-12], [1.0], 1e-8), 0.3)
    for obj, keys in [
        (family, {"rank", "singular_values", "scale_used"}),
        (an, {f.name for f in dataclasses.fields(an)} - {"span_basis"}),
        (dec, {"chains", "zero_chain", "counts"}),
    ]:
        text = write_report(obj)
        assert text == _dumps(obj)
        assert set(json.loads(text)) == keys
    assert json.loads(write_report(dec))["counts"] == [3, 1]
    assert json.loads(write_report(an))["decomposition"]["counts"] == [2, 2]
