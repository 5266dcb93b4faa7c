"""End-to-end tests for the JSON config / report front-end."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ggsys
from ggsys.cli import _FIELDS, main
from ggsys.errors import InvalidInputError
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


def test_family_without_a_convergence_domain_names_bases(tmp_path):
    cfg = {
        "task": "family",
        "omega": _load_bundled("gauss.json")["omega"],
        "samples": 4,
        "truncation": 16,
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"].startswith("bases: ")


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
    ],
    ids=["beta", "x", "partition", "bases", "vector", "distribution.x", "integral.branch", "hankel-base"],
)
def test_bad_entry_is_named_by_its_path(tmp_path, cfg, error):
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--quiet", "--out", str(out)]) == 2
    assert _report(out)["error"] == error


def test_every_field_but_the_kind_dependent_two_has_a_reader():
    unread = [path for path, (reader, _) in _FIELDS.items() if reader is None]
    assert unread == ["integral.base", "integral.beta"]


def test_overflow_report_is_strict_json(tmp_path):
    out = tmp_path / "report.json"
    with np.errstate(all="ignore"):
        code = main(["--config", "gauss.json", "--quiet", "--out", str(out), "--truncation", "149"])
    assert code == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    rep = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)
    assert rep["passed"] is False
    unsettled = [c for c in rep["checks"] if c["max_rel_residual"] is None]
    assert unsettled
    assert all(c["passed"] is False for c in unsettled)
