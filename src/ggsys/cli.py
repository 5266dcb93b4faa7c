"""Batch front-end: JSON problem in, JSON report out.

A config names a vector set, a task, and whatever inputs the task needs.
``run`` dispatches to the library and assembles a report that is a pure
function of the config and the seed: keys are sorted, complex numbers are
emitted as [re, im] pairs, and no clock or environment data is recorded,
so identical invocations produce byte-identical output.

Exit codes: 0 every check passed, 1 a check failed or a sum/quadrature did
not settle, 2 the config is invalid (the message names the field).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .contour import ContourSpec, euler_segment_integral, hankel_integral, shifted_plane_integral
from .distributions import (
    TestFunction,
    fourier_consistency_check,
    gamma_minus_pair,
    gamma_plus_pair,
    gg_distribution_pair,
    smooth_bump,
)
from .errors import ConvergenceError, DomainError, InvalidInputError
from .lattice import candidate_family, lattice_quotient, orthogonal_lattice, project_lattice, saturation_index
from .model import (
    VectorSet,
    build_reduced_system,
    enumerate_bases,
    reducibility_check,
    select_base,
    vector_set,
)
from .resonance import analyze_vector, candidate_consistent_vectors
from .series import (
    SeriesSpec,
    convergence_condition,
    gg_series_eval,
    mixed_gamma_series_eval,
    reduced_series,
    reduced_series_eval,
)
from .verify import check_gg_system, check_reduced_system, solution_family_rank

_TASKS = (
    "bases",
    "reduce",
    "eval",
    "verify",
    "lattice",
    "integral",
    "resonance",
    "distribution",
    "family",
)

_TOP_KEYS = {
    "task",
    "omega",
    "n",
    "N",
    "shift_convention",
    "base",
    "k",
    "seed",
    "samples",
    "tolerance",
    "truncation",
    "x_bound",
    "mode",
    "partition",
    "beta",
    "a",
    "x",
    "perturbation",
    "bases",
    "sv_threshold",
    "vector",
    "integral",
    "distribution",
}


def _bad(field: str, message: str) -> InvalidInputError:
    return InvalidInputError(f"{field}: {message}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, field: str) -> complex:
    """A JSON number is real; a two-element number list is [re, im]."""
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(value[0], value[1])
    raise _bad(field, "expected a number or an [re, im] pair")


def _as_complex_vector(value, field: str, length: int | None = None) -> list[complex]:
    if not isinstance(value, list):
        raise _bad(field, "expected an array")
    out = [_as_complex(v, f"{field}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise _bad(field, f"expected {length} entries, got {len(out)}")
    return out


def _as_int(value, field: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise _bad(field, "expected an integer")
    if minimum is not None and value < minimum:
        raise _bad(field, f"must be >= {minimum}")
    return value


def _as_float(value, field: str, positive: bool = False) -> float:
    if not _is_number(value):
        raise _bad(field, "expected a number")
    if positive and value <= 0:
        raise _bad(field, "must be positive")
    return float(value)


def _as_labels(value, field: str, N: int) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise _bad(field, "expected a non-empty array of 1-based labels")
    out = []
    for i, v in enumerate(value):
        label = _as_int(v, f"{field}[{i}]", minimum=1)
        if label > N:
            raise _bad(f"{field}[{i}]", f"label {label} exceeds N={N}")
        out.append(label)
    if len(set(out)) != len(out):
        raise _bad(field, "labels must be distinct")
    return tuple(out)


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise _bad(where, f"unknown field(s) {unknown}; allowed: {sorted(allowed)}")


def _vector_set_from(cfg: dict) -> VectorSet:
    omega = cfg.get("omega")
    if not isinstance(omega, list) or not omega:
        raise _bad("omega", "expected a non-empty array of rows")
    rows = []
    for i, row in enumerate(omega):
        if not isinstance(row, list) or not row:
            raise _bad(f"omega[{i}]", "expected a non-empty array of entries")
        rows.append([_as_complex(v, f"omega[{i}][{j}]") for j, v in enumerate(row)])
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise _bad("omega", "rows have inconsistent lengths")
    convention = cfg.get("shift_convention", "omega")
    if convention not in ("omega", "ell"):
        raise _bad("shift_convention", "expected 'omega' or 'ell'")
    if convention == "ell":
        rows = [[-v for v in row] for row in rows]
    try:
        A = vector_set(rows)
    except (InvalidInputError, DomainError) as exc:
        raise _bad("omega", str(exc))
    if "n" in cfg and _as_int(cfg["n"], "n", minimum=1) != A.n:
        raise _bad("n", f"declared {cfg['n']}, but omega rows have {A.n} entries")
    if "N" in cfg and _as_int(cfg["N"], "N", minimum=1) != A.N:
        raise _bad("N", f"declared {cfg['N']}, but omega has {A.N} rows")
    return A


def _jsonify(obj):
    """Recursively rewrite values into deterministic JSON-ready form."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _check_entry(rep) -> dict:
    return {
        "equation": rep.equation_id,
        "max_abs_residual": rep.max_abs_residual,
        "max_rel_residual": rep.max_rel_residual,
        "sample_points": rep.sample_points,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
    }


def _pairs(matrix) -> list:
    return _jsonify(np.asarray(matrix, dtype=np.complex128))


# ---------------------------------------------------------------------------
# task handlers: (cfg, A, params) -> (results dict, [ResidualReport, ...])
# ---------------------------------------------------------------------------


def _base_or_default(cfg: dict, A: VectorSet):
    if "base" in cfg:
        labels = _as_labels(cfg["base"], "base", A.N)
        try:
            return select_base(A, labels)
        except (InvalidInputError, DomainError) as exc:
            raise _bad("base", str(exc))
    bases = enumerate_bases(A)
    if not bases:
        raise _bad("omega", "the set has no base (vectors do not span)")
    return bases[0]


def _twist_from(cfg: dict, n: int) -> tuple[int, ...]:
    if "k" not in cfg:
        return (0,) * n
    if not isinstance(cfg["k"], list):
        raise _bad("k", "expected an array of integers")
    return tuple(_as_int(v, f"k[{i}]") for i, v in enumerate(cfg["k"]))


def _task_bases(cfg: dict, A: VectorSet, params: dict):
    bases = enumerate_bases(A)
    red = reducibility_check(A)
    results = {
        "bases": [list(b.I) for b in bases],
        "base_count": len(bases),
        "reducibility": {
            "contains_coordinate_subspace": red.contains_coordinate_subspace,
            "inside_proper_coordinate_subspace": red.inside_proper_coordinate_subspace,
            "contains_difference_vector": red.contains_difference_vector,
            "is_reduced": red.is_reduced,
            "set_side": {
                "has_zero_vector": red.set_side.has_zero_vector,
                "has_repeated_vector": red.set_side.has_repeated_vector,
                "has_vector_outside_others_span": red.set_side.has_vector_outside_others_span,
            },
        },
    }
    return results, []


def _task_reduce(cfg: dict, A: VectorSet, params: dict):
    if "base" not in cfg:
        raise _bad("base", "the reduce task needs an explicit base")
    system = build_reduced_system(_base_or_default(cfg, A))
    conv = convergence_condition(system)
    results = {
        "base": list(system.base.I),
        "off_base": list(system.base.J),
        "l_coefficients": _pairs(system.l_coeffs),
        "off_base_coordinates": _pairs(system.off_base_coords),
        "convergence": {
            "holds": list(conv.holds),
            "l_coefficient_sums": list(conv.l_coefficient_sums),
            "base_coordinate_sums": list(conv.base_coordinate_sums),
            "radius_verdict": list(conv.radius_verdict),
        },
    }
    return results, []


def _task_eval(cfg: dict, A: VectorSet, params: dict):
    system = build_reduced_system(_base_or_default(cfg, A))
    k = _twist_from(cfg, A.n)
    mode = cfg.get("mode", "reduced")
    partition = None
    if "partition" in cfg:
        part = cfg["partition"]
        if not isinstance(part, list) or len(part) != 2:
            raise _bad("partition", "expected two arrays of base labels")
        partition = (
            _as_labels(part[0], "partition[0]", A.N),
            _as_labels(part[1], "partition[1]", A.N),
        )
    try:
        spec = SeriesSpec(system, k, params["truncation"], mode=mode, partition=partition)
    except InvalidInputError as exc:
        raise _bad("mode", str(exc))

    if "beta" not in cfg:
        raise _bad("beta", "the eval task needs parameter vectors")
    if not isinstance(cfg["beta"], list):
        raise _bad("beta", "expected an array of parameter vectors")
    betas = [
        _as_complex_vector(v, f"beta[{i}]", A.n) for i, v in enumerate(cfg["beta"])
    ]
    arg_key = "a" if mode == "full" else "x"
    arg_len = A.N if mode == "full" else system.r
    if arg_key not in cfg:
        raise _bad(arg_key, f"the eval task in mode {mode!r} needs {arg_key!r} vectors")
    if not isinstance(cfg[arg_key], list):
        raise _bad(arg_key, "expected an array of argument vectors")
    args = [
        _as_complex_vector(v, f"{arg_key}[{i}]", arg_len)
        for i, v in enumerate(cfg[arg_key])
    ]
    if len(args) != len(betas):
        raise _bad(arg_key, f"expected one entry per beta ({len(betas)}), got {len(args)}")

    points = []
    for beta, arg in zip(betas, args):
        if mode == "full":
            sval = gg_series_eval(spec, beta, arg)
        elif mode == "mixed":
            sval = mixed_gamma_series_eval(spec, beta, arg)
        else:
            sval = reduced_series_eval(spec, beta, arg)
        points.append(
            {
                "beta": _pairs(beta),
                arg_key: _pairs(arg),
                "value": _jsonify(complex(sval.value)),
                "tail_estimate": float(sval.tail_estimate),
                "terms_used": int(sval.terms_used),
            }
        )
    results = {
        "base": list(system.base.I),
        "twist": list(k),
        "mode": mode,
        "truncation": params["truncation"],
        "points": points,
    }
    return results, []


def _task_verify(cfg: dict, A: VectorSet, params: dict):
    system = build_reduced_system(_base_or_default(cfg, A))
    k = _twist_from(cfg, A.n)
    truncation = params["truncation"]
    tolerance = params["tolerance"]
    samples = params["samples"]
    seed = params["seed"]
    x_bound = _as_float(cfg.get("x_bound", 0.3), "x_bound", positive=True)
    eps = complex(0)
    if "perturbation" in cfg:
        eps = _as_complex(cfg["perturbation"], "perturbation")

    full_spec = SeriesSpec(system, k, truncation, mode="full")

    def evaluator(beta, a):
        value = gg_series_eval(full_spec, beta, a).value
        if eps != 0:
            value = value + eps * complex(a[0])
        return value

    system_reps = check_gg_system(
        evaluator, A, samples=samples, seed=seed, tolerance=tolerance,
        base=system.base.I, x_bound=x_bound,
    )

    def factory(beta, truncation_arg):
        spec = SeriesSpec(system, k, truncation_arg, mode="reduced")
        return reduced_series(spec, beta)

    red1_rep, red2_rep = check_reduced_system(
        factory, system, samples=samples, seed=seed + 2, tolerance=tolerance,
        mode="exact", truncation=truncation, x_bound=x_bound,
    )
    results = {
        "base": list(system.base.I),
        "twist": list(k),
        "truncation": truncation,
        "x_bound": x_bound,
        "perturbation": _jsonify(eps),
    }
    return results, [*system_reps, red1_rep, red2_rep]


def _task_lattice(cfg: dict, A: VectorSet, params: dict):
    lat = orthogonal_lattice(A)
    results = {
        "orthogonal_lattice": {
            "rank": lat.rank,
            "basis_rows": [list(r) for r in lat.basis_rows],
        },
        "saturation_index": saturation_index(A),
    }
    if "base" in cfg:
        labels = _as_labels(cfg["base"], "base", A.N)
        proj = project_lattice(lat, labels)
        try:
            quotient = lattice_quotient(lat, labels)
        except InvalidInputError as exc:
            raise _bad("base", str(exc))
        results["base"] = list(labels)
        results["projected_lattice"] = {
            "rank": proj.rank,
            "basis_rows": [list(r) for r in proj.basis_rows],
        }
        results["quotient"] = {
            "elementary_divisors": list(quotient.elementary_divisors),
            "order": quotient.order,
            "representatives": [list(r) for r in quotient.representatives],
        }
    return results, []


_INTEGRAL_KEYS = {
    "kind", "base", "branch", "beta", "x",
    "nodes", "cutoff", "tolerance", "max_refinements", "offset", "adaptive",
}


def _task_integral(cfg: dict, A: VectorSet, params: dict):
    sub = cfg.get("integral")
    if not isinstance(sub, dict):
        raise _bad("integral", "the integral task needs an 'integral' object")
    _check_keys(sub, _INTEGRAL_KEYS, "integral")
    kind = sub.get("kind")
    if kind not in ("hankel-loop", "shifted-plane", "euler-segment"):
        raise _bad("integral.kind", "expected hankel-loop, shifted-plane, or euler-segment")
    spec_kwargs = {"kind": kind}
    if "nodes" in sub:
        spec_kwargs["nodes"] = _as_int(sub["nodes"], "integral.nodes", minimum=16)
    if "cutoff" in sub:
        spec_kwargs["cutoff"] = _as_float(sub["cutoff"], "integral.cutoff", positive=True)
    if "tolerance" in sub:
        spec_kwargs["tolerance"] = _as_float(sub["tolerance"], "integral.tolerance", positive=True)
    if "max_refinements" in sub:
        spec_kwargs["max_refinements"] = _as_int(sub["max_refinements"], "integral.max_refinements", minimum=1)
    if "offset" in sub:
        spec_kwargs["offset"] = _as_float(sub["offset"], "integral.offset", positive=True)
    if "adaptive" in sub:
        if not isinstance(sub["adaptive"], bool):
            raise _bad("integral.adaptive", "expected true or false")
        spec_kwargs["adaptive"] = sub["adaptive"]
    contour = ContourSpec(**spec_kwargs)

    if "x" not in sub:
        raise _bad("integral.x", "missing argument vector")
    x = _as_complex_vector(sub["x"], "integral.x")
    if "beta" not in sub:
        raise _bad("integral.beta", "missing parameter vector")

    if kind == "hankel-loop":
        raw_beta = sub["beta"]
        if isinstance(raw_beta, list) and len(raw_beta) == 1:
            raw_beta = raw_beta[0]  # a 1-vector wraps the scalar
        beta = _as_complex(raw_beta, "integral.beta")
        label = _as_int(sub.get("base", 1), "integral.base", minimum=1)
        value = hankel_integral(A, label, beta, x, contour)
        inputs = {"base": label, "beta": _jsonify(complex(beta))}
    else:
        beta = _as_complex_vector(sub["beta"], "integral.beta", A.n)
        if "base" not in sub:
            raise _bad("integral.base", f"the {kind} integral needs base labels")
        labels = _as_labels(sub["base"], "integral.base", A.N)
        if kind == "shifted-plane":
            branch = [0] * A.n
            if "branch" in sub:
                if not isinstance(sub["branch"], list):
                    raise _bad("integral.branch", "expected an array of integers")
                branch = [
                    _as_int(v, f"integral.branch[{i}]") for i, v in enumerate(sub["branch"])
                ]
                if len(branch) != A.n:
                    raise _bad("integral.branch", f"expected {A.n} entries")
            value = shifted_plane_integral(A, labels, branch, beta, x, contour)
            inputs = {"base": list(labels), "branch": branch, "beta": _pairs(beta)}
        else:
            value = euler_segment_integral(A, labels, beta, x, contour)
            inputs = {"base": list(labels), "beta": _pairs(beta)}

    results = {
        "kind": kind,
        "inputs": inputs,
        "x": _pairs(x),
        "value": _jsonify(complex(value.value)),
        "error_estimate": float(value.error_estimate),
        "nodes_used": int(value.nodes_used),
        "contour": {
            "nodes": contour.nodes,
            "cutoff": contour.cutoff,
            "tolerance": contour.tolerance,
            "max_refinements": contour.max_refinements,
            "offset": contour.offset,
            "adaptive": contour.adaptive,
        },
    }
    return results, []


def _analysis_entry(analysis) -> dict:
    entry = {
        "v": _pairs(analysis.v),
        "consistent": analysis.consistent,
        "a_indices": list(analysis.a_indices),
        "b_indices": list(analysis.b_indices),
        "codim": analysis.codim,
        "normal": None if analysis.normal is None else _pairs(analysis.normal),
        "offset": None if analysis.offset is None else _jsonify(complex(analysis.offset)),
    }
    dec = analysis.decomposition
    entry["decomposition"] = (
        None
        if dec is None
        else {
            "chains": [list(chain) for chain in dec.chains],
            "zero_chain": list(dec.zero_chain),
            "counts": list(dec.counts),
        }
    )
    return entry


def _task_resonance(cfg: dict, A: VectorSet, params: dict):
    candidates = candidate_consistent_vectors(A)
    results = {
        "consistent_vectors": [_analysis_entry(c) for c in candidates],
        "consistent_count": len(candidates),
    }
    if "vector" in cfg:
        v = _as_complex_vector(cfg["vector"], "vector", A.n)
        results["requested_vector"] = _analysis_entry(analyze_vector(A, v))
    return results, []


_DISTRIBUTION_KEYS = {"ell", "x", "phi", "m_truncation", "r_truncation", "fourier"}
_PHI_KEYS = {"kind", "degree", "rate"}
_FOURIER_KEYS = {"ell", "x", "support", "nodes", "tolerance", "perturbation"}


def _phi_from(sub, field: str, n: int) -> TestFunction:
    if not isinstance(sub, dict):
        raise _bad(field, "expected an object with a 'kind'")
    _check_keys(sub, _PHI_KEYS, field)
    kind = sub.get("kind")
    if kind == "constant":
        return TestFunction(lambda s: 1.0)
    if n != 1:
        raise _bad(f"{field}.kind", "only 'constant' is available when n > 1")
    if kind == "power":
        degree = _as_int(sub.get("degree", 1), f"{field}.degree", minimum=0)
        return TestFunction(lambda s: s**degree)
    if kind == "exponential":
        rate = _as_complex(sub.get("rate", 1.0), f"{field}.rate")
        return TestFunction(lambda s: np.exp(rate * s))
    if kind == "poly-exp":
        degree = _as_int(sub.get("degree", 1), f"{field}.degree", minimum=0)
        rate = _as_complex(sub.get("rate", 1.0), f"{field}.rate")
        return TestFunction(lambda s: s**degree * np.exp(rate * s))
    raise _bad(f"{field}.kind", "expected constant, power, exponential, or poly-exp")


def _task_distribution(cfg: dict, A: VectorSet, params: dict):
    sub = cfg.get("distribution")
    if not isinstance(sub, dict):
        raise _bad("distribution", "the distribution task needs a 'distribution' object")
    _check_keys(sub, _DISTRIBUTION_KEYS, "distribution")
    if "ell" not in sub or not isinstance(sub["ell"], list) or not sub["ell"]:
        raise _bad("distribution.ell", "expected a non-empty array of shift rows")
    ell_rows = []
    for i, row in enumerate(sub["ell"]):
        if _is_number(row):
            ell_rows.append([float(row)])
            continue
        if not isinstance(row, list) or not row:
            raise _bad(f"distribution.ell[{i}]", "expected a number or an array")
        ell_rows.append(
            [_as_float(v, f"distribution.ell[{i}][{j}]") for j, v in enumerate(row)]
        )
    if len({len(r) for r in ell_rows}) != 1:
        raise _bad("distribution.ell", "rows have inconsistent lengths")
    n = len(ell_rows[0])
    x = _as_complex_vector(sub.get("x", []), "distribution.x", len(ell_rows))
    phi = _phi_from(sub.get("phi", {"kind": "constant"}), "distribution.phi", n)
    m_trunc = _as_int(sub.get("m_truncation", 25), "distribution.m_truncation", minimum=1)
    r_trunc = _as_int(sub.get("r_truncation", 40), "distribution.r_truncation", minimum=1)

    results = {"ell": ell_rows, "x": _pairs(x)}
    if n == 1:
        plus = gamma_plus_pair(phi, truncation=r_trunc)
        minus = gamma_minus_pair(phi, truncation=r_trunc)
        results["gamma_plus"] = {
            "value": _jsonify(complex(plus.value)),
            "tail_estimate": float(plus.tail_estimate),
            "truncation": plus.inner_truncation,
        }
        results["gamma_minus"] = {
            "value": _jsonify(complex(minus.value)),
            "tail_estimate": float(minus.tail_estimate),
            "truncation": minus.inner_truncation,
        }
    pairing = gg_distribution_pair(ell_rows, x, phi, M=m_trunc, R=r_trunc)
    results["pairing"] = {
        "value": _jsonify(complex(pairing.value)),
        "tail_estimate": float(pairing.tail_estimate),
        "inner_truncation": pairing.inner_truncation,
        "outer_truncation": pairing.outer_truncation,
    }

    reports = []
    if "fourier" in sub:
        four = sub["fourier"]
        if not isinstance(four, dict):
            raise _bad("distribution.fourier", "expected an object")
        _check_keys(four, _FOURIER_KEYS, "distribution.fourier")
        support = _as_float(four.get("support", 3.0), "distribution.fourier.support", positive=True)
        nodes = _as_int(four.get("nodes", 2049), "distribution.fourier.nodes", minimum=64)
        f_tol = _as_float(four.get("tolerance", 1e-4), "distribution.fourier.tolerance", positive=True)
        f_ell = _as_float(four.get("ell", 1.0), "distribution.fourier.ell")
        f_x = _as_complex(four.get("x", 0.0), "distribution.fourier.x")
        perturbation = _as_float(four.get("perturbation", 0.0), "distribution.fourier.perturbation")
        rep = fourier_consistency_check(
            f_ell, f_x, smooth_bump(support), support=support, nodes=nodes,
            M=m_trunc, R=r_trunc, tolerance=f_tol, perturbation=perturbation,
        )
        results["fourier"] = {
            "ell": f_ell,
            "x": _jsonify(f_x),
            "support": support,
            "nodes": nodes,
            "perturbation": perturbation,
        }
        reports.append(rep)
    return results, reports


def _task_family(cfg: dict, A: VectorSet, params: dict):
    if "bases" in cfg:
        if not isinstance(cfg["bases"], list) or not cfg["bases"]:
            raise _bad("bases", "expected a non-empty array of label arrays")
        bases = [
            _as_labels(b, f"bases[{i}]", A.N) for i, b in enumerate(cfg["bases"])
        ]
    else:
        bases = [b.I for b in enumerate_bases(A)]
    try:
        family = candidate_family(A, bases)
    except (InvalidInputError, DomainError) as exc:
        raise _bad("bases", str(exc))
    sv_threshold = _as_float(cfg.get("sv_threshold", 1e-8), "sv_threshold", positive=True)
    outcome = solution_family_rank(
        A, family,
        samples=params["samples"], seed=params["seed"],
        tolerance=params["tolerance"], truncation=params["truncation"],
        sv_threshold=sv_threshold,
    )
    results = {
        "family": [{"base": list(I), "twist": list(k)} for I, k in family],
        "rank": outcome.rank,
        "singular_values": [float(s) for s in outcome.singular_values],
        "sv_threshold": sv_threshold,
        "scale_used": float(outcome.scale_used),
        "truncation": params["truncation"],
    }
    return results, [outcome.report]


_TASK_FUNCS = {
    "bases": _task_bases,
    "reduce": _task_reduce,
    "eval": _task_eval,
    "verify": _task_verify,
    "lattice": _task_lattice,
    "integral": _task_integral,
    "resonance": _task_resonance,
    "distribution": _task_distribution,
    "family": _task_family,
}


def _resolve_config_path(path_str: str) -> Path:
    path = Path(path_str)
    if path.exists():
        return path
    if path.name == path_str:  # bare name: fall back to the bundled configs
        bundled = Path(__file__).parent / "configs" / path_str
        if bundled.exists():
            return bundled
        available = sorted(p.name for p in (Path(__file__).parent / "configs").glob("*.json"))
        raise _bad("--config", f"no file {path_str!r}; bundled configs: {available}")
    raise _bad("--config", f"no such file: {path_str}")


def run(
    config_path: str,
    seed: int | None = None,
    tolerance: float | None = None,
    truncation: int | None = None,
) -> tuple[dict, int]:
    """Execute the task a config describes; return (report, exit code)."""
    path = _resolve_config_path(config_path)
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise _bad("--config", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise _bad("--config", "top level must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    task = cfg.get("task")
    if task not in _TASKS:
        raise _bad("task", f"expected one of {list(_TASKS)}")
    A = _vector_set_from(cfg)

    params = {
        "seed": seed if seed is not None else _as_int(cfg.get("seed", 0), "seed", minimum=0),
        "samples": _as_int(cfg.get("samples", 12), "samples", minimum=1),
        "tolerance": tolerance if tolerance is not None
        else _as_float(cfg.get("tolerance", 1e-8), "tolerance", positive=True),
        "truncation": truncation if truncation is not None
        else _as_int(cfg.get("truncation", 25), "truncation", minimum=0),
    }

    results, reports = _TASK_FUNCS[task](cfg, A, params)
    passed = all(rep.passed for rep in reports)
    report = {
        "task": task,
        "problem": {
            "n": A.n,
            "N": A.N,
            "omega": _pairs(A.rows(range(1, A.N + 1))),
            "shift_convention": cfg.get("shift_convention", "omega"),
        },
        "parameters": params,
        "results": results,
        "checks": [_check_entry(rep) for rep in reports],
        "passed": passed,
        "version": __version__,
    }
    return report, 0 if passed else 1


def _emit(report: dict, out: str | None, quiet: bool) -> None:
    text = json.dumps(_jsonify(report), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    if not quiet:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ggsys",
        description="Run a task described by a JSON config and emit a JSON report.",
    )
    parser.add_argument("--config", required=True, help="config path, or the name of a bundled config")
    parser.add_argument("--out", help="also write the report to this path")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--tolerance", type=float, help="override the config tolerance")
    parser.add_argument("--truncation", type=int, help="override the config truncation")
    parser.add_argument("--quiet", action="store_true", help="suppress the report on stdout")
    opts = parser.parse_args(argv)

    try:
        report, code = run(
            opts.config,
            seed=opts.seed,
            tolerance=opts.tolerance,
            truncation=opts.truncation,
        )
    except (InvalidInputError, DomainError) as exc:
        _emit({"error": str(exc), "passed": False, "version": __version__}, opts.out, opts.quiet)
        return 2
    except ConvergenceError as exc:
        _emit({"error": str(exc), "passed": False, "version": __version__}, opts.out, opts.quiet)
        return 1
    _emit(report, opts.out, opts.quiet)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
