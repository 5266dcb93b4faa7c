"""Batch front-end: JSON problem in, JSON report out.

A config names a vector set, a task, and whatever inputs the task needs.
``run`` dispatches to the library and assembles a report that is a pure
function of the config and the seed: keys are sorted, complex numbers are
emitted as [re, im] pairs, non-finite numbers as null, and no clock or
environment data is recorded, so identical invocations produce byte-identical
output.  Every config field, with its reader and default, is listed once in
``_FIELDS``.

Exit codes: 0 every check passed, 1 a check failed or a sum/quadrature did
not settle, 2 the config is invalid (the message names the field).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, is_dataclass
from functools import partial
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
    first_base,
    reducibility_check,
    select_base,
    vector_set,
)
from .resonance import ChainDecomposition, ResonanceAnalysis, analyze_vector, candidate_consistent_vectors
from .series import (
    _MAX_FACTORIAL,
    SeriesSpec,
    convergence_condition,
    gg_series_eval,
    mixed_gamma_series_eval,
    reduced_series,
    reduced_series_eval,
)
from .verify import (
    FamilyRankResult,
    ResidualReport,
    check_gg_system,
    check_reduced_system,
    residual_report,
    solution_family_rank,
)


def _bad(field: str, message: str) -> InvalidInputError:
    return InvalidInputError(f"{field}: {message}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, field: str) -> complex:
    """A JSON number is real; a two-element number list is [re, im]."""
    if _is_number(value):
        return complex(_as_float(value, field))
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(_as_float(value[0], field), _as_float(value[1], field))
    raise _bad(field, "expected a number or an [re, im] pair")


def _as_int(value, field: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise _bad(field, "expected an integer")
    if minimum is not None and value < minimum:
        raise _bad(field, f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise _bad(field, f"must be <= {maximum}")
    return value


def _as_float(value, field: str, positive: bool = False) -> float:
    if not _is_number(value):
        raise _bad(field, "expected a number")
    if not abs(value) <= sys.float_info.max:  # NaN, Infinity, or an integer past the float range
        raise _bad(field, "must be finite")
    if positive and value <= 0:
        raise _bad(field, "must be positive")
    return float(value)


def _as_bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise _bad(field, "expected true or false")
    return value


def _one_of(*choices: str):
    def read(value, field: str) -> str:
        if value not in choices:
            raise _bad(field, f"expected one of {list(choices)}")
        return value
    return read


def _array(value, field: str, entry, length: int | None = None, non_empty: bool = False) -> list:
    """A JSON array read entry by entry; entry i is read as ``field[i]``."""
    if not isinstance(value, list) or (non_empty and not value):
        raise _bad(field, "expected a non-empty array" if non_empty else "expected an array")
    out = [entry(v, f"{field}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise _bad(field, f"expected {length} entries, got {len(out)}")
    return out


def _as_complex_vector(value, field: str, length: int | None = None) -> list[complex]:
    return _array(value, field, _as_complex, length)


def _as_vectors(value, field: str, length: int | None = None, non_empty: bool = False) -> list[list[complex]]:
    return _array(value, field, partial(_as_complex_vector, length=length), non_empty=non_empty)


def _as_labels(value, field: str, N: int | None = None) -> tuple[int, ...]:
    """Distinct 1-based labels of the N vectors."""
    labels = tuple(_array(value, field, partial(_as_int, minimum=1, maximum=N), non_empty=True))
    if len(set(labels)) != len(labels):
        raise _bad(field, "labels must be distinct")
    return labels


def _as_label_sets(
    value, field: str, N: int | None = None, length: int | None = None
) -> tuple[tuple[int, ...], ...]:
    return tuple(_array(value, field, partial(_as_labels, N=N), length, non_empty=True))


def _as_rows(value, field: str, row) -> list[list]:
    """A non-empty array of equal-length rows."""
    rows = _array(value, field, row, non_empty=True)
    if len({len(r) for r in rows}) != 1:
        raise _bad(field, "rows have inconsistent lengths")
    return rows


def _as_shift_row(value, field: str) -> list[float]:
    """A shift row of the delta comb; a bare number is a one-entry row."""
    if _is_number(value):
        return [_as_float(value, field)]
    return _array(value, field, _as_float, non_empty=True)


def _field_names(where: str) -> set[str]:
    """Keys the field table lists directly under ``where`` ("config" is the top level)."""
    prefix = "" if where == "config" else where + "."
    depth = prefix.count(".")
    return {p.removeprefix(prefix) for p in _FIELDS if p.startswith(prefix) and p.count(".") == depth}


def _as_object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise _bad(field, "expected an object")
    allowed = _field_names(field)
    unknown = sorted(set(value) - allowed)
    if unknown:
        raise _bad(field, f"unknown field(s) {unknown}; allowed: {sorted(allowed)}")
    return value


def _get(obj: dict, path: str, **sizes):
    """Read field ``path`` of ``obj`` through the table; an absent required field reads as null.

    ``sizes`` (``N``, ``length``) go on to readers whose shape depends on the vector set.
    """
    reader, default = _FIELDS[path]
    key = path.rpartition(".")[2]
    if key not in obj and default is not _REQUIRED:
        return default
    value = obj.get(key)
    return value if reader is None else reader(value, path, **sizes)


def _vector_set_from(cfg: dict) -> VectorSet:
    rows = _get(cfg, "omega")
    if _get(cfg, "shift_convention") == "ell":
        rows = [[-v for v in row] for row in rows]
    try:
        A = vector_set(rows)
    except (InvalidInputError, DomainError) as exc:
        raise _bad("omega", str(exc))
    if _get(cfg, "n") not in (None, A.n):
        raise _bad("n", f"declared {cfg['n']}, but omega rows have {A.n} entries")
    if _get(cfg, "N") not in (None, A.N):
        raise _bad("N", f"declared {cfg['N']}, but omega has {A.N} rows")
    return A


# Where a report differs from a library dataclass: the fields it leaves out
# (a family's report is listed under "checks"), the fields it renames and the
# properties it adds.
_OMITTED = {ContourSpec: ("kind",), FamilyRankResult: ("report",), ResonanceAnalysis: ("span_basis",)}
_RENAMED = {ResidualReport: {"equation_id": "equation"}}
_ADDED = {ChainDecomposition: ("counts",)}


def _jsonify(obj):
    """Recursively rewrite values into deterministic, strict JSON-ready form.

    Non-finite floats become None (null); a library dataclass becomes an
    object keyed by its field names.
    """
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (complex, np.complexfloating)):
        return [_jsonify(float(obj.real)), _jsonify(float(obj.imag))]
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if is_dataclass(obj):
        cls = type(obj)
        names = [f.name for f in fields(obj) if f.name not in _OMITTED.get(cls, ())]
        names += _ADDED.get(cls, ())
        return {_RENAMED.get(cls, {}).get(name, name): _jsonify(getattr(obj, name)) for name in names}
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# task handlers: (cfg, A, params) -> (results dict, [ResidualReport, ...])
# ---------------------------------------------------------------------------


def _base_or_default(cfg: dict, A: VectorSet):
    labels = _get(cfg, "base", N=A.N)
    if labels is not None:
        try:
            return select_base(A, labels)
        except (InvalidInputError, DomainError) as exc:
            raise _bad("base", str(exc))
    base = first_base(A)
    if base is None:
        raise _bad("omega", "the set has no base (vectors do not span)")
    return base


def _task_bases(cfg: dict, A: VectorSet, params: dict):
    bases = enumerate_bases(A)
    results = {
        "bases": [list(b.I) for b in bases],
        "base_count": len(bases),
        "reducibility": reducibility_check(A),
    }
    return results, []


def _task_reduce(cfg: dict, A: VectorSet, params: dict):
    if "base" not in cfg:
        raise _bad("base", "the reduce task needs an explicit base")
    system = build_reduced_system(_base_or_default(cfg, A))
    results = {
        "base": list(system.base.I),
        "off_base": list(system.base.J),
        "l_coefficients": system.l_coeffs,
        "off_base_coordinates": system.off_base_coords,
        "convergence": convergence_condition(system),
    }
    return results, []


def _task_eval(cfg: dict, A: VectorSet, params: dict):
    system = build_reduced_system(_base_or_default(cfg, A))
    k = _get(cfg, "k", length=A.n) or (0,) * A.n
    mode = _get(cfg, "mode")
    partition = _get(cfg, "partition", N=A.N)
    try:
        spec = SeriesSpec(system, k, params["truncation"], mode=mode, partition=partition)
    except InvalidInputError as exc:
        raise _bad("mode", str(exc))

    betas = _get(cfg, "beta", length=A.n)
    arg_key, arg_len = ("a", A.N) if mode == "full" else ("x", system.r)
    args = _get(cfg, arg_key, length=arg_len)
    if len(args) != len(betas):
        raise _bad(arg_key, f"expected one entry per beta ({len(betas)}), got {len(args)}")

    evaluate = {"full": gg_series_eval, "mixed": mixed_gamma_series_eval}.get(mode, reduced_series_eval)
    values = [evaluate(spec, beta, arg) for beta, arg in zip(betas, args)]
    points = [{"beta": beta, arg_key: arg, **_jsonify(v)} for beta, arg, v in zip(betas, args, values)]
    # the sums have settled when their largest tail is small against their largest value
    tails = [v.tail_estimate for v in values]
    settled = residual_report("series-tail", tails, [abs(v.value) for v in values], params["tolerance"])
    results = {
        "base": list(system.base.I),
        "twist": list(k),
        "mode": mode,
        "truncation": params["truncation"],
        "points": points,
    }
    return results, [settled]


def _task_verify(cfg: dict, A: VectorSet, params: dict):
    # the off-base equation reads the series one order shorter
    if params["truncation"] < 1:
        raise _bad("truncation", "must be >= 1 for the verify task")
    system = build_reduced_system(_base_or_default(cfg, A))
    k = _get(cfg, "k", length=A.n) or (0,) * A.n
    x_bound = _get(cfg, "x_bound")
    eps = _get(cfg, "perturbation")
    checked = {"samples": params["samples"], "tolerance": params["tolerance"], "x_bound": x_bound}

    full_spec = SeriesSpec(system, k, params["truncation"], mode="full")

    def evaluator(beta, a):
        value = gg_series_eval(full_spec, beta, a).value
        if eps != 0:
            value = value + eps * complex(a[0])
        return value

    system_reps = check_gg_system(evaluator, A, seed=params["seed"], base=system.base.I, **checked)

    def factory(beta, truncation_arg):
        spec = SeriesSpec(system, k, truncation_arg, mode="reduced")
        return reduced_series(spec, beta)

    red1_rep, red2_rep = check_reduced_system(
        factory, system, seed=params["seed"] + 2, mode="exact", truncation=params["truncation"],
        **checked,
    )
    results = {
        "base": list(system.base.I),
        "twist": list(k),
        "truncation": params["truncation"],
        "x_bound": x_bound,
        "perturbation": eps,
    }
    return results, [*system_reps, red1_rep, red2_rep]


def _task_lattice(cfg: dict, A: VectorSet, params: dict):
    lat = orthogonal_lattice(A)
    results = {"orthogonal_lattice": lat, "saturation_index": saturation_index(A)}
    labels = _get(cfg, "base", N=A.N)
    if labels is not None:
        try:
            quotient = lattice_quotient(lat, labels)
        except InvalidInputError as exc:
            raise _bad("base", str(exc))
        results.update(base=list(labels), projected_lattice=project_lattice(lat, labels), quotient=quotient)
    return results, []


def _task_integral(cfg: dict, A: VectorSet, params: dict):
    sub = _get(cfg, "integral")
    kind = _get(sub, "integral.kind")
    # an option the config leaves out keeps the ContourSpec default
    options = {f.name: _get(sub, f"integral.{f.name}") for f in fields(ContourSpec) if f.name in sub}
    contour = ContourSpec(**options)
    x = _get(sub, "integral.x")
    raw_beta = _get(sub, "integral.beta")

    if kind == "hankel-loop":
        if isinstance(raw_beta, list) and len(raw_beta) == 1:
            raw_beta = raw_beta[0]  # a 1-vector wraps the scalar
        beta = _as_complex(raw_beta, "integral.beta")
        label = _as_int(sub.get("base", 1), "integral.base", minimum=1, maximum=A.N)
        value = hankel_integral(A, label, beta, x, contour)
        inputs = {"base": label, "beta": beta}
    else:
        beta = _as_complex_vector(raw_beta, "integral.beta", A.n)
        labels = _as_labels(sub.get("base"), "integral.base", A.N)
        if kind == "shifted-plane":
            branch = _get(sub, "integral.branch", length=A.n) or [0] * A.n
            value = shifted_plane_integral(A, labels, branch, beta, x, contour)
            inputs = {"base": list(labels), "branch": branch, "beta": beta}
        else:
            value = euler_segment_integral(A, labels, beta, x, contour)
            inputs = {"base": list(labels), "beta": beta}

    results = {"kind": kind, "inputs": inputs, "x": x, "contour": contour, **_jsonify(value)}
    return results, []


def _task_resonance(cfg: dict, A: VectorSet, params: dict):
    candidates = candidate_consistent_vectors(A)
    results = {"consistent_vectors": candidates, "consistent_count": len(candidates)}
    v = _get(cfg, "vector", length=A.n)
    if v is not None:
        results["requested_vector"] = analyze_vector(A, v)
    return results, []


def _phi_from(sub: dict, n: int) -> TestFunction:
    kind = _get(sub, "distribution.phi.kind")
    if kind == "constant":
        return TestFunction(lambda s: 1.0)
    if n != 1:
        raise _bad("distribution.phi.kind", "only 'constant' is available when n > 1")
    if kind == "power":
        degree = _get(sub, "distribution.phi.degree")
        return TestFunction(lambda s: s**degree)
    rate = _get(sub, "distribution.phi.rate")
    if kind == "exponential":
        return TestFunction(lambda s: np.exp(rate * s))
    degree = _get(sub, "distribution.phi.degree")
    return TestFunction(lambda s: s**degree * np.exp(rate * s))


def _task_distribution(cfg: dict, A: VectorSet, params: dict):
    sub = _get(cfg, "distribution")
    ell_rows = _get(sub, "distribution.ell")
    n = len(ell_rows[0])
    x = _get(sub, "distribution.x", length=len(ell_rows))
    phi = _phi_from(_get(sub, "distribution.phi"), n)
    m_trunc = _get(sub, "distribution.m_truncation")
    r_trunc = _get(sub, "distribution.r_truncation")

    results = {"ell": ell_rows, "x": x}
    if n == 1:
        for name, one_sided in (("gamma_plus", gamma_plus_pair), ("gamma_minus", gamma_minus_pair)):
            pair = one_sided(phi, truncation=r_trunc)
            # a one-sided pairing has a single sum, reported as "truncation"
            results[name] = {
                "value": pair.value,
                "tail_estimate": pair.tail_estimate,
                "truncation": pair.inner_truncation,
            }
    results["pairing"] = gg_distribution_pair(ell_rows, x, phi, M=m_trunc, R=r_trunc)

    reports = []
    four = _get(sub, "distribution.fourier")
    if four is not None:
        # the fourier fields are named after fourier_consistency_check's parameters
        names = _field_names("distribution.fourier")
        fourier = {key: _get(four, f"distribution.fourier.{key}") for key in names}
        reports.append(fourier_consistency_check(
            psi=smooth_bump(fourier["support"]), M=m_trunc, R=r_trunc, **fourier,
        ))
        results["fourier"] = {k: v for k, v in fourier.items() if k != "tolerance"}
    return results, reports


def _task_family(cfg: dict, A: VectorSet, params: dict):
    # a truncation-0 sum is its first term, whose tail never settles
    if params["truncation"] < 1:
        raise _bad("truncation", "must be >= 1 for the family task")
    sv_threshold = _get(cfg, "sv_threshold")
    bases = _get(cfg, "bases", N=A.N) or [b.I for b in enumerate_bases(A)]
    try:
        family = candidate_family(A, bases)
    except (InvalidInputError, DomainError) as exc:
        raise _bad("bases", str(exc))
    # only the convergence-domain failure belongs to the bases; a truncation
    # past the factorial range keeps its own message
    try:
        outcome = solution_family_rank(A, family, sv_threshold=sv_threshold, **params)
    except DomainError as exc:
        raise _bad("bases", str(exc))
    results = {
        "family": [{"base": list(I), "twist": list(k)} for I, k in family],
        "sv_threshold": sv_threshold,
        "truncation": params["truncation"],
        **_jsonify(outcome),
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

_REQUIRED = object()
_count = partial(_as_int, minimum=1)
_positive = partial(_as_float, positive=True)
_truncation = partial(_as_int, maximum=_MAX_FACTORIAL)  # the series tabulate m! up to here
_int_vector = partial(_array, entry=_as_int)

# Every config field: dotted path -> (reader, default).  A reader takes
# (value, path) and returns the parsed value or raises naming the path; the
# readers of labels and vectors also take the vector-set sizes a handler
# passes through _get (N for labels, length for vectors).  integral.beta and
# integral.base have no reader: for a hankel-loop they are a scalar and one
# label, for the other kinds a vector and a label array, so _task_integral
# reads them by kind.  _get reads through here, and each object's allowed
# keys are the paths listed under it.
_FIELDS = {
    "task": (_one_of(*_TASK_FUNCS), _REQUIRED),
    "omega": (partial(_as_rows, row=partial(_array, entry=_as_complex, non_empty=True)), _REQUIRED),
    "n": (_count, None),
    "N": (_count, None),
    "shift_convention": (_one_of("omega", "ell"), "omega"),
    "base": (_as_labels, None),
    "k": (_int_vector, None),
    "seed": (partial(_as_int, minimum=0), 0),
    "samples": (_count, 12),
    "tolerance": (_positive, 1e-8),
    "truncation": (partial(_truncation, minimum=0), 25),
    "x_bound": (_positive, 0.3),
    "mode": (_one_of("reduced", "full", "mixed"), "reduced"),
    "partition": (partial(_as_label_sets, length=2), None),
    "beta": (partial(_as_vectors, non_empty=True), _REQUIRED),
    "a": (_as_vectors, _REQUIRED),
    "x": (_as_vectors, _REQUIRED),
    "perturbation": (_as_complex, 0j),
    "bases": (_as_label_sets, None),
    "sv_threshold": (_positive, 1e-8),
    "vector": (_as_complex_vector, None),
    "integral": (_as_object, _REQUIRED),
    "integral.kind": (_one_of("hankel-loop", "shifted-plane", "euler-segment"), _REQUIRED),
    "integral.base": (None, None),
    "integral.branch": (_int_vector, None),
    "integral.beta": (None, _REQUIRED),
    "integral.x": (_as_complex_vector, _REQUIRED),
    "integral.nodes": (partial(_as_int, minimum=16), None),
    "integral.cutoff": (_positive, None),
    "integral.tolerance": (_positive, None),
    "integral.max_refinements": (_count, None),
    "integral.offset": (_positive, None),
    "integral.adaptive": (_as_bool, None),
    "distribution": (_as_object, _REQUIRED),
    "distribution.ell": (partial(_as_rows, row=_as_shift_row), _REQUIRED),
    "distribution.x": (_as_complex_vector, _REQUIRED),
    "distribution.phi": (_as_object, {"kind": "constant"}),
    "distribution.phi.kind": (_one_of("constant", "power", "exponential", "poly-exp"), _REQUIRED),
    "distribution.phi.degree": (partial(_as_int, minimum=0), 1),
    "distribution.phi.rate": (_as_complex, 1 + 0j),
    "distribution.m_truncation": (partial(_truncation, minimum=1), 25),
    "distribution.r_truncation": (partial(_truncation, minimum=1), 40),
    "distribution.fourier": (_as_object, None),
    "distribution.fourier.ell": (_as_float, 1.0),
    "distribution.fourier.x": (_as_complex, 0j),
    "distribution.fourier.support": (_positive, 3.0),
    "distribution.fourier.nodes": (partial(_as_int, minimum=64), 2049),
    "distribution.fourier.tolerance": (_positive, 1e-4),
    "distribution.fourier.perturbation": (_as_float, 0.0),
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
    """Execute the task a config describes; return (JSON-ready report, exit code).

    The overrides replace the config's fields before any field is read, so
    the field table checks them like the rest.
    """
    path = _resolve_config_path(config_path)
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise _bad("--config", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise _bad("--config", "top level must be a JSON object")
    _as_object(cfg, "config")
    overrides = {"seed": seed, "tolerance": tolerance, "truncation": truncation}
    cfg.update((key, value) for key, value in overrides.items() if value is not None)
    task = _get(cfg, "task")
    A = _vector_set_from(cfg)
    params = {key: _get(cfg, key) for key in ("seed", "samples", "tolerance", "truncation")}

    results, reports = _TASK_FUNCS[task](cfg, A, params)
    passed = all(rep.passed for rep in reports)
    report = {
        "task": task,
        "problem": {
            "n": A.n,
            "N": A.N,
            "omega": A.omega,
            "shift_convention": _get(cfg, "shift_convention"),
        },
        "parameters": params,
        "results": results,
        "checks": reports,
        "passed": passed,
        "version": __version__,
    }
    return _jsonify(report), 0 if passed else 1


def _emit(report: dict, out: str | None, quiet: bool) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
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
    except (InvalidInputError, DomainError, ConvergenceError) as exc:
        report = {"error": str(exc), "passed": False, "version": __version__}
        code = 1 if isinstance(exc, ConvergenceError) else 2
    _emit(report, opts.out, opts.quiet)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
