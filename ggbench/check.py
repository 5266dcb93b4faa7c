"""Output checker for the ggsys benchmark.  It fails closed.

An op passes only if its exit code is the expected one, its report parses
as strict JSON (no NaN or Infinity tokens), every number in it is finite,
every residual check agrees with its own verdict and with the exit code,
and, where an independent value exists, the reported value matches it:

* series values (eval and mixed mode) against a re-implementation on
  ``scipy.special`` (``series_oracle``);
* loop, plane and segment integrals against Bessel and beta-function
  closed forms computed by the generator with ``scipy.special``;
* delta-comb pairings against their exponential closed forms;
* Grassmannian base counts against the spanning-tree count p^(n-1) n^(p-1);
* reduced coordinates against exact rational solves;
* quotient orders against exact determinants, with every representative
  reduced modulo the reported lattice;
* integer kernels against exact arithmetic and sympy's Smith form.

Each passing op also yields accuracy margins in decimal digits,
log10(tolerance / error), over its residual checks and oracle comparisons.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import scipy.special as sp

# Oracle tolerances: relative to the summed term magnitudes for series, and
# to the reference value for the closed forms.
SERIES_TOLERANCE = 1e-9
COORD_TOLERANCE = 1e-9
_FLOOR = 1e-16  # errors below double rounding count as rounding


class CheckFailure(Exception):
    pass


def _reject_constant(token):
    raise CheckFailure(f"non-finite token {token} in report")


def parse_report(text: str):
    """Strict JSON: NaN, Infinity and -Infinity are refused."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"report is not valid JSON: {exc}") from None


def _finite(obj, where="report"):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        if not math.isfinite(obj):
            raise CheckFailure(f"non-finite number at {where}")
        return
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            _finite(v, f"{where}[{i}]")
        return
    if isinstance(obj, dict):
        for k, v in obj.items():
            _finite(v, f"{where}.{k}")
        return
    raise CheckFailure(f"unexpected value at {where}")


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


def _margin(tolerance: float, error: float) -> float:
    return math.log10(tolerance / max(error, _FLOOR))


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


# ---------------------------------------------------------------------------
# independent series evaluation
# ---------------------------------------------------------------------------


def _multi_indices(r: int, M: int) -> np.ndarray:
    """All m in Z_+^r with |m| <= M (order is irrelevant to a sum)."""
    out = [()]
    for _ in range(r):
        out = [t + (k,) for t in out for k in range(M + 1 - sum(t))]
    return np.asarray(out, dtype=np.int64).reshape(-1, r)


def series_oracle(cfg: dict, mode: str):
    """Yield (value, magnitude) per point of an eval config: the series
    sum over |m| <= M of u(shifted) * prod 1/Gamma(shifted + 1) * x^m / m!
    with shifted = beta_I - m @ g, summed with scipy's gamma functions."""
    omega = np.asarray([[complex(*e) if isinstance(e, list) else complex(e) for e in row]
                        for row in cfg["omega"]])
    base = [b - 1 for b in cfg["base"]]
    off = [j for j in range(len(omega)) if j not in base]
    Binv = np.linalg.inv(omega[base].T)
    g = (Binv @ omega[off].T).T  # (r, n) base coordinates of the off-base vectors
    r = len(off)
    M = cfg["truncation"]
    m = _multi_indices(r, M)
    mfact = np.prod(sp.factorial(m), axis=1)
    k = np.asarray(cfg["k"], dtype=float)
    tables = {}
    arg_key = "a" if mode == "full" else "x"
    for beta, arg in zip(cfg["beta"], cfg[arg_key]):
        beta = np.asarray([_c(b) for b in beta])
        arg = np.asarray([_c(v) for v in arg])
        key = beta.tobytes()
        if key not in tables:
            beta_I = Binv @ beta
            shifted = beta_I[None, :] - m @ g
            coeff = np.exp(2j * np.pi * (shifted @ k))
            if mode == "mixed":
                one = [cfg["base"].index(i) for i in cfg["partition"][0]]
                two = [cfg["base"].index(i) for i in cfg["partition"][1]]
                coeff = coeff * np.exp(1j * np.pi * shifted[:, one].sum(axis=1))
                coeff = coeff * np.prod(sp.gamma(-shifted[:, one]), axis=1)
                coeff = coeff * np.prod(sp.rgamma(shifted[:, two] + 1.0), axis=1)
            else:
                coeff = coeff * np.prod(sp.rgamma(shifted + 1.0), axis=1)
            tables[key] = (beta_I, coeff / mfact)
        beta_I, coeff = tables[key]
        if mode == "full":
            a_I, a_J = arg[base], arg[off]
            x = a_J * np.exp(-(g @ np.log(a_I)))
            prefactor = np.exp(np.sum(beta_I * np.log(a_I)))
        else:
            x, prefactor = arg, 1.0
        terms = coeff * np.prod(x[None, :] ** m, axis=1)
        yield complex(prefactor * terms.sum()), float(abs(prefactor) * np.abs(terms).sum())


# ---------------------------------------------------------------------------
# per-task checks; each returns a list of accuracy margins
# ---------------------------------------------------------------------------


def _check_entries(report: dict, expect_pass: bool) -> list[float]:
    checks = report["checks"]
    margins = []
    for c in checks:
        rel, tol = c["max_rel_residual"], c["tolerance"]
        _require(c["sample_points"] >= 1, f"check {c['equation']} saw no samples")
        within = rel <= tol
        _require(c["passed"] == within, f"check {c['equation']} verdict {c['passed']} disagrees with {rel:.3e} vs {tol:.1e}")
        if expect_pass:
            _require(within, f"check {c['equation']} residual {rel:.3e} above {tol:.1e}")
            margins.append(_margin(tol, rel))
    if not expect_pass:
        _require(any(c["max_rel_residual"] > c["tolerance"] for c in checks),
                 "negative control failed without a failing residual")
    return margins


def _check_verify(op, report, expect_pass):
    eqs = [c["equation"] for c in report["checks"]]
    _require(eqs == ["derivative-shift", "weighted-shift", "weighted-forms-agreement",
                     "reduced-base", "reduced-offbase"], f"unexpected checks {eqs}")
    return []


def _check_family(op, report, expect_pass):
    res = report["results"]
    _require(res["rank"] == op["expect"]["rank"], f"family rank {res['rank']}, want {op['expect']['rank']}")
    _require(len(res["family"]) == len(op["config"]["bases"]), "family size differs from the bases given")
    return []


def _check_eval(op, points, mode, oracle: bool):
    cfg = op["config"]
    _require(len(points) == len(cfg["beta"]), "one point per parameter vector expected")
    r = len(cfg["omega"]) - len(cfg["base"])
    terms = math.comb(cfg["truncation"] + r, r)
    for p in points:
        _require(p["terms_used"] == terms, f"terms_used {p['terms_used']}, want {terms}")
        _require(p["tail_estimate"] >= 0, "negative tail estimate")
    if not oracle:
        return []
    margins = []
    for p, (ref, magnitude) in zip(points, series_oracle(cfg, mode)):
        err = abs(_c(p["value"]) - ref) / max(magnitude, 1e-300)
        _require(err <= SERIES_TOLERANCE, f"series value off the oracle by {err:.3e} of its magnitude")
        margins.append(_margin(SERIES_TOLERANCE, err))
    return margins


def _check_bases(op, report, expect_pass):
    res = report["results"]
    want = op["expect"]["base_count"]
    n = report["problem"]["n"]
    _require(res["base_count"] == want, f"base count {res['base_count']}, want {want}")
    bases = [tuple(b) for b in res["bases"]]
    _require(len(bases) == want and len(set(bases)) == want, "base list does not match its count")
    _require(all(len(b) == n and list(b) == sorted(b) for b in bases), "malformed base")
    return []


def _check_reduce(op, report, expect_pass):
    got = report["results"]["off_base_coordinates"]
    want = op["expect"]["off_base_coordinates"]
    _require(len(got) == len(want), "wrong number of off-base vectors")
    err = max(abs(_c(v) - w) for grow, wrow in zip(got, want) for v, w in zip(grow, wrow))
    _require(err <= COORD_TOLERANCE, f"coordinates off the exact values by {err:.3e}")
    return [_margin(COORD_TOLERANCE, err)]


def _check_lattice(op, report, expect_pass):
    res = report["results"]
    exp = op["expect"]
    _require(res["saturation_index"] == exp["saturation_index"], "saturation index differs")
    quotient = res["quotient"]
    order = exp["order"]
    _require(quotient["order"] == order, f"quotient order {quotient['order']}, want {order}")
    _require(math.prod(quotient["elementary_divisors"]) == order,
             "elementary divisors do not multiply to the order")
    H = res["projected_lattice"]["basis_rows"]
    n = len(H)
    _require(all(len(row) == n for row in H), "projected lattice is not full rank")
    _require(all(H[i][j] == 0 for i in range(n) for j in range(i)), "projected basis is not triangular")
    pivots = [H[i][i] for i in range(n)]
    _require(all(p > 0 for p in pivots), "non-positive pivot")
    _require(math.prod(pivots) == order, "projected lattice index differs from the order")
    seen = set()
    for rep in quotient["representatives"]:
        v = list(rep)
        for i in range(n):  # reduce into the fundamental box of the triangular basis
            q = v[i] // pivots[i]
            if q:
                v = [a - q * b for a, b in zip(v, H[i])]
        seen.add(tuple(v))
    _require(len(quotient["representatives"]) == order and len(seen) == order,
             "representatives do not hit every coset exactly once")
    return []


def _check_resonance(op, report, expect_pass):
    res = report["results"]
    entries = res["consistent_vectors"]
    N = report["problem"]["N"]
    _require(res["consistent_count"] == len(entries), "consistent count disagrees with the list")
    for e in entries:
        _require(e["consistent"] is True, "listed vector is not consistent")
        _require(sorted(e["a_indices"] + e["b_indices"]) == list(range(1, N + 1)),
                 "a/b indices do not split the labels")
        _require(e["codim"] >= 1, "consistent vector with codimension 0")
    return []


def _check_reference(op, value):
    exp = op["expect"]
    if "reference" not in exp:
        return []
    ref = _c(exp["reference"])
    err = abs(value - ref) / abs(ref)
    tol = exp["reference_tolerance"]
    _require(err <= tol, f"value off the closed form by {err:.3e} (tolerance {tol:.0e})")
    return [_margin(tol, err)]


def _check_integral(op, report, expect_pass):
    res = report["results"]
    value = _c(res["value"])
    _require(res["error_estimate"] >= 0, "negative error estimate")
    _require(res["nodes_used"] > 0, "no quadrature nodes")
    return _check_reference(op, value)


def _check_distribution(op, report, expect_pass):
    res = report["results"]
    pairing = res["pairing"]
    _require(pairing["tail_estimate"] >= 0, "negative tail estimate")
    return _check_reference(op, _c(pairing["value"]))


def _check_kernel(op, report):
    A = op["matrix"]
    K = report["kernel"]
    m, width = len(A), len(A[0])
    for u in K:
        _require(len(u) == m, "kernel vector of the wrong length")
        _require(all(sum(u[i] * A[i][j] for i in range(m)) == 0 for j in range(width)),
                 "kernel vector does not annihilate the rows")
    _require(len(K) == m - _rank(A), f"kernel has {len(K)} vectors, want {m - _rank(A)}")
    if K:
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import smith_normal_form

        S = smith_normal_form(Matrix(K), domain=ZZ)
        _require(all(abs(S[i, i]) == 1 for i in range(len(K))), "kernel lattice is not saturated")
    return []


def _rank(A) -> int:
    M = [[Fraction(v) for v in row] for row in A]
    rank, cols = 0, len(M[0])
    for c in range(cols):
        piv = next((i for i in range(rank, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(rank + 1, len(M)):
            if M[i][c]:
                f = M[i][c] / M[rank][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
    return rank


_TASK_CHECKS = {
    "verify": _check_verify,
    "family": _check_family,
    "bases": _check_bases,
    "reduce": _check_reduce,
    "lattice": _check_lattice,
    "resonance": _check_resonance,
    "integral": _check_integral,
    "distribution": _check_distribution,
}


def check_op(op: dict, exit_code, text: str | None, oracle: bool = True) -> list[float]:
    """Judge one op; raise CheckFailure or return its accuracy margins."""
    want = op["expect"]["exit"]
    _require(exit_code == want, f"exit code {exit_code}, want {want}")
    _require(text is not None, "no report written")
    report = parse_report(text)
    _finite(report)
    kind = op["kind"]
    if kind == "kernel":
        return _check_kernel(op, report)
    if kind == "mixed":
        return _check_eval(op, report["points"], "mixed", oracle)
    _require("error" not in report, f"report carries an error: {report.get('error')}")
    expect_pass = want == 0
    _require(report["passed"] is expect_pass, f"report says passed={report['passed']}")
    margins = _check_entries(report, expect_pass)
    task = report["task"]
    _require(task == op["config"]["task"], "report is for another task")
    if task == "eval":
        margins += _check_eval(op, report["results"]["points"], report["results"]["mode"], oracle)
    else:
        margins += _TASK_CHECKS[task](op, report, expect_pass)
    return margins
