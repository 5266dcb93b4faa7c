"""Residual harness: numerically certify that evaluators solve their systems.

Every check collects plain lists of residuals and scale values over a seeded
sample set and hands them to ``residual_report``, the one place that decides
a verdict: the maximum absolute residual, normalized by the largest scale
value seen (usually the function value), passes at a relative tolerance
(default 1e-8) only if every residual and scale value was finite.  Sample
draws avoid the neighborhoods of gamma poles; arguments on base positions
stay positive so principal powers are unambiguous.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .model import VectorSet, ReducedSystem, _svd_rank, build_reduced_system, first_base, select_base
from .series import SeriesSpec, TruncatedSeries, gauss_coefficients, gg_series_eval, reduced_series

DEFAULT_TOLERANCE = 1e-8
_FLOOR = 1e-300


@dataclass(frozen=True)
class ResidualReport:
    equation_id: str
    max_abs_residual: float
    max_rel_residual: float
    sample_points: int
    tolerance: float
    passed: bool


def residual_report(equation_id, residuals, scale_values, tolerance) -> ResidualReport:
    """Verdict on one equation from its residuals and the magnitudes that set
    its scale.

    The relative residual is the largest residual over the largest scale
    value, floored at 1e-300.  The check fails closed: if any residual or
    scale value is non-finite, the relative residual reads NaN and the check
    fails.  An empty residual list passes with zero residual.
    """
    res = np.asarray(residuals, dtype=np.float64)
    scales = np.asarray(scale_values, dtype=np.float64)
    max_abs = float(np.max(res)) if res.size else 0.0
    if np.all(np.isfinite(res)) and np.all(np.isfinite(scales)):
        max_rel = max_abs / max(float(np.max(scales)) if scales.size else 0.0, _FLOOR)
    else:
        max_rel = float("nan")
    return ResidualReport(
        equation_id, max_abs, max_rel, int(res.size), tolerance, bool(max_rel <= tolerance)
    )


def _draw_off_integer(rng, size) -> np.ndarray:
    """Complex coordinates in [0.2, 1.8] x i[-0.3, 0.3], away from integers."""
    out = np.empty(size, dtype=np.complex128)
    for idx in np.ndindex(*out.shape):
        while True:
            z = rng.uniform(0.2, 1.8) + 1j * rng.uniform(-0.3, 0.3)
            if abs(z - round(z.real)) >= 0.05:
                out[idx] = z
                break
    return out


def _disk(rng, bound) -> complex:
    radius = bound * np.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2 * np.pi)
    return radius * np.exp(1j * angle)


def sample_parameters(system: ReducedSystem, count: int, rng) -> list[np.ndarray]:
    """Ambient parameter vectors whose base coordinates follow the box policy."""
    cols = system.base.parent.rows(system.base.I).T
    return [cols @ _draw_off_integer(rng, (system.base.parent.n,)) for _ in range(count)]


def sample_arguments(
    system: ReducedSystem, count: int, rng, x_bound: float = 0.3
) -> list[np.ndarray]:
    """Argument vectors: positive on the base, sized on the rest so that the
    invariant variables land inside |x| <= x_bound."""
    base = system.base
    N = base.parent.N
    out = []
    for _ in range(count):
        a = np.zeros(N, dtype=np.complex128)
        ipos = [i - 1 for i in base.I]
        a[ipos] = rng.uniform(0.5, 1.5, size=len(ipos))
        for row, j in enumerate(base.J):
            x_j = _disk(rng, x_bound)
            a[j - 1] = x_j * np.prod(a[ipos] ** system.off_base_coords[row])
        out.append(a)
    return out


def _call(f, beta, a_or_x):
    try:
        return complex(f(beta, a_or_x))
    except Exception as exc:
        raise RuntimeError(
            f"evaluator failed at parameters {np.asarray(beta)} and "
            f"argument {np.asarray(a_or_x)}"
        ) from exc


def _central_difference(f, beta, z, index) -> complex:
    """d f(beta, z) / d z_index by central differences, step 1e-6 * max(|z_index|, 1)."""
    h = 1e-6 * max(abs(z[index]), 1.0)
    bump = np.zeros(len(z), dtype=np.complex128)
    bump[index] = h
    return (_call(f, beta, z + bump) - _call(f, beta, z - bump)) / (2 * h)


def check_gg_system(
    f,
    A: VectorSet,
    samples: int = 20,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    base=None,
    x_bound: float = 0.3,
) -> tuple[ResidualReport, ResidualReport, ResidualReport]:
    """Residuals of the defining system for an evaluator f(beta, a).

    One pass over the samples gives three reports.  First: every partial
    derivative in a_j (central differences) matches the parameter shift by
    -omega^j.  Second: the weighted sum of shifts reproduces beta times the
    function, checked directly with no differentiation.  Third: the
    derivative-weighted and shift-weighted forms of the system agree,
    sum_j a_j (df/da_j - f(beta - omega^j)) omega^j = 0, from the same
    difference quotients and shifted values as the first report.
    """
    rng = np.random.default_rng(seed)
    chosen = select_base(A, base) if base is not None else first_base(A)
    if chosen is None:
        raise InvalidInputError("the vector set has no base")
    system = build_reduced_system(chosen)
    betas = sample_parameters(system, samples, rng)
    args = sample_arguments(system, samples, rng, x_bound)
    shift_res, weighted_res, forms_res, scales = [], [], [], []
    for beta, a in zip(betas, args):
        f0 = _call(f, beta, a)
        scales.append(abs(f0))
        weighted = -np.asarray(beta, dtype=np.complex128) * f0
        forms = np.zeros(A.n, dtype=np.complex128)
        for j in range(1, A.N + 1):
            fd = _central_difference(f, beta, a, j - 1)
            shifted = _call(f, beta - A.row(j), a)
            shift_res.append(abs(fd - shifted))
            weighted += a[j - 1] * shifted * A.row(j)
            forms += a[j - 1] * (fd - shifted) * A.row(j)
        weighted_res.append(float(np.max(np.abs(weighted))))
        forms_res.append(float(np.max(np.abs(forms))))
    return (
        residual_report("derivative-shift", shift_res, scales, tolerance),
        residual_report("weighted-shift", weighted_res, scales, tolerance),
        residual_report("weighted-forms-agreement", forms_res, scales, tolerance),
    )


def check_def2_system(
    F,
    size: int,
    relation_rows,
    samples: int = 20,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    derivative=None,
) -> tuple[ResidualReport, ResidualReport, ResidualReport]:
    """Residuals of the subspace form of the system for F(gamma, a).

    ``relation_rows`` spans the relation subspace (empty sequence for the
    zero subspace).  Three reports: partial derivatives against unit shifts
    of gamma; periodicity of F under the relation rows, when they are all
    integer vectors; and the pairing identity against vectors annihilating
    the subspace under the plain (bilinear, no conjugation) pairing.  The
    unit-shifted values F(gamma - e_i) are computed once per sample and
    serve both the first and the third report.

    ``derivative(gamma, a, i)`` may supply exact partials; the default is
    central differences, whose noise floor sits near 5e-11.
    """
    rng = np.random.default_rng(seed)
    rows = np.asarray(
        relation_rows if len(relation_rows) else np.zeros((0, size)),
        dtype=np.complex128,
    )
    if rows.shape[1] != size:
        raise InvalidInputError("relation rows have the wrong width")

    integral = np.all(np.abs(rows - np.round(rows.real)) < 1e-12)
    lattice_shifts = [np.round(r.real).astype(int) for r in rows] if integral else []

    if rows.shape[0] == 0:
        annihilators = [np.eye(size)[i] for i in range(size)]
    else:
        rank, Vh = _svd_rank(rows)
        annihilators = [Vh[k].conj() for k in range(rank, size)]

    eye = np.eye(size)
    deriv_res, period_res, pairing_res, scales = [], [], [], []
    for _ in range(samples):
        gamma = _draw_off_integer(rng, (size,))
        a = rng.uniform(0.5, 1.5, size=size).astype(np.complex128)
        f0 = _call(F, gamma, a)
        scales.append(abs(f0))
        shifted = []
        for i in range(size):
            if derivative is not None:
                d = complex(derivative(gamma, a, i + 1))
            else:
                d = _central_difference(F, gamma, a, i)
            shifted.append(_call(F, gamma - eye[i], a))
            deriv_res.append(abs(d - shifted[i]))
        for shift in lattice_shifts:
            period_res.append(abs(_call(F, gamma + np.asarray(shift), a) - f0))
        for nu in annihilators:
            lhs = sum(nu[i] * a[i] * shifted[i] for i in range(size))
            pairing_res.append(abs(lhs - np.dot(nu, gamma) * f0))
    return (
        residual_report("partial-shift", deriv_res, scales, tolerance),
        residual_report("relation-periodicity", period_res, scales, tolerance),
        residual_report("orthogonal-pairing", pairing_res, scales, tolerance),
    )


def check_reduced_system(
    F,
    system: ReducedSystem,
    samples: int = 20,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    mode: str = "exact",
    truncation: int = 20,
    x_bound: float = 0.3,
    points=None,
) -> tuple[ResidualReport, ResidualReport]:
    """Residuals of the reduced system in the invariant variables.

    mode="exact": F is a factory (beta, truncation) -> TruncatedSeries and
    derivatives are term-wise, so residuals measure floating noise only
    (shifted right-hand series are truncated one order lower where the
    identity demands it).  mode="fd": F is an evaluator (beta, x) -> complex
    and x-derivatives come from central differences.  Either way each
    sample computes the value, the r partials and the n + r shifted values
    once, and both equations are read from them.

    ``points`` overrides the sampler with explicit (beta, x) pairs, for
    evaluators whose domain excludes the default parameter box.
    """
    if mode not in ("exact", "fd"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    base = system.base
    A = base.parent
    if points is not None:
        betas = [np.asarray(b, dtype=np.complex128) for b, _ in points]
        xs = [np.asarray(x, dtype=np.complex128) for _, x in points]
    else:
        betas = sample_parameters(system, samples, rng)
        xs = [
            np.asarray([_disk(rng, x_bound) for _ in range(system.r)])
            for _ in range(samples)
        ]
    base_res, off_res, scales = [], [], []
    for beta, x in zip(betas, xs):
        if mode == "exact":
            S = F(beta, truncation)
            if not isinstance(S, TruncatedSeries):
                raise InvalidInputError("exact mode needs a TruncatedSeries factory")
            f0 = S.value(x).value
            partials = [S.derivative(x, j) for j in base.J]
            base_shifted = [F(beta - A.row(i), truncation).value(x).value for i in base.I]
            off_shifted = [F(beta - A.row(j), truncation - 1).value(x).value for j in base.J]
        else:
            f0 = _call(F, beta, x)
            partials = [_central_difference(F, beta, x, row) for row in range(system.r)]
            base_shifted = [_call(F, beta - A.row(i), x) for i in base.I]
            off_shifted = [_call(F, beta - A.row(j), x) for j in base.J]
        scales.append(abs(f0))
        beta_I = base.coords(beta)
        for pos, rhs in enumerate(base_shifted):
            lhs = beta_I[pos] * f0
            for row, d in enumerate(partials):
                lhs += system.l_on_base[row, pos] * x[row] * d
            base_res.append(abs(lhs - rhs))
        for d, rhs in zip(partials, off_shifted):
            off_res.append(abs(d - rhs))
    return (
        residual_report("reduced-base", base_res, scales, tolerance),
        residual_report("reduced-offbase", off_res, scales, tolerance),
    )


def _gauss_eval(coeffs: np.ndarray, x: complex) -> complex:
    return complex(np.polynomial.polynomial.polyval(x, coeffs))


def _gauss_deriv(coeffs: np.ndarray, x: complex, order: int = 1) -> complex:
    c = np.polynomial.polynomial.polyder(coeffs, order)
    return complex(np.polynomial.polynomial.polyval(x, c))


def check_gauss_relations(
    samples: int = 100,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    M: int = 40,
    x_bound: float = 0.3,
    points=None,
    perturbation: float = 0.0,
) -> tuple[ResidualReport, ResidualReport, ResidualReport, ResidualReport]:
    """Residuals of the four contiguous relations of the classical series.

    The c-relation is checked in the form (c-1) f + x f(a+1,b+1,c+1) =
    f(a,b,c-1); the coefficient identity (c-1+m) Gamma(a+m)Gamma(b+m) /
    Gamma(c+m) = Gamma(a+m)Gamma(b+m)/Gamma(c-1+m) forces the factor c-1.
    ``perturbation`` (negative-control hook) is added to c on the shifted
    side of that relation only.
    """
    rng = np.random.default_rng(seed)
    if points is None:
        points = [
            (
                rng.uniform(0.5, 2.0),
                rng.uniform(0.5, 2.0),
                rng.uniform(0.5, 2.0),
                _disk(rng, x_bound),
            )
            for _ in range(samples)
        ]
    res = {label: [] for label in ("derivative-up", "shift-a", "shift-b", "shift-c")}
    scales = []
    for a, b, c, x in points:
        here = gauss_coefficients(a, b, c, M)
        plus = gauss_coefficients(a + 1, b + 1, c + 1, M - 1)
        f0 = _gauss_eval(here, x)
        fplus = _gauss_eval(plus, x)
        scales.append(abs(f0))
        res["derivative-up"].append(abs(_gauss_deriv(here, x) - fplus))
        res["shift-a"].append(
            abs(a * f0 + x * fplus - _gauss_eval(gauss_coefficients(a + 1, b, c, M), x))
        )
        res["shift-b"].append(
            abs(b * f0 + x * fplus - _gauss_eval(gauss_coefficients(a, b + 1, c, M), x))
        )
        res["shift-c"].append(
            abs(
                (c - 1) * f0
                + x * fplus
                - _gauss_eval(gauss_coefficients(a, b, c - 1 + perturbation, M), x)
            )
        )
    return tuple(
        residual_report(label, values, scales, tolerance) for label, values in res.items()
    )


def check_gauss_ode(
    a,
    b,
    c,
    xs=None,
    samples: int = 50,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    M: int = 60,
    x_bound: float = 0.5,
    perturbation: float = 0.0,
) -> ResidualReport:
    """Residual of the second-order equation satisfied by the series:
    x(1-x) f'' + (c - (a+b+1)x) f' - a b f, derivatives term-wise.

    ``perturbation`` shifts b inside the equation coefficients only
    (negative-control hook)."""
    rng = np.random.default_rng(seed)
    if xs is None:
        xs = [_disk(rng, x_bound) for _ in range(samples)]
    coeffs = gauss_coefficients(a, b, c, M)
    bb = b + perturbation
    residuals, scales = [], []
    for x in xs:
        f0 = _gauss_eval(coeffs, x)
        d1 = _gauss_deriv(coeffs, x)
        d2 = _gauss_deriv(coeffs, x, 2)
        scales.append(abs(f0))
        residuals.append(
            abs(x * (1 - x) * d2 + (c - (a + bb + 1) * x) * d1 - a * bb * f0)
        )
    return residual_report("hypergeometric-ode", residuals, scales, tolerance)


@dataclass(frozen=True)
class FamilyRankResult:
    rank: int
    singular_values: tuple[float, ...]
    report: ResidualReport
    scale_used: float


def solution_family_rank(
    A: VectorSet,
    family,
    samples: int = 10,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    truncation: int = 25,
    sv_threshold: float = 1e-8,
) -> FamilyRankResult:
    """Numeric rank of a candidate solution family at a fixed generic
    parameter, plus a residual report over every member.

    The family is a sequence of (base labels, twist) pairs.  A common
    evaluation domain is found by shrinking the off-base argument
    coordinates until every member's series tail is negligible at every
    sample; failure to find one raises DomainError.
    """
    family = [(tuple(I), tuple(k)) for I, k in family]
    if not family:
        raise InvalidInputError("empty candidate family")
    rng = np.random.default_rng(seed)
    systems = {I: build_reduced_system(select_base(A, I)) for I, _ in family}
    first = systems[family[0][0]]
    beta = sample_parameters(first, 1, rng)[0]

    off_base_labels = sorted(
        {j for system in systems.values() for j in system.base.J}
    )
    base_draw = rng.uniform(0.5, 1.5, size=(samples, A.N))
    off_draw = rng.uniform(0.2, 1.0, size=(samples, len(off_base_labels)))

    def argument_matrix(delta: float) -> np.ndarray:
        args = base_draw.astype(np.complex128).copy()
        for col, j in enumerate(off_base_labels):
            args[:, j - 1] = delta * off_draw[:, col]
        return args

    specs = {
        (I, k): SeriesSpec(systems[I], k, truncation, mode="full") for I, k in family
    }
    delta = 0.3
    matrix = None
    for _ in range(20):
        args = argument_matrix(delta)
        candidate = np.zeros((samples, len(family)), dtype=np.complex128)
        ok = True
        for col, member in enumerate(family):
            for row in range(samples):
                val = gg_series_eval(specs[member], beta, args[row])
                if val.tail_estimate > 1e-9 * max(abs(val.value), 1e-30):
                    ok = False
                    break
                candidate[row, col] = val.value
            if not ok:
                break
        if ok:
            matrix = candidate
            break
        delta /= 2
    if matrix is None:
        raise DomainError("no common convergence domain found for the family")

    svals = np.linalg.svd(matrix, compute_uv=False)
    top = float(svals[0]) if len(svals) else 0.0
    rank = int(np.sum(svals > sv_threshold * max(top, _FLOOR)))

    member_reports = []
    for idx, (I, k) in enumerate(family):
        spec = specs[(I, k)]

        def member(beta_arg, a_arg, spec=spec):
            return gg_series_eval(spec, beta_arg, a_arg).value

        shift_rep, weighted_rep, _ = check_gg_system(
            member, A, samples=samples, seed=seed + idx + 1, tolerance=tolerance, base=I
        )
        member_reports += [shift_rep, weighted_rep]
    # np.max, unlike the builtin max, carries a NaN through to the summary
    report = ResidualReport(
        "family-member-system",
        float(np.max([rep.max_abs_residual for rep in member_reports])),
        float(np.max([rep.max_rel_residual for rep in member_reports])),
        sum(rep.sample_points for rep in member_reports),
        tolerance,
        all(rep.passed for rep in member_reports),
    )
    return FamilyRankResult(rank, tuple(float(s) for s in svals), report, delta)
