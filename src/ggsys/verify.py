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

from dataclasses import dataclass, replace
from itertools import cycle, takewhile

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidInputError
from .model import VectorSet, ReducedSystem, _integers, _invariant_point, _svd_rank, first_base, select_base
from .series import SeriesSpec, _gg_prefactors, _gg_value, _shells, gauss_coefficients, reduced_series_batch

DEFAULT_TOLERANCE = 1e-8
_FLOOR = 1e-300
_BLOCK_TERMS = 2**16  # the most terms a check tabulates in one batch, unless one sample needs more


@dataclass(frozen=True)
class ResidualReport:
    equation: str
    max_abs_residual: float
    max_rel_residual: float
    sample_points: int
    tolerance: float
    passed: bool


def residual_report(equation, residuals, scale_values, tolerance) -> ResidualReport:
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
        equation, max_abs, max_rel, int(res.size), tolerance, bool(max_rel <= tolerance)
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
    except (InvalidInputError, DomainError, ConvergenceError):
        raise  # the package's own errors keep their type
    except Exception as exc:
        raise RuntimeError(
            f"evaluator failed at parameters {np.asarray(beta)} and "
            f"argument {np.asarray(a_or_x)}"
        ) from exc


def _bumps(z):
    """Per coordinate i of z: the step h = 1e-6 * max(|z_i|, 1), z + h e_i and z - h e_i."""
    return [(h, z + h * e, z - h * e) for h, e in zip((1e-6 * max(abs(v), 1.0) for v in z), np.eye(len(z)))]


def _central_differences(f, beta, z) -> list[complex]:
    """Every d f(beta, z) / d z_i by central differences."""
    return [(_call(f, beta, plus) - _call(f, beta, minus)) / (2 * h) for h, plus, minus in _bumps(z)]


def _sample_tables(specs, parameters):
    """The tables of ``specs`` at each sample's parameters: one ``reduced_series_batch`` per block
    of consecutive samples with at most ``_BLOCK_TERMS`` terms (or one sample), one at a time."""
    step = max(1, _BLOCK_TERMS // sum(len(_shells(spec.system.r, spec.truncation)[0]) for spec in specs))
    for start in range(0, len(parameters), step):
        tables = reduced_series_batch(zip(cycle(specs), (b for sample in parameters[start:start + step] for b in sample)))
        yield from (tables[i:i + len(specs)] for i in range(0, len(tables), len(specs)))
        del tables  # before the next block is tabulated


def _read(table, powers) -> complex:
    """The sum of ``table`` at its first len(table) ``powers``, taken as ``TruncatedSeries.value``
    takes it: numpy may reuse a new operand in place, swapped, which rounds differently."""
    return complex((table.coeffs * powers[:len(table.coeffs)].copy()).sum())


def _gg_sample_values(x_from_a, tables, at):
    """``gg_series_eval`` of a sample's first table at its points ``at``, then of the others at at[0]."""
    here, *shifted = tables
    (powers,) = here._powers(np.array([x_from_a(z) for z in at]), None)
    return [complex(p * _read(here, row)) for p, row in zip(_gg_prefactors(here, at), powers)] + [
        complex(_gg_prefactors(T, at[:1])[0] * _read(T, powers[0])) for T in shifted]


def _reduced_spec_values(system, xs, tables):
    """Per sample, the value, r partials and n + r shifted values, from one power
    row at x: tables of truncation M - 1 read its first columns (shells go by degree)."""
    for x, (S, *shifted) in zip((_invariant_point(system, x) for x in xs), tables):
        row, *lowered = S._powers(x, None, *range(system.r))
        yield _read(S, row), [S.derivative(x, j, p) for j, p in zip(system.base.J, lowered)], [_read(T, row) for T in shifted]


def check_gg_system(
    F,
    A: VectorSet,
    samples: int = 20,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    base=None,
    x_bound: float = 0.3,
    perturbation: complex = 0j,
) -> tuple[ResidualReport, ResidualReport, ResidualReport]:
    """Residuals of the defining system for F: a reduced-mode ``SeriesSpec`` of
    a system of A, or an evaluator f(beta, a) on ``base`` (default the first).

    Each sample gives f at a and at a +- h_j e_j, and f(beta - omega^j) at a;
    one loop reads them into three reports: every partial derivative in a_j
    (central differences) matches the parameter shift by -omega^j; the
    weighted sum of shifts reproduces beta times the function, with no
    differentiation; and the derivative- and shift-weighted forms agree,
    sum_j a_j (df/da_j - f(beta - omega^j)) omega^j = 0.  An evaluator is only
    called.  A spec tabulates a block of samples' beta and N shifts in one
    ``reduced_series_batch`` and reads them as ``gg_series_eval`` would, from
    one power table over a sample's 2N + 1 points.  A nonzero ``perturbation``
    (negative-control hook) adds perturbation * a_1 to every value.
    """
    rng = np.random.default_rng(seed)
    spec = F if isinstance(F, SeriesSpec) else None
    if spec is None:
        chosen = select_base(A, base) if base is not None else first_base(A)
        if chosen is None:
            raise InvalidInputError("the vector set has no base")
    elif spec.system.base.parent is not A or spec.mode != "reduced":
        raise InvalidInputError("the series spec is not a reduced-mode spec of a system of this vector set")
    elif base is not None:
        raise InvalidInputError("a series spec brings its own base")
    system = ReducedSystem(chosen) if spec is None else spec.system

    betas = sample_parameters(system, samples, rng)
    args = sample_arguments(system, samples, rng, x_bound)
    parameters = [[beta, *(beta - A.row(j) for j in range(1, A.N + 1))] for beta in betas]
    bumps = [_bumps(a) for a in args]
    points = [[a, *(z for _, *pair in bumped for z in pair)] for a, bumped in zip(args, bumps)]
    if spec is None:
        values = ([_call(F, beta, z) for z in at] + [_call(F, b, at[0]) for b in shifted]
                  for (beta, *shifted), at in zip(parameters, points))
    else:
        tables = _sample_tables([spec] * (1 + A.N), parameters)
        values = (_gg_sample_values(system.x_from_a, sample, at) for sample, at in zip(tables, points))
    shift_res, weighted_res, forms_res, scales = [], [], [], []
    # each sample's values: f at a, at a + h_j e_j and a - h_j e_j for each j, then f(beta - omega^j) at a
    for beta, a, at, bumped, sample in zip(betas, args, points, bumps, values):
        if perturbation != 0:
            sample = [v + perturbation * complex(z[0]) for v, z in zip(sample, at + [a] * A.N)]
        f0, pairs, shifted = sample[0], sample[1:2 * A.N + 1], sample[2 * A.N + 1:]
        scales.append(abs(f0))
        weighted = -np.asarray(beta, dtype=np.complex128) * f0
        forms = np.zeros(A.n, dtype=np.complex128)
        for j, ((h, _, _), plus, minus, value) in enumerate(zip(bumped, pairs[::2], pairs[1::2], shifted), 1):
            fd = (plus - minus) / (2 * h)
            shift_res.append(abs(fd - value))
            weighted += a[j - 1] * value * A.row(j)
            forms += a[j - 1] * (fd - value) * A.row(j)
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
    of gamma; periodicity of F under the relation rows, when
    ``model._integers`` reads every entry as an exact integer; and the
    pairing identity against vectors annihilating the subspace under the
    plain (bilinear, no conjugation) pairing.  The unit-shifted values
    F(gamma - e_i) are computed once per sample for the first and third.

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

    integral = _integers(rows)
    lattice_shifts = [] if integral is None else list(integral)

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
        if derivative is not None:
            partials = [complex(derivative(gamma, a, i + 1)) for i in range(size)]
        else:
            partials = _central_differences(F, gamma, a)
        shifted = [_call(F, gamma - eye[i], a) for i in range(size)]
        deriv_res += [abs(d - value) for d, value in zip(partials, shifted)]
        for shift in lattice_shifts:
            period_res.append(abs(_call(F, gamma + shift, a) - f0))
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
    x_bound: float = 0.3,
    points=None,
) -> tuple[ResidualReport, ResidualReport]:
    """Residuals of the reduced system in the invariant variables.

    F is a ``SeriesSpec`` of ``system``, differentiated term by term, or an
    evaluator (beta, x) -> complex, differentiated by central differences.
    Each sample computes the value, the r partials and the n + r shifted
    values once, and both equations read them.  A spec of truncation M
    tabulates (beta, M), (beta - omega^i, M) for i in I and (beta - omega^j,
    M - 1) for j in J, for a block of samples in one ``reduced_series_batch``,
    and reads a sample's values from one power row at x, so its residuals
    measure floating noise only.

    ``points`` overrides the sampler with explicit (beta, x) pairs, for
    evaluators whose domain excludes the default parameter box.
    """
    rng = np.random.default_rng(seed)
    base = system.base
    A = base.parent
    if isinstance(F, SeriesSpec) and F.system is not system:
        raise InvalidInputError("the series spec belongs to another system")
    if points is not None:
        betas = [np.asarray(b, dtype=np.complex128) for b, _ in points]
        xs = [np.asarray(x, dtype=np.complex128) for _, x in points]
    else:
        betas = sample_parameters(system, samples, rng)
        xs = [
            np.asarray([_disk(rng, x_bound) for _ in range(system.r)])
            for _ in range(samples)
        ]
    parameters = [[beta, *(beta - A.row(i) for i in (*base.I, *base.J))] for beta in betas]
    if isinstance(F, SeriesSpec):
        specs = [F] * (1 + A.n) + [replace(F, truncation=F.truncation - 1)] * system.r
        values = _reduced_spec_values(system, xs, _sample_tables(specs, parameters))
    else:
        values = ((_call(F, beta, x), _central_differences(F, beta, x), [_call(F, b, x) for b in shifted])
                  for (beta, *shifted), x in zip(parameters, xs))
    base_res, off_res, scales = [], [], []
    for beta, x, (f0, partials, shifted) in zip(betas, xs, values):
        scales.append(abs(f0))
        beta_I = base.coords(beta)
        for pos, rhs in enumerate(shifted[:A.n]):
            lhs = beta_I[pos] * f0
            for row, d in enumerate(partials):
                lhs -= system.off_base_coords[row, pos] * x[row] * d
            base_res.append(abs(lhs - rhs))
        for d, rhs in zip(partials, shifted[A.n:]):
            off_res.append(abs(d - rhs))
    return (
        residual_report("reduced-base", base_res, scales, tolerance),
        residual_report("reduced-offbase", off_res, scales, tolerance),
    )


def _gauss_eval(coeffs: np.ndarray, x: complex, order: int = 0) -> complex:
    """The order-th derivative of the series with these coefficients, at x."""
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
        res["derivative-up"].append(abs(_gauss_eval(here, x, 1) - fplus))
        shifts = (
            ("shift-a", a, (a + 1, b, c)),
            ("shift-b", b, (a, b + 1, c)),
            ("shift-c", c - 1, (a, b, c - 1 + perturbation)),
        )
        for label, factor, params in shifts:
            res[label].append(abs(factor * f0 + x * fplus - _gauss_eval(gauss_coefficients(*params, M), x)))
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
        d1 = _gauss_eval(coeffs, x, 1)
        d2 = _gauss_eval(coeffs, x, 2)
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

    The family is a sequence of (base labels, twist) pairs, tabulated in
    one batch.  A common evaluation domain is found by shrinking the
    off-base argument coordinates until every member's series value is
    finite, with a finite and negligible tail, at every sample; failure to
    find one raises DomainError.
    """
    family = [(tuple(I), tuple(k)) for I, k in family]
    if not family:
        raise InvalidInputError("empty candidate family")
    rng = np.random.default_rng(seed)
    systems = {I: ReducedSystem(select_base(A, I)) for I, _ in family}
    first = systems[family[0][0]]
    beta = sample_parameters(first, 1, rng)[0]

    off_base_labels = sorted(
        {j for system in systems.values() for j in system.base.J}
    )
    base_draw = rng.uniform(0.5, 1.5, size=(samples, A.N))
    off_draw = rng.uniform(0.2, 1.0, size=(samples, len(off_base_labels)))

    tables = reduced_series_batch((SeriesSpec(systems[I], k, truncation), beta) for I, k in family)

    def settled(table, args):
        """The member's values at the rows of args, or None at the first that has not settled."""
        values = []
        for a in args:
            val = _gg_value(table, a)
            if not (np.isfinite(val.value) and val.tail_estimate <= 1e-9 * max(abs(val.value), 1e-30)):
                return None
            values.append(val.value)
        return values

    for delta in (0.3 / 2**k for k in range(20)):
        args = base_draw.astype(np.complex128)
        args[:, [j - 1 for j in off_base_labels]] = delta * off_draw
        columns = list(takewhile(lambda col: col is not None, (settled(table, args) for table in tables)))
        if len(columns) == len(family):
            break
    else:
        raise DomainError("no common convergence domain found for the family")

    svals = np.linalg.svd(np.column_stack(columns), compute_uv=False)
    top = float(svals[0]) if len(svals) else 0.0
    rank = int(np.sum(svals > sv_threshold * max(top, _FLOOR)))

    member_reports = []
    for idx, table in enumerate(tables):
        shift_rep, weighted_rep, _ = check_gg_system(
            table.spec, A, samples=samples, seed=seed + idx + 1, tolerance=tolerance
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
