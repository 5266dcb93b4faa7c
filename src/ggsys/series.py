"""Truncated series solutions and their evaluation.

The central object is the table of coefficients of a series over multi
indices m with |m| <= M.  Coefficients are computed directly (vectorized
reciprocal gamma over the whole table) rather than by stepping neighbor to
neighbor, which is simpler and drift-free.

For a generic set the gamma arguments beta_I - (m @ G) + 1 are generic
complex numbers, one per term and base coordinate.  When the base
coordinates G of the off-base vectors are integers, each column only takes
the values beta_I[i] - d + 1 for integers d in a short range, so a table
evaluates ``rgamma`` once per distinct value and gathers from there.

``reduced_series_batch`` tabulates several (spec, beta) in one ``rgamma``
call over all their arguments.  Each argument is an entry of the generic
``shifted + 1`` and each value depends on its own argument only, so every
table is the generic one-table result bit for bit.  A batch only returns
its tables: the residual checks hand it the parameters and shifts of a block
of samples and read the tables they get back.  ``reduced_series`` alone keeps
the table of its last call.  Table arrays are read-only.  Mixed mode makes
its own gamma calls; every evaluation, at one point or at a stack of them,
gathers its powers from one table of x_j**k for k <= M.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidInputError
from .gammafn import _finite, _gamma, _pole_mask, rgamma
from .model import ReducedSystem, _int_arg, _invariant_point

_TWO_PI_I = 2j * np.pi
_MAX_TERMS = 2_000_000
_MAX_FACTORIAL = 150


@dataclass(frozen=True)
class SeriesSpec:
    """What to sum: a reduced system, a twist, a truncation order, a mode.

    ``mode`` is "reduced" (series in the invariant variables x, or through
    ``gg_series_eval`` in the original variables a) or "mixed" (part of the
    gamma factors moved to the numerator).  ``partition`` names the two
    groups of base labels for the mixed form and must be None otherwise.
    """

    system: ReducedSystem
    k: tuple[int, ...]
    truncation: int
    mode: str = "reduced"
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self):
        if self.mode not in ("reduced", "mixed"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "truncation", _int_arg(self.truncation, "truncation", 0))
        object.__setattr__(self, "k", tuple(_int_arg(v, "k entry") for v in self.k))
        base = self.system.base
        if len(self.k) != len(base.I):
            raise InvalidInputError("twist length must match the base size")
        if (self.partition is not None) != (self.mode == "mixed"):
            raise InvalidInputError("partition goes with mixed mode only")
        if self.partition is not None:
            one, two = (tuple(_int_arg(i, "partition label") for i in group) for group in self.partition)
            object.__setattr__(self, "partition", (one, two))
            if sorted(one + two) != sorted(base.I) or set(one) & set(two):
                raise InvalidInputError("partition must split the base labels")


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_estimate: float
    terms_used: int


@lru_cache(maxsize=64)
def _shells(r: int, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All multi-indices m in Z_+^r with |m| <= M, ordered by total degree,
    with their total degrees and m! (the product of the factorials of the
    entries), all read-only."""
    count = math.comb(M + r, r)
    if count > _MAX_TERMS:
        raise InvalidInputError(
            f"truncation: needs {count} terms, above the {_MAX_TERMS} cap"
        )
    shells = [np.zeros((1, r), dtype=np.int64)]
    for _ in range(M if r else 0):  # r = 0: only the empty multi-index
        prev = shells[-1]
        bumped = prev[:, None, :] + np.eye(r, dtype=np.int64)[None, :, :]
        flat = bumped.reshape(-1, r)
        # deduplicate: keep the copy where the bumped position is the last
        # nonzero one, which each multi-index has exactly once
        bump_pos = np.tile(np.arange(r), len(prev))
        last_nonzero = (r - 1) - np.argmax(flat[:, ::-1] > 0, axis=1)
        shells.append(flat[bump_pos == last_nonzero])
    m = np.concatenate(shells, axis=0)
    out = (m, m.sum(axis=1), np.prod(_factorials(M)[m], axis=1))
    for array in out:
        array.setflags(write=False)
    return out


def _factorials(M: int) -> np.ndarray:
    if M > _MAX_FACTORIAL:
        raise InvalidInputError("truncation beyond double-precision factorials")
    return np.cumprod(np.concatenate(([1.0], np.arange(1.0, M + 1))))


class TruncatedSeries:
    """A fully tabulated truncated series in the invariant variables.

    Stores the raw coefficients c_m (twist factor included) alongside
    c_m / m!, so both term-wise identities and fast evaluation are cheap.
    """

    def __init__(self, spec: SeriesSpec, beta, raw_coeffs: np.ndarray):
        self.spec = spec
        self.beta = np.array(beta, dtype=np.complex128)
        self.exponents, self.degrees, mfact = _shells(spec.system.r, spec.truncation)
        if raw_coeffs.shape != (len(self.exponents),):
            raise InvalidInputError("coefficient table has the wrong length")
        self.raw_coeffs = raw_coeffs.view()
        self.coeffs = raw_coeffs / mfact
        for array in (self.beta, self.raw_coeffs, self.coeffs):
            array.setflags(write=False)

    def _powers(self, x: np.ndarray, *lowered) -> list[np.ndarray]:
        """prod_j x_j**m_j over the multi-indices m, with m_c lowered by one (floored at 0) for each c
        in ``lowered`` (None: m as it is), at a point x or at each row of a 2-D stack x; new arrays,
        gathered column by column from one table of x_j**k, k <= M (numpy's complex 0**0 is 1)."""
        with np.errstate(invalid="ignore"):
            table = x[..., None] ** np.arange(self.spec.truncation + 1)
        m, one = self.exponents, np.ones((*x.shape[:-1], 1), dtype=np.complex128)  # r = 0: one term, power 1
        # a point gathers from 1-D rows of its table, numpy's fast path; a stack from 2-D slices
        gather = (lambda j, k: table[j][k]) if x.ndim == 1 else (lambda j, k: table[:, j][:, k])
        return [_product((gather(j, np.maximum(m[:, j] - 1, 0) if j == c else m[:, j]) for j in range(m.shape[1])), one)
                for c in lowered]

    def terms(self, x) -> np.ndarray:
        (powers,) = self._powers(_invariant_point(self.spec.system, x), None)
        return np.multiply(self.coeffs, powers, out=powers)  # a bare coeffs * powers computes powers * coeffs past 256 KiB

    def value(self, x) -> SeriesValue:
        t = self.terms(x)
        outer = self.degrees == self.spec.truncation
        tail = float(np.max(np.abs(t[outer]))) if outer.any() else 0.0
        return SeriesValue(complex(t.sum()), tail, len(t))

    def derivative(self, x, j_label: int, powers=None) -> complex:
        """d/dx_j of the truncated sum, j a 1-based off-base label (``powers``: ``_powers`` at x, j lowered)."""
        x, j_label = _invariant_point(self.spec.system, x), _int_arg(j_label, "j_label")
        if j_label not in self.spec.system.base.J:
            raise InvalidInputError(f"label {j_label!r} is not an off-base label")
        col = self.spec.system.base.J.index(j_label)
        p = self._powers(x, col)[0] if powers is None else powers
        return complex(np.sum(self.coeffs * self.exponents[:, col] * p))

    def coefficient(self, m) -> complex:
        key = np.asarray(m)
        r, M = self.spec.system.r, self.spec.truncation
        idx = np.flatnonzero(np.all(self.exponents == key, axis=1)) if key.shape == (r,) else ()
        if len(idx) == 0:
            raise InvalidInputError(f"multi-index {key.tolist()} is not in the table (r = {r}, |m| <= {M})")
        return complex(self.raw_coeffs[idx[0]])


def _product(columns, empty=1.0):
    """Product of ``columns``, elementwise and in order (``empty`` for none); np.prod on a short row is slow."""
    columns = iter(columns)
    product = np.array(next(columns, empty))
    for column in columns:
        product *= column
    return product


def _gather_index(system: ReducedSystem, m: np.ndarray):
    """(at, length): with integer off-base coordinates G, entry (t, i) of the
    shifted coordinates is beta_I[i] - d, d = (G.T @ m.T)[i, t], so rgamma over
    the ranges [min d, max d] of all coordinates, concatenated, gathered at
    row i of ``at``, gives column i.  None for the generic path, or a wider table."""
    G = system.integer_off_base_coords
    if G is None:
        return None
    d = G.T @ m.T
    lo = d.min(axis=1)
    sizes = d.max(axis=1) - lo + 1
    return None if sizes.sum() > d.size else (d + (np.cumsum(sizes) - sizes - lo)[:, None], int(sizes.sum()))


def _mixed_coeffs(spec: SeriesSpec, m, shifted, phases) -> np.ndarray:
    """Raw coefficients of the mixed form (see ``mixed_gamma_series_eval``);
    a numerator gamma at a pole inside the table raises PoleError, and a
    coefficient past the double range ConvergenceError."""
    base = spec.system.base
    group_one, group_two = spec.partition
    pos_one = [base.I.index(i) for i in group_one]
    pos_two = [base.I.index(i) for i in group_two]

    def offender(row, col):
        return group_one[col], tuple(int(v) for v in m[row])

    sign_u = np.exp(1j * np.pi * shifted[:, pos_one].sum(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite
        numer = _product(_gamma(-shifted[:, pos_one], offender, "gamma factor").T)
        denom = _product(rgamma(shifted[:, pos_two] + 1.0).T)
        return _finite(phases * sign_u * numer * denom, "mixed-form coefficient")


def reduced_series_batch(requests) -> list[TruncatedSeries]:
    """The tables of (spec, beta) ``requests``, each bit for bit the one
    ``reduced_series`` builds alone: m @ G and the gather index once per system
    and truncation, then one ``rgamma`` call over the arguments of all
    reduced-mode tables, each reading back its own slice (ConvergenceError past
    the double range); one table at a time above ``_MAX_TERMS`` terms in all."""
    requests = [(spec, np.asarray(beta, dtype=np.complex128)) for spec, beta in requests]
    if len(requests) > 1 and sum(math.comb(s.truncation + s.system.r, s.system.r) for s, _ in requests) > _MAX_TERMS:
        return [table for request in requests for table in reduced_series_batch([request])]
    plans, raws, pending = {}, [None] * len(requests), []
    for index, (spec, beta) in enumerate(requests):
        system = spec.system
        if beta.shape != (system.base.parent.n,):
            raise InvalidInputError("parameter vector has the wrong length")
        if (system, spec.truncation) not in plans:
            m = _shells(system.r, spec.truncation)[0]
            plans[system, spec.truncation] = (m, m @ system.off_base_coords, _gather_index(system, m))
        m, mG, gather = plans[system, spec.truncation]
        # base coordinates of beta - sum_j m_j omega^j, one row per term
        shifted = system.base.coords(beta)[None, :] - mG
        phases = np.exp(_TWO_PI_I * (shifted @ np.asarray(spec.k, dtype=np.float64)))
        if spec.mode == "mixed":
            raws[index] = _mixed_coeffs(spec, m, shifted, phases)
        elif gather is None:
            pending.append((index, phases, shifted.T, None))
        else:
            args = np.ones(gather[1], dtype=np.complex128)  # values no term takes stay at 1
            args[gather[0]] = shifted.T
            pending.append((index, phases, args, gather[0]))
    if pending:
        values = rgamma(np.concatenate([args for _, _, args, _ in pending], axis=None) + 1.0)
        ends = np.cumsum([args.size for _, _, args, _ in pending])
        for (index, phases, args, at), own in zip(pending, np.split(values, ends[:-1])):
            columns = own.reshape(args.shape) if at is None else (own[column] for column in at)
            with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite
                raws[index] = _finite(phases * _product(columns), "series coefficient")
    return [TruncatedSeries(spec, beta, raw) for (spec, beta), raw in zip(requests, raws)]


# ((spec, beta shape, beta bytes), table) of the last reduced_series call
_memo = None


def reduced_series(spec: SeriesSpec, beta) -> TruncatedSeries:
    """Tabulate the series coefficients c_m for one parameter value.

    c_m = u(beta - sum m_j omega^j) / Gamma_I(shifted + 1), where u is the
    exponential twist named by spec.k; in mixed mode the gamma factors are
    split as ``mixed_gamma_series_eval`` says.  The read-only table of the
    last call is kept, so a repeated (spec, beta) tabulates once.
    """
    global _memo
    beta = np.asarray(beta, dtype=np.complex128)
    key = (spec, beta.shape, beta.tobytes())
    if _memo is None or _memo[0] != key:
        _memo = None  # let the old table go before the new one is built
        _memo = (key, reduced_series_batch([(spec, beta)])[0])
    return _memo[1]


def reduced_series_eval(spec: SeriesSpec, beta, x) -> SeriesValue:
    if spec.mode != "reduced":
        raise InvalidInputError("reduced_series_eval needs mode='reduced'")
    return reduced_series(spec, beta).value(x)


def gg_series_eval(spec: SeriesSpec, beta, a) -> SeriesValue:
    """Series in the original variables: prod a_i^{beta_i} times the reduced
    series of ``spec`` at x(a).  Principal branch throughout."""
    if spec.mode != "reduced":
        raise InvalidInputError("gg_series_eval needs mode='reduced'")
    base = spec.system.base
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (base.parent.N,):
        raise InvalidInputError("argument vector has the wrong length")
    if np.any(a[[i - 1 for i in base.I]] == 0):
        raise DomainError("arguments at the base positions must be nonzero")
    return _gg_value(reduced_series(spec, beta), a)


def _gg_value(table: TruncatedSeries, a: np.ndarray) -> SeriesValue:
    """``gg_series_eval`` of ``table`` at a complex vector ``a`` nonzero on the base."""
    [prefactor] = _gg_prefactors(table, [a])
    val = table.value(table.spec.system.x_from_a(a))
    return SeriesValue(complex(prefactor * val.value), abs(prefactor) * val.tail_estimate, val.terms_used)


def _gg_prefactors(table: TruncatedSeries, a_rows) -> list:
    """prod_i a_i^{beta_i} over the base positions, for each vector in ``a_rows``."""
    coords, ipos = table.spec.system.base.coords(table.beta), [i - 1 for i in table.spec.system.base.I]
    return [np.exp(np.sum(coords * np.log(a[ipos]))) for a in a_rows]


def mixed_gamma_series_eval(spec: SeriesSpec, beta, x) -> SeriesValue:
    """Series with the gamma factors split: plain gamma in the numerator for
    the first group of base labels, reciprocal gamma for the second.

    The twist picks up the sign factor that makes the two forms agree:
    u(v) = exp(pi*i * sum of group-one coordinates of v) times the usual
    exponential twist.
    """
    if spec.mode != "mixed":
        raise InvalidInputError("mixed_gamma_series_eval needs mode='mixed'")
    return reduced_series(spec, beta).value(x)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per off-base-variable convergence of the reduced series at x near 0.

    ``holds`` is the analytic criterion; the two sum fields show it in both
    sign conventions.  ``radius_verdict`` is an empirical ratio-test reading
    of actual coefficient growth: "infinite", "positive", or "zero".
    """

    holds: tuple[bool, ...]
    l_coefficient_sums: tuple[float, ...]
    base_coordinate_sums: tuple[float, ...]
    radius_verdict: tuple[str, ...]


def _ratio_verdicts(system: ReducedSystem, probes: int = 36) -> tuple[str, ...]:
    # probe growth of |c_m|/m! along each single-variable direction with a
    # generic, pole-free parameter offset; one rgamma call over (r, m, n)
    beta_I = 0.37 + 0.11 * np.arange(system.base.parent.n)
    m = np.arange(probes + 1)
    factorials = np.array([float(math.factorial(i)) for i in m])
    # overflow to inf is meaningful here: it reads as ratio growth
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        b = beta_I - m[None, :, None] * system.off_base_coords[:, None, :] + 1.0
        mags = np.abs(np.prod(rgamma(b), axis=-1)) / factorials
        ratios = np.where(mags[:, :-1] > 0, mags[:, 1:] / mags[:, :-1], np.inf)
    verdicts = []
    for mid, tail in ratios[:, [probes // 2, -1]]:
        if tail <= 0.5 * mid or tail < 1e-12:
            verdicts.append("infinite")
        elif tail >= 2.0 * mid:
            verdicts.append("zero")
        else:
            verdicts.append("positive")
    return tuple(verdicts)


def convergence_condition(system: ReducedSystem) -> ConvergenceReport:
    """Check, per invariant variable, the criterion for convergence near 0.

    Criterion: the real part of the sum of the base-position entries of the
    shift vector l^j is >= -1; equivalently the real part of the sum of the
    base coordinates of omega^j is <= 1.
    """
    l_sums = (-system.off_base_coords).sum(axis=1).real
    g_sums = system.off_base_coords.sum(axis=1).real
    holds = tuple(bool(v >= -1.0) for v in l_sums)
    return ConvergenceReport(
        holds,
        tuple(float(v) for v in l_sums),
        tuple(float(v) for v in g_sums),
        _ratio_verdicts(system),
    )


def twist_scaling(system: ReducedSystem, k) -> np.ndarray:
    """Per-variable factors relating a twisted series to the untwisted one:
    the twist-k series at x equals exp(2*pi*i*<k, beta>) times the plain
    series at (factors * x)."""
    k = np.asarray(k, dtype=np.float64)
    return np.exp(-_TWO_PI_I * (system.off_base_coords @ k))


def elementary_solution_full(a) -> complex:
    """The solution attached to the full relation space: exp(a_1+...+a_N)."""
    a = np.asarray(a, dtype=np.complex128)
    return complex(np.exp(a.sum()))


def monomial_solution_zero(gamma, a) -> complex:
    """The solution attached to the zero relation space:
    prod a_i^{gamma_i} / Gamma(gamma_i + 1), principal branch."""
    gamma = np.asarray(gamma, dtype=np.complex128)
    a = np.asarray(a, dtype=np.complex128)
    if gamma.shape != a.shape:
        raise InvalidInputError("exponent and argument lengths differ")
    out = 1.0 + 0j
    for g, base in zip(gamma, a):
        if base == 0:
            # 0**g / Gamma(g+1) is defined only for g a non-negative integer
            if not _pole_mask(-g):
                raise DomainError("zero argument with non-integer exponent")
            out *= 1.0 if round(g.real) == 0 else 0.0
        else:
            out *= np.exp(g * np.log(base)) * rgamma(g + 1.0)
    return complex(out)


def gauss_coefficients(a, b, c, M: int) -> np.ndarray:
    """Taylor coefficients Gamma(a+m)Gamma(b+m)/(Gamma(c+m) m!), m <= M."""
    M = _int_arg(M, "M", 0)
    m = np.arange(M + 1).astype(np.complex128)

    def gamma_up(label, v):
        return _gamma(v + m, lambda i: (label, (int(i),)), f"Gamma({label}+m)")

    with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite
        coeffs = gamma_up("a", a) * gamma_up("b", b) * rgamma(c + m) / _factorials(M)
    return _finite(coeffs, "Gauss coefficient")


def gauss_series_eval(a, b, c, x, M: int = 30) -> SeriesValue:
    """The classical one-variable series with two gammas up, one down."""
    coeffs = gauss_coefficients(a, b, c, M)
    terms = coeffs * np.power(complex(x), np.arange(len(coeffs)))
    return SeriesValue(complex(terms.sum()), float(abs(terms[-1])), len(coeffs))
