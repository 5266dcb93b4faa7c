"""Truncated series solutions and their evaluation.

The central object is the table of coefficients of a series over multi
indices m with |m| <= M.  Coefficients are computed directly (vectorized
reciprocal gamma over the whole table) rather than by stepping neighbor to
neighbor, which is simpler and drift-free.

For a generic set the gamma arguments beta_I - (m @ G) + 1 are generic
complex numbers, one per term and base coordinate.  When the base
coordinates G of the off-base vectors are integers, each column of
arguments only takes the values beta_I[i] - d + 1 for integers d in a short
range.  ``reduced_series`` then evaluates ``rgamma`` once per distinct value
and gathers the products from that table; each table entry is one of the
arguments the generic path would use, so the coefficients are bit-identical.

A reduced system memoizes its tables (``ReducedSystem.tables``) up to a
fixed number of coefficients, so the repeated parameters of a residual check
are tabulated once.  Memoized arrays are read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidInputError, PoleError
from .gammafn import _pole_mask, gamma_fn, rgamma
from .model import ReducedSystem

_TWO_PI_I = 2j * np.pi
_MAX_TERMS = 2_000_000
_MAX_FACTORIAL = 150


@dataclass(frozen=True)
class SeriesSpec:
    """What to sum: a reduced system, a twist, a truncation order, a mode.

    ``mode`` is one of "reduced" (series in the invariant variables x),
    "full" (series in the original variables a), or "mixed" (part of the
    gamma factors moved to the numerator).  ``partition`` names the two
    groups of base labels for the mixed form and must be None otherwise.
    """

    system: ReducedSystem
    k: tuple[int, ...]
    truncation: int
    mode: str = "reduced"
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self):
        if self.mode not in ("reduced", "full", "mixed"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if self.truncation < 0:
            raise InvalidInputError("truncation must be nonnegative")
        base = self.system.base
        if any(int(v) != v for v in self.k):
            raise InvalidInputError("twist entries must be integers")
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        if len(self.k) != len(base.I):
            raise InvalidInputError("twist length must match the base size")
        if (self.partition is not None) != (self.mode == "mixed"):
            raise InvalidInputError("partition goes with mixed mode only")
        if self.partition is not None:
            one, two = self.partition
            if sorted(one + two) != sorted(base.I) or set(one) & set(two):
                raise InvalidInputError("partition must split the base labels")


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_estimate: float
    terms_used: int


@lru_cache(maxsize=64)
def _shell_indices(r: int, M: int) -> np.ndarray:
    """All multi-indices m in Z_+^r with |m| <= M, ordered by total degree."""
    if r == 0:
        out = np.zeros((1, 0), dtype=np.int64)
        out.setflags(write=False)
        return out
    count = math.comb(M + r, r)
    if count > _MAX_TERMS:
        raise InvalidInputError(
            f"truncation needs {count} terms, above the {_MAX_TERMS} cap"
        )
    shells = [np.zeros((1, r), dtype=np.int64)]
    for _ in range(M):
        prev = shells[-1]
        bumped = prev[:, None, :] + np.eye(r, dtype=np.int64)[None, :, :]
        flat = bumped.reshape(-1, r)
        # deduplicate: keep the copy where the bumped position is the last
        # nonzero one, which each multi-index has exactly once
        bump_pos = np.tile(np.arange(r), len(prev))
        last_nonzero = (r - 1) - np.argmax(flat[:, ::-1] > 0, axis=1)
        shells.append(flat[bump_pos == last_nonzero])
    out = np.concatenate(shells, axis=0)
    out.setflags(write=False)
    return out


def _factorials(M: int) -> np.ndarray:
    if M > _MAX_FACTORIAL:
        raise InvalidInputError("truncation beyond double-precision factorials")
    return np.cumprod(np.concatenate(([1.0], np.arange(1.0, M + 1))))


def _divisors(system: ReducedSystem, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Total degree and m! (the product of the factorials of the entries) of
    every multi-index of the order-M table, memoized on the system."""
    key = ("divisors", M)
    cached = system.tables.get(key)
    if cached is None:
        m = _shell_indices(system.r, M)
        cached = (m.sum(axis=1), np.prod(_factorials(M)[m], axis=1))
        for array in cached:
            array.setflags(write=False)
        system.tables.put(key, cached, len(m))
    return cached


class TruncatedSeries:
    """A fully tabulated truncated series in the invariant variables.

    Stores the raw coefficients c_m (twist factor included) alongside
    c_m / m!, so both term-wise identities and fast evaluation are cheap.
    """

    def __init__(self, spec: SeriesSpec, beta, raw_coeffs: np.ndarray):
        self.spec = spec
        self.beta = np.array(beta, dtype=np.complex128)
        self.exponents = _shell_indices(spec.system.r, spec.truncation)
        if raw_coeffs.shape != (len(self.exponents),):
            raise InvalidInputError("coefficient table has the wrong length")
        self.raw_coeffs = raw_coeffs.view()
        self.degrees, mfact = _divisors(spec.system, spec.truncation)
        self.coeffs = raw_coeffs / mfact
        for array in (self.beta, self.raw_coeffs, self.coeffs):
            array.setflags(write=False)

    def _powers(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            p = np.prod(x[None, :] ** self.exponents, axis=1)
        # 0**0 is 1 for series purposes; numpy already agrees for real 0
        return np.where(self.degrees == 0, 1.0 + 0j, p)

    def terms(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
        return self.coeffs * self._powers(x)

    def value(self, x) -> SeriesValue:
        t = self.terms(x)
        outer = self.degrees == self.spec.truncation
        tail = float(np.max(np.abs(t[outer]))) if outer.any() else 0.0
        return SeriesValue(complex(t.sum()), tail, len(t))

    def derivative(self, x, j_label: int) -> complex:
        """d/dx_j of the truncated sum, j a 1-based off-base label."""
        x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
        col = self.spec.system.base.J.index(j_label)
        m = self.exponents
        shifted = m.copy()
        shifted[:, col] = np.maximum(shifted[:, col] - 1, 0)
        with np.errstate(invalid="ignore"):
            p = np.prod(x[None, :] ** shifted, axis=1)
        p = np.where(shifted.sum(axis=1) == 0, 1.0 + 0j, p)
        return complex(np.sum(self.coeffs * m[:, col] * p))

    def coefficient(self, m) -> complex:
        m = np.asarray(m, dtype=np.int64)
        hit = np.all(self.exponents == m[None, :], axis=1)
        idx = np.nonzero(hit)[0]
        if len(idx) == 0:
            raise InvalidInputError(f"multi-index {tuple(m)} beyond truncation")
        return complex(self.raw_coeffs[idx[0]])


def _spec_tables(spec: SeriesSpec, beta):
    """Shared setup: shifted gamma arguments and twist phases per term."""
    system = spec.system
    beta = np.asarray(beta, dtype=np.complex128)
    if beta.shape != (system.base.parent.n,):
        raise InvalidInputError("parameter vector has the wrong length")
    beta_I = system.base.coords(beta)
    m = _shell_indices(system.r, spec.truncation)
    # base coordinates of beta - sum_j m_j omega^j, one row per term
    shifted = beta_I[None, :] - m @ system.off_base_coords
    k = np.asarray(spec.k, dtype=np.float64)
    phases = np.exp(_TWO_PI_I * (shifted @ k))
    return m, shifted, phases


def _shifted_rgamma(system: ReducedSystem, m: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """rgamma(shifted + 1), from one table of distinct arguments when the
    off-base coordinates are integers.

    Then entry (t, i) of ``shifted`` is beta_I[i] - d with d = (m @ G)[t, i]
    an integer, so it depends on t only through d.  One ``rgamma`` call over
    the ranges [min d, max d] of all coordinates, concatenated, replaces the
    terms x n evaluations, and a gather spreads the values back.  Every
    table argument is copied from ``shifted``, so the result is the generic
    one bit for bit.
    """
    G = system.integer_off_base_coords
    if G is None:
        return rgamma(shifted + 1.0)
    d = m @ G
    lo = d.min(axis=0)
    sizes = d.max(axis=0) - lo + 1
    if sizes.sum() > d.size:  # sparse or wide ranges: the table would be the larger
        return rgamma(shifted + 1.0)
    at = d - lo + (np.cumsum(sizes) - sizes)
    args = np.ones(sizes.sum(), dtype=np.complex128)  # values no term takes stay at 1
    args[at] = shifted
    return rgamma(args + 1.0)[at]


def reduced_series(spec: SeriesSpec, beta) -> TruncatedSeries:
    """Tabulate the reduced series coefficients c_m for one parameter value.

    c_m = u(beta - sum m_j omega^j) / Gamma_I(shifted + 1), where u is the
    exponential twist named by spec.k.  A repeated (spec, beta) returns the
    read-only table memoized on ``spec.system``.
    """
    system = spec.system
    beta = np.asarray(beta, dtype=np.complex128)
    key = (spec.k, spec.truncation, spec.mode, spec.partition, beta.shape, beta.tobytes())
    series = system.tables.get(key)
    if series is None:
        m, shifted, phases = _spec_tables(spec, beta)
        raw = phases * np.prod(_shifted_rgamma(system, m, shifted), axis=1)
        series = TruncatedSeries(spec, beta, raw)
        system.tables.put(key, series, len(m))
    return series


def reduced_series_eval(spec: SeriesSpec, beta, x) -> SeriesValue:
    if spec.mode != "reduced":
        raise InvalidInputError("reduced_series_eval needs mode='reduced'")
    return reduced_series(spec, beta).value(x)


def gg_series_eval(spec: SeriesSpec, beta, a) -> SeriesValue:
    """Series in the original variables: prod a_i^{beta_i} times the reduced
    series at the invariant point x(a).  Principal branch throughout."""
    if spec.mode != "full":
        raise InvalidInputError("gg_series_eval needs mode='full'")
    system = spec.system
    base = system.base
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (base.parent.N,):
        raise InvalidInputError("argument vector has the wrong length")
    a_I = a[[i - 1 for i in base.I]]
    if np.any(a_I == 0):
        raise DomainError("arguments at the base positions must be nonzero")
    beta = np.asarray(beta, dtype=np.complex128)
    beta_I = base.coords(beta)
    prefactor = np.exp(np.sum(beta_I * np.log(a_I)))
    inner = SeriesSpec(system, spec.k, spec.truncation, mode="reduced")
    val = reduced_series_eval(inner, beta, system.x_from_a(a))
    scale = abs(prefactor)
    return SeriesValue(
        complex(prefactor * val.value), scale * val.tail_estimate, val.terms_used
    )


def mixed_gamma_series_eval(spec: SeriesSpec, beta, x) -> SeriesValue:
    """Series with the gamma factors split: plain gamma in the numerator for
    the first group of base labels, reciprocal gamma for the second.

    The twist picks up the sign factor that makes the two forms agree:
    u(v) = exp(pi*i * sum of group-one coordinates of v) times the usual
    exponential twist.
    """
    if spec.mode != "mixed":
        raise InvalidInputError("mixed_gamma_series_eval needs mode='mixed'")
    system = spec.system
    base = system.base
    group_one, group_two = spec.partition
    pos_one = [base.I.index(i) for i in group_one]
    pos_two = [base.I.index(i) for i in group_two]
    m, shifted, phases = _spec_tables(spec, beta)

    gamma_args = -shifted[:, pos_one]
    pole_mask = _pole_mask(gamma_args)
    if pole_mask.any():
        rows, cols = np.nonzero(pole_mask)
        offenders = [
            (group_one[c], tuple(int(v) for v in m[r])) for r, c in zip(rows, cols)
        ]
        raise PoleError(
            "gamma factor hits a pole inside the truncation range",
            offenders=offenders,
        )

    sign_u = np.exp(1j * np.pi * shifted[:, pos_one].sum(axis=1))
    numer = np.prod(gamma_fn(gamma_args), axis=1) if pos_one else 1.0
    denom = np.prod(rgamma(shifted[:, pos_two] + 1.0), axis=1) if pos_two else 1.0
    raw = phases * sign_u * numer * denom
    return TruncatedSeries(spec, beta, raw).value(x)


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


def _ratio_verdict(system: ReducedSystem, col: int, probes: int = 36) -> str:
    # probe growth of |c_m|/m! along the single-variable direction with a
    # generic, pole-free parameter offset
    n = system.base.parent.n
    beta_I = 0.37 + 0.11 * np.arange(n)
    mags = []
    # overflow to inf is meaningful here: it reads as ratio growth
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(probes + 1):
            b = beta_I - m * system.off_base_coords[col] + 1.0
            c = np.prod(rgamma(b))
            mags.append(abs(c) / math.factorial(m))
        ratios = [
            mags[i + 1] / mags[i] if mags[i] > 0 else np.inf for i in range(probes)
        ]
    mid, tail = ratios[probes // 2], ratios[-1]
    if tail <= 0.5 * mid or tail < 1e-12:
        return "infinite"
    if tail >= 2.0 * mid:
        return "zero"
    return "positive"


def convergence_condition(system: ReducedSystem) -> ConvergenceReport:
    """Check, per invariant variable, the criterion for convergence near 0.

    Criterion: the real part of the sum of the base-position entries of the
    shift vector l^j is >= -1; equivalently the real part of the sum of the
    base coordinates of omega^j is <= 1.
    """
    l_sums = system.l_on_base.sum(axis=1).real
    g_sums = system.off_base_coords.sum(axis=1).real
    holds = tuple(bool(v >= -1.0) for v in l_sums)
    verdicts = tuple(_ratio_verdict(system, c) for c in range(system.r))
    return ConvergenceReport(
        holds,
        tuple(float(v) for v in l_sums),
        tuple(float(v) for v in g_sums),
        verdicts,
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
    m = np.arange(M + 1)
    for label, v in (("a", complex(a)), ("b", complex(b))):
        pole = _pole_mask(v + m)
        if pole.any():
            offenders = [(label, (int(i),)) for i in np.nonzero(pole)[0]]
            raise PoleError(
                f"Gamma({label}+m) hits a pole inside the truncation range",
                offenders=offenders,
            )
    return (
        gamma_fn(a + m.astype(np.complex128))
        * gamma_fn(b + m.astype(np.complex128))
        * rgamma(c + m.astype(np.complex128))
        / _factorials(M)
    )


def gauss_series_eval(a, b, c, x, M: int = 30) -> SeriesValue:
    """The classical one-variable series with two gammas up, one down."""
    coeffs = gauss_coefficients(a, b, c, M)
    terms = coeffs * np.power(complex(x), np.arange(M + 1))
    return SeriesValue(complex(terms.sum()), float(abs(terms[-1])), M + 1)
