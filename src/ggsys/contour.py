"""Numerical contour integrals: loop, shifted-plane, and segment kinds.

Every operation returns an IntegralValue carrying the difference between the
last two refinement levels as its error estimate; acceptance checks compare
against that estimate rather than an absolute figure.

The loop and segment engine is the trapezoid rule with node doubling,
applied after the standard double-exponential change of variable on finite
pieces (which compresses endpoint behavior, so the same engine handles both
smooth arcs and integrable endpoint singularities).  The plane integrand
already decays double-exponentially, so the plane takes the product
trapezoid rule on a truncated grid, evaluated in blocks of grid points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidInputError
from .gammafn import rgamma
from .model import VectorSet, build_reduced_system, select_base

_TINY = 1e-300
_DECAY = 1e-18  # required endpoint suppression for open contours
_BOUNDARY = 1e-16  # required boundary suppression for the plane quadrature
_GRID_BLOCK = 2**14  # plane grid points per integrand call


@dataclass(frozen=True)
class ContourSpec:
    """Quadrature parameters for one integral kind.

    ``nodes`` is the starting node count per piece (or per dimension);
    ``cutoff`` is the ray length or half-width of the truncated domain;
    ``offset`` is the distance of the loop rays from the negative axis.
    ``adaptive=False`` freezes nodes and cutoff for refinement-comparison
    experiments; the error estimate then comes from an embedded half-rate
    sum instead of a refinement loop.
    """

    kind: str
    nodes: int = 64
    cutoff: float = 40.0
    tolerance: float = 1e-9
    max_refinements: int = 12
    offset: float = 0.5
    adaptive: bool = True

    def __post_init__(self):
        if self.kind not in ("hankel-loop", "shifted-plane", "euler-segment"):
            raise InvalidInputError(f"unknown contour kind {self.kind!r}")
        if self.nodes < 16:
            raise InvalidInputError("need at least 16 quadrature nodes")
        if self.cutoff <= 0 or self.offset <= 0:
            raise InvalidInputError("cutoffs must be positive")


@dataclass(frozen=True)
class IntegralValue:
    value: complex
    error_estimate: float
    nodes_used: int


def _require_kind(spec: ContourSpec, kind: str):
    if spec.kind != kind:
        raise InvalidInputError(f"contour spec of kind {spec.kind!r}, need {kind!r}")


def _tanh_sinh(f, a: float, b: float, tolerance: float, max_levels: int,
               endpoint_form: bool = False):
    """Integrate a vectorized callable over [a, b].

    Double-exponential substitution, then trapezoid sums with halving step;
    returns (value, last refinement difference, evaluations).

    With ``endpoint_form`` the callable receives the two endpoint distances
    (s - a, b - s) instead of s itself; near the ends tanh rounds to +-1, so
    integrable endpoint singularities need the distances computed from the
    logistic form, not by subtraction.
    """
    center, half = (a + b) / 2.0, (b - a) / 2.0
    t_max = 4.0
    h = 1.0
    prev = None
    evals = 0
    value = 0.0 + 0j
    err = np.inf
    for _ in range(max_levels):
        taus = np.arange(-t_max, t_max + h / 2, h)
        inner = 0.5 * np.pi * np.sinh(taus)
        weights = half * h * 0.5 * np.pi * np.cosh(taus) / np.cosh(inner) ** 2
        if endpoint_form:
            dist_a = half * 2.0 / (1.0 + np.exp(-2.0 * inner))
            dist_b = half * 2.0 / (1.0 + np.exp(2.0 * inner))
            vals = np.asarray(f(dist_a, dist_b), dtype=np.complex128)
        else:
            vals = np.asarray(f(center + half * np.tanh(inner)), dtype=np.complex128)
        value = complex(np.sum(vals * weights))
        evals += len(taus)
        if prev is not None:
            err = abs(value - prev)
            if err <= tolerance * max(1.0, abs(value)):
                return value, err, evals
        prev = value
        h /= 2
    raise ConvergenceError(
        f"quadrature did not stabilize below {tolerance} in {max_levels} levels"
    )


def hankel_integral(
    A: VectorSet, i: int, beta, x, spec: ContourSpec
) -> IntegralValue:
    """Loop integral from the far negative axis around the origin and back.

    One-dimensional configurations only.  ``beta`` is the coordinate of the
    parameter with respect to the chosen base vector; ``x`` lists the
    invariant variables for the remaining labels in label order.  The
    integrand is exp(t + sum_j x_j t^(g_j)) t^(-beta-1) with g_j the
    coordinate of omega^j, principal branch (the contour stays off the
    negative real axis, between the rays).
    """
    _require_kind(spec, "hankel-loop")
    if A.n != 1:
        raise InvalidInputError("loop integral needs a one-dimensional configuration")
    base = select_base(A, (i,))
    system = build_reduced_system(base)
    exponents = system.off_base_coords[:, 0]  # g_j = coordinate of omega^j
    if np.any(exponents.real > 1.0 + 1e-12):
        raise DomainError(
            "need every coordinate of omega_j relative to omega_i to have "
            "real part <= 1"
        )
    x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if x.shape != (system.r,):
        raise InvalidInputError("x must list one value per off-base label")
    beta = complex(beta)

    def g(t):
        t = np.asarray(t, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            log_t = np.log(t)
            inner = t + (x[None, :] * np.exp(np.outer(log_t, exponents))).sum(axis=1)
            return np.exp(inner + (-beta - 1.0) * log_t)

    delta = spec.offset
    scale = float(abs(g(np.asarray([delta]))[0]))
    R = spec.cutoff
    for _ in range(13):
        tail = max(
            float(abs(g(np.asarray([-R - 1j * delta]))[0])),
            float(abs(g(np.asarray([-R + 1j * delta]))[0])),
        )
        if tail <= _DECAY * max(scale, _TINY):
            break
        R *= 2
    else:
        raise DomainError("integrand does not decay along the rays")

    tol, levels = spec.tolerance, spec.max_refinements
    lower, e1, n1 = _tanh_sinh(lambda u: g(u - 1j * delta), -R, 0.0, tol, levels)
    arc, e2, n2 = _tanh_sinh(
        lambda th: g(delta * np.exp(1j * th)) * 1j * delta * np.exp(1j * th),
        -np.pi / 2,
        np.pi / 2,
        tol,
        levels,
    )
    upper, e3, n3 = _tanh_sinh(lambda u: g(u + 1j * delta), -R, 0.0, tol, levels)
    return IntegralValue(lower + arc - upper, e1 + e2 + e3, n1 + n2 + n3)


def _plane_integrand(system, k, beta, x):
    base = system.base
    n = base.parent.n
    if np.max(np.abs(base.parent.omega.imag)) > 1e-12:
        raise DomainError("shifted-plane quadrature needs real vectors")
    beta_I = base.coords(np.asarray(beta, dtype=np.complex128))
    if np.any(beta_I.real <= 0):
        raise DomainError(
            "need Re beta_i > 0 at every base position for the plane to "
            "carry a convergent integral"
        )
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (n,) or np.any(k != np.round(k)):
        raise InvalidInputError("k must be an integer vector of length n")
    x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if x.shape != (system.r,):
        raise InvalidInputError("x must list one value per off-base label")
    gamma = system.off_base_coords.real  # (r, n), real by the check above
    shift = np.pi * (2 * k + 1)
    w = x * np.exp(1j * (gamma @ shift))
    for row, j in enumerate(base.J):
        if x[row] != 0 and w[row].real >= -1e-12:
            raise DomainError(
                f"|arg(x_{j} e^(i pi <omega^{j}, 2k+1>))| > pi/2 fails"
            )
    phase = np.exp(-1j * np.sum(beta_I * shift))

    def g(sigma_cols):
        # sigma_cols: (n, ...) real arrays, broadcastable
        with np.errstate(over="ignore", invalid="ignore"):
            total = -np.sum(np.exp(sigma_cols), axis=0) - np.einsum(
                "i,i...->...", beta_I, sigma_cols.astype(np.complex128)
            )
            for row in range(system.r):
                total = total + w[row] * np.exp(
                    np.einsum("i,i...->...", gamma[row], sigma_cols)
                )
            return phase * np.exp(total)

    return g


def shifted_plane_integral(
    A: VectorSet, I, k, beta, x, spec: ContourSpec
) -> IntegralValue:
    """Quadrature over the plane Im s_i = (2 k_i + 1) pi, written in the real
    coordinates sigma with s = sigma + i pi (2k+1).

    Requires real vectors, Re beta_i > 0 on the base, at most two dimensions,
    and every invariant variable turned into the decaying half-plane by its
    phase factor.
    """
    _require_kind(spec, "shifted-plane")
    base = select_base(A, I)
    system = build_reduced_system(base)
    n = A.n
    if n > 2:
        raise DomainError("plane quadrature implemented for n <= 2 only")
    g = _plane_integrand(system, k, beta, x)

    W = spec.cutoff
    coarse = np.linspace(-1.0, 1.0, 33)
    rounds = 9 if spec.adaptive else 1
    for _ in range(rounds):
        grids = np.meshgrid(*([W * coarse] * n), indexing="ij")
        bulk = np.abs(g(np.stack(grids)))
        peak = float(bulk.max())
        if not np.isfinite(peak):
            raise DomainError("integrand overflows on the sampling grid")
        boundary = 0.0
        for axis in range(n):
            for side in (0, -1):
                face = np.take(bulk, side, axis=axis)
                boundary = max(boundary, float(np.max(face)))
        if boundary <= _BOUNDARY * max(peak, _TINY):
            break
        if not spec.adaptive:
            break  # fixed-parameter mode: use the cutoff as given
        W *= 2
    else:
        raise DomainError("integrand does not decay on the truncation boundary")

    def grid_sum(nodes: int) -> complex:
        axis = np.linspace(-W, W, nodes)
        ends = np.ones(nodes)
        ends[[0, -1]] = 0.5
        total = 0.0 + 0j
        for start in range(0, nodes**n, _GRID_BLOCK):
            flat = np.arange(start, min(start + _GRID_BLOCK, nodes**n))
            cols = np.stack(np.unravel_index(flat, (nodes,) * n))
            total += np.sum(np.prod(ends[cols], axis=0) * g(axis[cols]))
        return complex((2 * W / (nodes - 1)) ** n * total)

    nodes = spec.nodes
    if not spec.adaptive:
        value = grid_sum(nodes)
        half = grid_sum(nodes // 2 + 1)
        return IntegralValue(value, abs(value - half), nodes**n)

    prev = None
    used = 0
    for _ in range(spec.max_refinements):
        value = grid_sum(nodes)
        used += nodes**n
        if prev is not None:
            err = abs(value - prev)
            if err <= spec.tolerance * max(1.0, abs(value)):
                return IntegralValue(value, err, used)
        prev = value
        nodes = 2 * nodes - 1
    raise ConvergenceError("plane quadrature did not stabilize under refinement")


def euler_segment_integral(
    A: VectorSet, I, beta, x, spec: ContourSpec
) -> IntegralValue:
    """Segment integral for two-dimensional configurations whose off-base
    coordinate sums all equal one.

    Value: rgamma(beta_1 + beta_2 + 1) times the integral over [0, 1] of
    (1 + sum_j x_j s^(g_j1) (1-s)^(g_j2))^(beta_1+beta_2)
    s^(-beta_1-1) (1-s)^(-beta_2-1), principal powers.  Needs Re beta_i < 0
    so the endpoint singularities integrate; the inner power must stay off
    the branch cut, which is checked at the quadrature nodes.
    """
    _require_kind(spec, "euler-segment")
    if A.n != 2:
        raise InvalidInputError("segment integral needs a two-dimensional configuration")
    base = select_base(A, I)
    system = build_reduced_system(base)
    gamma = system.off_base_coords  # (r, 2)
    sums = gamma.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-10):
        raise DomainError(
            "need the base-coordinate sum of every off-base vector to equal 1"
        )
    beta_I = base.coords(np.asarray(beta, dtype=np.complex128))
    if np.any(beta_I.real >= 0):
        raise DomainError("need Re beta_i < 0 at both base positions")
    x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if x.shape != (system.r,):
        raise InvalidInputError("x must list one value per off-base label")
    b_sum = complex(beta_I.sum())

    def f(s, one_minus_s):
        s = np.asarray(s, dtype=np.complex128)
        one_minus_s = np.asarray(one_minus_s, dtype=np.complex128)
        u = 1.0 + 0j
        for row in range(system.r):
            u = u + x[row] * s ** gamma[row, 0] * one_minus_s ** gamma[row, 1]
        on_cut = (u.real <= 0) & (np.abs(u.imag) <= 1e-14 * np.abs(u.real))
        if np.any(on_cut):
            raise DomainError("inner power crosses the branch cut on the segment")
        return (
            u**b_sum
            * s ** (-beta_I[0] - 1.0)
            * one_minus_s ** (-beta_I[1] - 1.0)
        )

    value, err, used = _tanh_sinh(
        f, 0.0, 1.0, spec.tolerance, spec.max_refinements, endpoint_form=True
    )
    front = complex(rgamma(b_sum + 1.0))
    return IntegralValue(front * value, abs(front) * err, used)
