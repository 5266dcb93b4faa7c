"""Numerical contour integrals: loop, shifted-plane, and segment kinds.

Every operation returns an IntegralValue carrying the difference between the
last two refinement levels as its error estimate; acceptance checks compare
against that estimate rather than an absolute figure.

One engine serves all three kinds: nested product trapezoid sums whose step
halves per level, so each level evaluates only its new nodes, read until two
levels agree.  The loop enters it along a parabola through its saddle and the
plane as it is, both on a window found by one search; the segment enters it
after the double-exponential change of variable, which compresses its
integrable endpoint singularities.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidInputError
from .gammafn import rgamma
from .model import ReducedSystem, VectorSet, _invariant_point, select_base

_TINY = 1e-300
_BOUNDARY = 1e-16  # required boundary suppression of a window
_GRID_BLOCK = 2**14  # trapezoid grid points per integrand call
_MAX_EVALUATIONS = 2**24  # integrand evaluations one integral may spend


@dataclass(frozen=True)
class ContourSpec:
    """Quadrature parameters; one spec serves all three integrals.

    The plane reads ``nodes`` (starting nodes per dimension), ``cutoff``
    (starting half-width of its domain), ``adaptive``, ``tolerance`` and
    ``max_refinements``; the loop and the segment read only ``tolerance`` and
    ``max_refinements``, and start from 9 nodes in their own variable.
    ``adaptive=False`` freezes nodes and cutoff: the plane integrates on
    ``nodes`` points per axis (``nodes + 1`` when even, the least grid holding
    a half-rate grid) and takes the error estimate from that half-rate grid's
    sum, from the same evaluations.
    """

    nodes: int = 64
    cutoff: float = 40.0
    tolerance: float = 1e-9
    max_refinements: int = 12
    adaptive: bool = True

    def __post_init__(self):
        if self.nodes < 16:
            raise InvalidInputError("need at least 16 quadrature nodes")
        if self.cutoff <= 0:
            raise InvalidInputError("cutoff must be positive")


@dataclass(frozen=True)
class IntegralValue:
    """An integral, the difference between its last two refinement levels,
    and the number of integrand evaluations behind it (each node once)."""

    value: complex
    error_estimate: float
    nodes_used: int


def _trapezoid_levels(F, W: float, nodes: int, n: int):
    """Yield (sum, points evaluated) for product trapezoid sums of ``F`` over
    [-W, W]^n on grids of nodes, 2 nodes - 1, 4 nodes - 3, ... points per axis.

    Halving the step keeps the old grid as the even-index points, so each
    later level evaluates only the points with an odd index on some axis, as
    n product sets: axis k takes its odd nodes, the axes before it their even
    nodes and the axes after it all of theirs.  ``F`` takes the open grid of a
    block, n per-axis arrays as np.ix_ gives them, and returns values that
    broadcast to the block; it sees whole first-axis rows, about _GRID_BLOCK
    points a call.  The levels end before one that would pass
    _MAX_EVALUATIONS points.
    """
    count, total, points = nodes, 0j, 0
    while count**n <= _MAX_EVALUATIONS:
        grid = np.linspace(-W, W, count)
        ends = np.ones(count)
        ends[[0, -1]] = 0.5
        full, even, odd = (grid, ends), (grid[::2], ends[::2]), (grid[1::2], ends[1::2])
        sets = ([[even] * k + [odd] + [full] * (n - 1 - k) for k in range(n)]
                if points else [[full] * n])
        for axes, weights in (zip(*factors) for factors in sets):
            step = max(1, _GRID_BLOCK // math.prod(map(len, axes[1:])))
            for i in range(0, len(axes[0]), step):
                rows = slice(i, i + step)
                block = np.ix_(axes[0][rows], *axes[1:])
                total += np.sum(math.prod(np.ix_(weights[0][rows], *weights[1:])) * F(block))
            points += math.prod(map(len, axes))
        yield complex((2 * W / (count - 1)) ** n * total), points
        count = 2 * count - 1


def _modulus(z: complex) -> float:
    """abs(z), or inf where abs raises OverflowError: on a finite z whose
    modulus passes the double range, and on a NaN z when an earlier C call
    (glibc's cexp underflowing, say) left errno at ERANGE."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _settle(levels, tolerance: float, max_levels: int, what: str):
    """Read ``levels`` until two successive sums agree within
    tolerance * max(1, |value|); return (value, difference, points).  A sum
    whose modulus is not finite fails at once."""
    prev = read = 0
    for read, (value, points) in enumerate(itertools.islice(levels, max_levels), 1):
        size = _modulus(value)
        if not math.isfinite(size):
            raise ConvergenceError(f"{what} level sum is not finite")
        err = _modulus(value - prev) if read > 1 else math.nan  # the first level has nothing to agree with
        if err <= tolerance * max(1.0, size):
            return value, err, points
        prev = value
    limit = f"{max_levels} levels" if read == max_levels else f"{_MAX_EVALUATIONS} evaluations"
    raise ConvergenceError(f"{what} did not stabilize below {tolerance} in {limit}")


def _window(F, W: float, n: int, grow: bool = True) -> float:
    """The half-width of the cube [-W, W]^n to integrate ``F`` over: ``W``
    doubled until |F| on the faces of a 33-per-axis grid is within _BOUNDARY
    of its peak, at most 9 widths; ``grow=False`` keeps ``W`` if F is finite."""
    coarse = np.linspace(-1.0, 1.0, 33)
    for _ in range(9):
        bulk = np.abs(F(np.ix_(*[W * coarse] * n)))
        peak = float(bulk.max())
        if not np.isfinite(peak):
            raise DomainError("integrand overflows on the sampling grid")
        faces = (np.take(bulk, side, axis=axis) for axis in range(n) for side in (0, -1))
        boundary = max(float(face.max()) for face in faces)
        if boundary <= _BOUNDARY * max(peak, _TINY) or not grow:
            return W
        W *= 2
    raise DomainError("integrand does not decay on the truncation boundary")


def _tanh_sinh(f, spec: ContourSpec, what: str):
    """Integrate f(s, 1 - s) over s in [0, 1]: trapezoid levels in tau over
    [-T, T] after s = (1 + tanh(pi/2 sinh tau)) / 2; returns (value, last
    refinement difference, evaluations) or raises naming ``what``.

    Near the ends tanh rounds to +-1, so both endpoint distances come from
    the logistic form, not by subtraction.  T is the first of 4, 5 and 6 at
    which the first level's two end values are within tolerance * max(1, |its
    sum|), which bounds the mass past them too; past 6 the distances leave the
    double range, so there the integral fails naming the endpoint.
    """
    ends, used = [], 0

    def F(tau_cols):
        inner = 0.5 * np.pi * np.sinh(tau_cols[0])
        weights = 0.25 * np.pi * np.cosh(tau_cols[0]) / np.cosh(inner) ** 2
        s = 1.0 / (1.0 + np.exp(-2.0 * inner))
        out = np.asarray(f(s, 1.0 / (1.0 + np.exp(2.0 * inner))), dtype=np.complex128) * weights
        if not ends:  # the first call for a T is its first level, one grid from -T to T
            ends.extend((abs(out[0]), abs(out[-1])))
        return out

    for T in (4.0, 5.0, 6.0):
        ends.clear()
        levels = _trapezoid_levels(F, T, 9, 1)
        first = next(levels)
        outside = [end for end, size in enumerate(ends) if size > spec.tolerance * max(1.0, _modulus(first[0]))]
        if not outside:
            value, err, points = _settle(itertools.chain([first], levels), spec.tolerance, spec.max_refinements, what)
            return value, err, used + points
        used += first[1]
    raise ConvergenceError(f"{what} leaves integrand mass past tau = 6 at the s = {outside[0]} endpoint")


def hankel_integral(
    A: VectorSet, i: int, beta, x, spec: ContourSpec
) -> IntegralValue:
    """Loop integral from the far negative axis around the origin and back.

    One-dimensional configurations only.  ``beta`` is the coordinate of the
    parameter with respect to the chosen base vector; ``x`` lists the
    invariant variables for the remaining labels in label order.  The
    integrand is exp(t + sum_j x_j t^(g_j)) t^(-beta-1) with g_j the
    coordinate of omega^j, principal branch, on the parabola t = mu (1 + iu)^2
    of real u (Weideman and Trefethen, Math. Comp. 76, 2007).  It meets the
    real axis only at t = mu, off the branch cut, and mu sits near the
    saddle: the largest of 1, Re beta + 1 and, over Re g_j < 0 with x_j != 0,
    |x_j|^(1/(1 - Re g_j)).  So no node dwarfs the value, and exp(t) decays
    like exp(-mu u^2).
    """
    if A.n != 1:
        raise InvalidInputError("loop integral needs a one-dimensional configuration")
    base = select_base(A, (i,))
    system = ReducedSystem(base)
    exponents = system.off_base_coords[:, 0]  # g_j = coordinate of omega^j
    if np.any(exponents.real > 1.0 + 1e-12):
        raise DomainError("need every coordinate of omega_j relative to omega_i to have real part <= 1")
    x = _invariant_point(system, x)
    beta = complex(beta)
    saddles = [abs(xj) ** (1.0 / (1.0 - g.real)) for xj, g in zip(x, exponents) if g.real < 0 and xj != 0]
    mu = max(1.0, beta.real + 1.0, *saddles)

    def F(u_cols):
        root = 1.0 + 1j * u_cols[0]
        with np.errstate(over="ignore", invalid="ignore"):
            log_t = math.log(mu) + 2.0 * np.log(root)  # principal: |arg root| < pi/2
            inner = mu * root**2 + (x * np.exp(np.outer(log_t, exponents))).sum(axis=1)
            return np.exp(inner + (-beta - 1.0) * log_t) * (2j * mu * root)

    levels = _trapezoid_levels(F, _window(F, 1.0, 1), 9, 1)
    return IntegralValue(*_settle(levels, spec.tolerance, spec.max_refinements, "hankel-loop quadrature"))


def _plane_integrand(system, k, beta, x):
    """The plane integrand g(sigma), after checking its preconditions.  g takes
    an open grid (n per-axis arrays, as np.ix_ gives them), broadcasts over it
    and takes the complex exp only where it can be nonzero: below -746 in the
    real part, with a finite imaginary part, exp is exactly 0."""
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
    x = _invariant_point(system, x)
    gamma = system.off_base_coords.real  # (r, n), real by the check above
    shift = np.pi * (2 * k + 1)
    w = x * np.exp(1j * (gamma @ shift))
    for row, j in enumerate(base.J):
        if x[row] != 0 and w[row].real >= -1e-12 * abs(w[row]):
            raise DomainError(
                f"|arg(x_{j} e^(i pi <omega^{j}, 2k+1>))| > pi/2 fails"
            )
    phase = np.exp(-1j * np.sum(beta_I * shift))

    def g(sigma):
        with np.errstate(over="ignore", invalid="ignore"):
            total = -sum(np.exp(s) for s in sigma) - sum(b * s for b, s in zip(beta_I, sigma))
            for row in range(system.r):
                total += w[row] * np.exp(sum(c * s for c, s in zip(gamma[row], sigma)))
            live = ~((total.real < -746.0) & np.isfinite(total.imag))
            out = np.zeros(total.shape, np.complex128)
            out[live] = phase * np.exp(total[live])
            return out

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
    base = select_base(A, I)
    system = ReducedSystem(base)
    n = A.n
    if n > 2:
        raise DomainError("plane quadrature implemented for n <= 2 only")
    g = _plane_integrand(system, k, beta, x)

    W = _window(g, spec.cutoff, n, grow=spec.adaptive)  # fixed-parameter mode keeps the cutoff
    what = "shifted-plane quadrature"
    if not spec.adaptive:  # two levels: the half-rate grid, then the full one
        levels = _trapezoid_levels(g, W, spec.nodes // 2 + 1, n)
        return IntegralValue(*_settle(levels, np.inf, 2, what))
    levels = _trapezoid_levels(g, W, spec.nodes, n)
    return IntegralValue(*_settle(levels, spec.tolerance, spec.max_refinements, what))


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
    if A.n != 2:
        raise InvalidInputError("segment integral needs a two-dimensional configuration")
    base = select_base(A, I)
    system = ReducedSystem(base)
    gamma = system.off_base_coords  # (r, 2)
    sums = gamma.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-10):
        raise DomainError(
            "need the base-coordinate sum of every off-base vector to equal 1"
        )
    beta_I = base.coords(np.asarray(beta, dtype=np.complex128))
    if np.any(beta_I.real >= 0):
        raise DomainError("need Re beta_i < 0 at both base positions")
    x = _invariant_point(system, x)
    b_sum = complex(beta_I.sum())

    def f(s, one_minus_s):
        u = 1.0 + 0j
        for row in range(system.r):
            u = u + x[row] * s ** gamma[row, 0] * one_minus_s ** gamma[row, 1]
        on_cut = (u.real <= 0) & (np.abs(u.imag) <= 1e-14 * np.abs(u.real))
        if np.any(on_cut):
            raise DomainError("inner power crosses the branch cut on the segment")
        return u**b_sum * s ** (-beta_I[0] - 1.0) * one_minus_s ** (-beta_I[1] - 1.0)

    value, err, used = _tanh_sinh(f, spec, "euler-segment quadrature")
    front = complex(rgamma(b_sum + 1.0))
    return IntegralValue(front * value, abs(front) * err, used)
