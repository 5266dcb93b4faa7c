"""Numerical contour integrals: loop, shifted-plane, and segment kinds.

Every operation returns an IntegralValue carrying the difference between the
last two refinement levels as its error estimate; acceptance checks compare
against that estimate rather than an absolute figure.

One engine serves all three kinds: nested product trapezoid sums whose step
halves per level, so each level evaluates only its new nodes, read until two
levels agree relative to their sum, on a half-width read off first levels.
The loop enters it along a parabola through its saddle and the plane as it
is, with a box per product set outside which its integrand is exactly 0, so
the engine sums only inside it; the segment after the double-exponential
change of variable, which compresses its integrable endpoint singularities.
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
    sum, from the same evaluations.  ``cutoff``, ``tolerance`` and
    ``max_refinements`` must be finite and positive.
    """

    nodes: int = 64
    cutoff: float = 40.0
    tolerance: float = 1e-9
    max_refinements: int = 12
    adaptive: bool = True

    def __post_init__(self):
        for name in ("nodes", "max_refinements"):
            if type(getattr(self, name)) is not int:  # a bool is refused too
                raise InvalidInputError(f"{name} must be an integer")
        if self.nodes < 16:
            raise InvalidInputError("need at least 16 quadrature nodes")
        for name in ("cutoff", "tolerance", "max_refinements"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise InvalidInputError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class IntegralValue:
    """An integral, the difference between its last two refinement levels,
    and the number of grid nodes behind it: each node once, the first levels
    of the half-widths its window search rejected included, and the plane's
    nodes proven zero without evaluating the integrand included too."""

    value: complex
    error_estimate: float
    nodes_used: int


def _trapezoid_levels(F, widths, nodes: int, n: int, refuse=None):
    """Yield (sum, points evaluated) for product trapezoid sums of ``F`` over
    [-W, W]^n on grids of nodes, 2 nodes - 1, 4 nodes - 3, ... points per axis,
    until a level would pass _MAX_EVALUATIONS points.

    W is the first of ``widths`` whose first level passes ``refuse(faces, peak,
    sum)``, if given: from the largest |F| on each face (low, then high end of
    each axis), anywhere, and the level sum, it returns None or the error to
    raise when no width is left.  A |F| there that is not finite raises before
    its weighted sum is taken; a rejected level's points count in the totals.

    Halving the step keeps the old grid as the even-index points, so each
    later level evaluates only the points with an odd index on some axis, as
    n product sets: axis k takes its odd nodes, the axes before it their even
    nodes and the axes after it all of theirs.  ``F`` takes the open grid of a
    block, n per-axis arrays as np.ix_ gives them, and returns values that
    broadcast to the block (of its shape where ``refuse`` judges); it sees
    whole first-axis rows, about _GRID_BLOCK points a call.  ``F.box(axes)``,
    if present, takes a product set's n 1-D axes and returns per-axis slices
    outside which F is exactly 0, or None for all of it; the blocks then cover
    only the box, and the other points count in the totals unevaluated.
    """
    points, box = 0, getattr(F, "box", lambda axes: [slice(None)] * n)
    for W in widths:
        count, total, faces, peak = nodes, 0j, np.zeros(2 * n), 0.0
        while count**n <= _MAX_EVALUATIONS:
            grid = np.linspace(-W, W, count)
            ends = np.ones(count)
            ends[[0, -1]] = 0.5
            full, even, odd = (grid, ends), (grid[::2], ends[::2]), (grid[1::2], ends[1::2])
            first = count == nodes
            sets = [[full] * n] if first else [[even] * k + [odd] + [full] * (n - 1 - k) for k in range(n)]
            for axes, weights in (zip(*factors) for factors in sets):
                points += math.prod(map(len, axes))
                if (cut := box(axes)) is None:
                    continue  # nothing to add to the sum, the faces or the peak
                axes, weights = [a[c] for a, c in zip(axes, cut)], [v[c] for v, c in zip(weights, cut)]
                step = max(1, _GRID_BLOCK // math.prod(map(len, axes[1:])))
                for i in range(0, len(axes[0]), step):
                    rows = slice(i, i + step)
                    block = np.ix_(axes[0][rows], *axes[1:])
                    values = F(block)
                    if first and refuse:
                        size = np.abs(values)
                        if not (top := size.max()) < math.inf:  # numpy's max keeps a NaN
                            raise DomainError("integrand overflows on the sampling grid")
                        peak = max(peak, top)
                        faces = np.maximum(faces, [size.max(where=b == e, initial=0.0) for b in block for e in (-W, W)])
                    total += np.sum(math.prod(np.ix_(weights[0][rows], *weights[1:])) * values)
            value = complex((2 * W / (count - 1)) ** n * total)
            if first and refuse and (refusal := refuse(faces, peak, value)):
                break
            yield value, points
            count = 2 * count - 1
        else:
            return  # the evaluation cap ends the levels
    raise refusal


def _modulus(z: complex) -> float:
    """abs(z), or inf where abs raises OverflowError: on a finite z whose
    modulus passes the double range, and on a NaN z when an earlier C call
    (glibc's cexp underflowing, say) left errno at ERANGE."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _settle(levels, tolerance: float, max_levels: int, what: str):
    """Read ``levels`` until two successive sums agree within tolerance *
    |value|; return (value, difference, points).  A sum whose modulus is not
    finite fails at once; a value of exactly 0 fails with "did not stabilize"."""
    prev = read = 0
    for read, (value, points) in enumerate(itertools.islice(levels, max_levels), 1):
        size = _modulus(value)
        if not math.isfinite(size):
            raise ConvergenceError(f"{what} level sum is not finite")
        err = _modulus(value - prev) if read > 1 else math.nan  # the first level has nothing to agree with
        if size and err <= tolerance * size:
            return value, err, points
        prev = value
    limit = f"{max_levels} levels" if read == max_levels else f"{_MAX_EVALUATIONS} evaluations"
    raise ConvergenceError(f"{what} did not stabilize below {tolerance} in {limit}")


def _undecayed(faces, peak, value):
    """The window rule of the loop and the adaptive plane: |F| on every face within _BOUNDARY of its peak."""
    if np.max(faces) > _BOUNDARY * max(peak, _TINY):
        return DomainError("integrand does not decay on the truncation boundary")


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

    def F(tau_cols):
        inner = 0.5 * np.pi * np.sinh(tau_cols[0])
        weights = 0.25 * np.pi * np.cosh(tau_cols[0]) / np.cosh(inner) ** 2
        s = 1.0 / (1.0 + np.exp(-2.0 * inner))
        return np.asarray(f(s, 1.0 / (1.0 + np.exp(2.0 * inner))), dtype=np.complex128) * weights

    def refuse(ends, peak, value):  # raised only at the last T, 6
        outside = np.flatnonzero(ends > spec.tolerance * max(1.0, _modulus(value)))
        if outside.size:
            return ConvergenceError(f"{what} leaves integrand mass past tau = 6 at the s = {outside[0]} endpoint")

    return _settle(_trapezoid_levels(F, (4.0, 5.0, 6.0), 9, 1, refuse), spec.tolerance, spec.max_refinements, what)


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

    levels = _trapezoid_levels(F, [2.0**j for j in range(9)], 9, 1, _undecayed)
    return IntegralValue(*_settle(levels, spec.tolerance, spec.max_refinements, "hankel-loop quadrature"))


def _plane_formula(sigma, beta_I, gamma, w, phase):
    """phase e^total on an open grid, total = -sum e^sigma_i - <beta, sigma> +
    sum_r w_r e^<gamma_r, sigma>; the complex exp is taken only where Re total
    >= -746 or Im total is not finite, and the value is 0 elsewhere."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = -sum(np.exp(s) for s in sigma) - sum(b * s for b, s in zip(beta_I, sigma))
        for row in range(len(w)):
            total += w[row] * np.exp(sum(c * s for c, s in zip(gamma[row], sigma)))
        live = ~((total.real < -746.0) & np.isfinite(total.imag))
        out = np.zeros(total.shape, np.complex128)
        out[live] = phase * np.exp(total[live])
        return out


def _plane_integrand(system, k, beta, x):
    """The plane integrand g(sigma) = _plane_formula on an open grid, after
    checking its preconditions, with the box hook of _trapezoid_levels: the
    nodes of a product set whose bound on Re total reaches -746.  The bound
    sums rho_i = -e^sigma_i - Re beta_i sigma_i + sum Re(w_r) e^(gamma_ri
    sigma_i) over rows on axis i alone: any other row adds Re(w_r)
    e^<gamma_r, sigma> <= 0 (Re w_r < 0 or x_r = 0, checked below), rounding is
    monotone, and a 1e-12 relative slack covers both sides' rounding.  A rho_i
    that is not finite, or a |w_r| e^<gamma_r, sigma> or |beta_i sigma_i| that
    could overflow, makes the box the whole set, keeping NaN and overflow."""
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
    alone = np.count_nonzero(gamma, axis=1) == 1
    decays = [(np.r_[1.0, gamma[on, i]], np.r_[1.0, -w.real[on]]) for i, on in enumerate(alone & (gamma.T != 0))]
    room = 700.0 - np.log(np.maximum(np.abs(w), 1.0))

    def g(sigma):
        return _plane_formula(sigma, beta_I, gamma, w, phase)

    def box(axes):
        with np.errstate(over="ignore", invalid="ignore"):
            rho, reach, span = [], 0.0, 0.0
            for (rates, sizes), b, c, s in zip(decays, beta_I, gamma.T, axes):
                decay, linear = sizes @ np.exp(np.outer(rates, s)), b.real * s
                rho.append((1e-12 - 1.0) * decay + (1e-12 * np.abs(linear) - linear))
                reach, span = reach + np.outer(c, s).max(axis=1), span + abs(b) * np.abs(s).max()
            whole = not (np.all(reach <= room) and span < 1e300 and all(np.isfinite(bound.min()) for bound in rho))
            keep = [whole | (bound + sum(other.max() for other in rho if other is not bound) >= -746.0) for bound in rho]
        if all(kept.any() for kept in keep):
            return tuple(slice(kept.argmax(), kept.size - kept[::-1].argmax()) for kept in keep)

    g.box = box
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
    what = "shifted-plane quadrature"
    if not spec.adaptive:  # two levels on the cutoff: the half-rate grid, then the full one
        return IntegralValue(*_settle(_trapezoid_levels(g, [spec.cutoff], spec.nodes // 2 + 1, n), np.inf, 2, what))
    levels = _trapezoid_levels(g, [spec.cutoff * 2**j for j in range(9)], spec.nodes, n, _undecayed)
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
