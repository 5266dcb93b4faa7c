"""Distributional pairings for the delta-comb solutions.

The solutions supported on shifted lattices pair with entire test functions
through factorially weighted sums over the support points.  Everything here
is a plain (bilinear) pairing; no measure-theoretic machinery, just decay
checks on the tails.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .series import _shells
from .verify import ResidualReport, residual_report

_DECAY = 1e-14
_TINY = 1e-300
_TWO_PI = 2.0 * np.pi
_BLOCK_POINTS = 2**17  # support points per block: bounds the double sum's memory


@dataclass(frozen=True)
class TestFunction:
    """Entire test function on arrays of points.  The pairings call it once
    per block on the block's distinct support points, in no promised order: a
    (P,) complex array for one-dimensional shift vectors, else a (P, n) float
    array; it returns values that broadcast to (P,).  A plain callable is
    probed point by point instead, with a complex scalar or a float row."""

    __test__ = False  # keep pytest collection away from the Test- prefix

    fn: object

    def __call__(self, z):
        return self.fn(z)


@dataclass(frozen=True)
class PairingResult:
    value: complex
    inner_truncation: int
    outer_truncation: int
    tail_estimate: float


def _on_arrays(phi):
    """phi as a function of a block's points: a TestFunction as it is, a plain callable one point at a time."""
    if isinstance(phi, TestFunction):
        return phi.fn
    return lambda points: np.asarray([phi(complex(p)) if points.ndim == 1 else phi(p) for p in points], np.complex128)


def _truncation(value, name: str) -> int:
    if not float(value).is_integer() or value < 0:
        raise InvalidInputError(f"{name} must be a nonnegative integer")
    return int(value)


def _not_decaying(last, value):
    """The last shell is not negligible against the sum it ends, or either is not finite."""
    settled = (last < _DECAY * np.maximum(np.abs(value), _TINY)) | (last <= _TINY)
    return ~(settled & np.isfinite(value))


def _unit_comb(fn, truncation: int, what: str) -> PairingResult:
    """sum over m <= truncation of fn(m)/m!: the comb of ell = 1 at m = 0."""
    truncation = _truncation(truncation, "truncation")
    values, last = _comb_sums(np.ones((1, 1)), np.zeros((1, 1)), fn, truncation, what)
    return PairingResult(complex(values[0]), truncation, 0, float(last[0]))


def gamma_plus_pair(phi, truncation: int = 40) -> PairingResult:
    """Pairing with the alternating comb on the nonpositive integers:
    sum of (-1)^m phi(-m)/m!, probed at -m with +0.0 at m = 0."""
    fn = _on_arrays(phi)
    return _unit_comb(lambda z: np.where(z.real % 2, -1.0, 1.0) * fn((0.0 - z.real).astype(np.complex128)),
                      truncation, "gamma-plus pairing")


def gamma_minus_pair(phi, truncation: int = 40) -> PairingResult:
    """Pairing with the comb on the nonnegative integers: sum of phi(m)/m!."""
    return _unit_comb(_on_arrays(phi), truncation, "gamma-minus pairing")


def _distinct_rows(rows: np.ndarray):
    """np.unique(rows, axis=0, return_inverse=True) by a lexsort over the
    columns (first column primary), without sorting a structured view."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    change = np.concatenate(([True], np.any(ranked[1:] != ranked[:-1], axis=1)))
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(change) - 1
    return ranked[change], inverse


def _comb_sums(ell: np.ndarray, ms: np.ndarray, fn, R: int, what: str = "inner comb sum"):
    """Comb sums for a block of outer multi-indices ``ms``: for each m, the
    sum over r in Z_+^n, |r| <= R of phi(m @ ell + r)/prod r!, and the
    magnitude of its last shell |r| = R; ``what`` names the sum in errors."""
    n = ell.shape[1]
    shells, degrees, mfact = _shells(n, R)
    points = (ms.astype(np.float64) @ ell)[:, None, :] + shells
    # the points of one m are distinct by construction: one probe each
    flat = points.reshape(-1, n)
    distinct, inverse = _distinct_rows(flat) if len(ms) > 1 else (flat, np.arange(len(flat)))
    probes = np.asarray(fn(distinct[:, 0].astype(np.complex128) if n == 1 else distinct), np.complex128)
    terms = np.broadcast_to(probes, len(distinct))[inverse.reshape(points.shape[:2])]
    # a probe past the double range gives non-finite sums, which _not_decaying judges
    with np.errstate(invalid="ignore", over="ignore"):
        terms /= mfact
        values = terms.sum(axis=1)
        last = np.abs(terms[:, degrees == R]).sum(axis=1)
    bad = np.flatnonzero(_not_decaying(last, values))
    if bad.size:
        raise ConvergenceError(
            f"{what} is not decaying at the truncation (last shell {last[bad[0]]:.3e})"
        )
    return values, last


def _ell_matrix(ell) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(ell, dtype=np.float64))
    if mat.ndim != 2 or mat.size == 0:
        raise InvalidInputError("need a nonempty matrix of shift vectors")
    return mat


def cm_pair(ell, m, phi, R: int = 40) -> complex:
    """Inner comb coefficient: the pairing of one outer term's support comb
    with the test function.  ``ell`` has one shift vector per row; phi sees
    the points as TestFunction says."""
    mat = _ell_matrix(ell)
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (mat.shape[0],):
        raise InvalidInputError("multi-index length must match the row count")
    if np.any(m != np.round(m)) or np.any(m < 0):
        raise InvalidInputError("multi-index entries must be nonnegative integers")
    values, _ = _comb_sums(mat, m[None, :], _on_arrays(phi), _truncation(R, "R"))
    return complex(values[0])


def gg_distribution_pair(ell, x, phi, M: int = 25, R: int = 40) -> PairingResult:
    """Full double series: sum over |m| <= M of cm_pair(m) x^m/m!.

    The tail estimate combines the outer last shell, the accumulated inner
    last-shell magnitudes, and an accumulation-noise floor (the value cannot
    be more accurate than the rounding of the summed magnitudes), so growing
    both truncations moves the value by at most a few times the estimate.
    """
    mat = _ell_matrix(ell)
    q = mat.shape[0]
    x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if x.shape != (q,):
        raise InvalidInputError("x must list one value per shift vector")
    M, R = _truncation(M, "M"), _truncation(R, "R")
    fn = _on_arrays(phi)
    outer, degrees, mfact = _shells(q, M)
    weights = np.prod(x**outer, axis=1) / mfact
    rows = max(1, _BLOCK_POINTS // len(_shells(mat.shape[1], R)[0]))
    blocks = [_comb_sums(mat, outer[i:i + rows], fn, R) for i in range(0, len(outer), rows)]
    inner, inner_last = (np.concatenate(parts) for parts in zip(*blocks))
    terms = inner * weights
    value = complex(terms.sum())
    outer_last = float(np.abs(terms[degrees == M]).sum())
    if _not_decaying(outer_last, value):
        raise ConvergenceError(
            f"outer series is not decaying at the truncation ({outer_last:.3e})"
        )
    tail = outer_last + float(np.abs(weights) @ inner_last) + 1e-15 * float(np.abs(terms).sum())
    return PairingResult(value, R, M, tail)


def smooth_bump(half_width: float = 3.0):
    """Gaussian-windowed bump supported on [-half_width, half_width], taken
    elementwise on an array and as a float on a scalar."""

    def psi(xi):
        xi = np.asarray(xi, dtype=np.float64)
        t = np.minimum(np.abs(xi / half_width), 1.0)  # exp(-1/0) = 0 from |t| = 1 on
        with np.errstate(divide="ignore", over="ignore"):
            out = np.exp(-(xi**2) / 2.0) * np.exp(-1.0 / (1.0 - t * t))
        return out if out.ndim else float(out)

    return psi


def fourier_consistency_check(
    ell: float,
    x: complex,
    psi,
    support: float = 3.0,
    nodes: int = 2049,
    M: int = 25,
    R: int = 40,
    tolerance: float = 1e-4,
    perturbation: float = 0.0,
) -> ResidualReport:
    """One-dimensional cross-check of the comb pairing against the
    oscillatory integral it transforms into.

    Compares 2*pi times the integral of exp(e^(i xi) + x e^(i ell xi))
    psi(-xi) against the comb pairing of the transform
    phi(z) = 2*pi * integral of psi(xi) e^(-i z xi).  ``psi`` takes the
    array of quadrature nodes.  ``perturbation`` is added to ell on the
    integral side only (negative-control hook).
    """
    if nodes < 64:
        raise InvalidInputError("need at least 64 quadrature nodes")
    xi = np.linspace(-support, support, nodes)
    h = xi[1] - xi[0]
    weights = np.full(nodes, h)
    weights[0] = weights[-1] = h / 2.0
    psi_vals = np.asarray(psi(xi), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        kernel = np.exp(np.exp(1j * xi) + x * np.exp(1j * (ell + perturbation) * xi))
        lhs = _TWO_PI * np.sum(weights * kernel * psi_vals[::-1])
    if not np.isfinite(lhs):
        raise ConvergenceError(f"oscillatory quadrature overflowed (support={support}, x={x})")

    weighted, chunk = weights * psi_vals, max(1, _BLOCK_POINTS // nodes)

    def transform(z):  # one sum over the nodes per point, as (chunk x nodes) products
        return np.concatenate([_TWO_PI * np.sum(weighted * np.exp((-1j * z[i:i + chunk])[:, None] * xi), axis=1)
                               for i in range(0, len(z), chunk)])

    rhs = gg_distribution_pair([[ell]], [x], TestFunction(transform), M, R)
    return residual_report(
        "fourier-consistency", [abs(lhs - rhs.value)], [abs(lhs), abs(rhs.value)], tolerance
    )
