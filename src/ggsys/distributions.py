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
from .series import _factorials, _shell_indices
from .verify import ResidualReport, residual_report

_DECAY = 1e-14
_TINY = 1e-300
_TWO_PI = 2.0 * np.pi
_BLOCK_POINTS = 2**17  # support points per block: bounds the double sum's memory


@dataclass(frozen=True)
class TestFunction:
    """Entire test function.  The pairings probe it once per distinct support
    point of a block, in no promised order: with a complex scalar when the
    shift vectors are one-dimensional, a float row otherwise."""

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


def _as_callable(phi):
    return phi.fn if isinstance(phi, TestFunction) else phi


def _truncation(value, name: str) -> int:
    if not float(value).is_integer() or value < 0:
        raise InvalidInputError(f"{name} must be a nonnegative integer")
    return int(value)


def _not_decaying(last, value):
    """The last shell is not negligible against the sum it ends."""
    return (last >= _DECAY * np.maximum(np.abs(value), _TINY)) & (last > _TINY)


def _one_sided(phi, truncation: int, sign: int, what: str) -> PairingResult:
    """sum over m <= truncation of sign^m phi(sign m)/m!, scalar probes."""
    truncation = _truncation(truncation, "truncation")
    fn = _as_callable(phi)
    terms = np.array(
        [sign**m * fn(complex(sign * m)) for m in range(truncation + 1)], dtype=np.complex128
    ) / _factorials(truncation)
    value = complex(sum(terms))
    last = abs(terms[-1])
    if _not_decaying(last, value):
        raise ConvergenceError(
            f"{what}: terms are not decaying at the truncation "
            f"(last magnitude {last:.3e})"
        )
    return PairingResult(value, truncation, 0, last)


def gamma_plus_pair(phi, truncation: int = 40) -> PairingResult:
    """Pairing with the alternating comb on the nonpositive integers:
    sum of (-1)^m phi(-m)/m!.  Scalar probe arguments."""
    return _one_sided(phi, truncation, -1, "gamma-plus pairing")


def gamma_minus_pair(phi, truncation: int = 40) -> PairingResult:
    """Pairing with the comb on the nonnegative integers: sum of phi(m)/m!."""
    return _one_sided(phi, truncation, 1, "gamma-minus pairing")


def _comb_sums(ell: np.ndarray, ms: np.ndarray, fn, R: int):
    """Inner comb sums for a block of outer multi-indices ``ms``: for each m,
    the sum over r in Z_+^n, |r| <= R of phi(m @ ell + r)/prod r!, and the
    magnitude of its last shell |r| = R."""
    n = ell.shape[1]
    shells = _shell_indices(n, R)
    points = (ms.astype(np.float64) @ ell)[:, None, :] + shells
    distinct, inverse = np.unique(points.reshape(-1, n), axis=0, return_inverse=True)
    probes = [fn(complex(p[0])) if n == 1 else fn(p) for p in distinct]
    terms = np.asarray(probes, dtype=np.complex128)[inverse.reshape(points.shape[:2])]
    terms /= np.prod(_factorials(R)[shells], axis=1)
    values = terms.sum(axis=1)
    last = np.abs(terms[:, shells.sum(axis=1) == R]).sum(axis=1)
    bad = np.flatnonzero(_not_decaying(last, values))
    if bad.size:
        raise ConvergenceError(
            "inner comb sum is not decaying at the truncation "
            f"(last shell {last[bad[0]]:.3e})"
        )
    return values, last


def _ell_matrix(ell) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(ell, dtype=np.float64))
    if mat.ndim != 2 or mat.size == 0:
        raise InvalidInputError("need a nonempty matrix of shift vectors")
    return mat


def cm_pair(ell, m, phi, R: int = 40) -> complex:
    """Inner comb coefficient: the pairing of one outer term's support comb
    with the test function.  ``ell`` has one shift vector per row; probes are
    scalars when the vectors are one-dimensional, arrays otherwise."""
    mat = _ell_matrix(ell)
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (mat.shape[0],):
        raise InvalidInputError("multi-index length must match the row count")
    if np.any(m != np.round(m)) or np.any(m < 0):
        raise InvalidInputError("multi-index entries must be nonnegative integers")
    values, _ = _comb_sums(mat, m[None, :], _as_callable(phi), _truncation(R, "R"))
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
    fn = _as_callable(phi)
    outer = _shell_indices(q, M)
    weights = np.prod(x**outer, axis=1) / np.prod(_factorials(M)[outer], axis=1)
    rows = max(1, _BLOCK_POINTS // len(_shell_indices(mat.shape[1], R)))
    blocks = [_comb_sums(mat, outer[i:i + rows], fn, R) for i in range(0, len(outer), rows)]
    inner, inner_last = (np.concatenate(parts) for parts in zip(*blocks))
    terms = inner * weights
    value = complex(terms.sum())
    outer_last = float(np.abs(terms[outer.sum(axis=1) == M]).sum())
    if _not_decaying(outer_last, value):
        raise ConvergenceError(
            f"outer series is not decaying at the truncation ({outer_last:.3e})"
        )
    tail = outer_last + float(np.abs(weights) @ inner_last) + 1e-15 * float(np.abs(terms).sum())
    return PairingResult(value, R, M, tail)


def smooth_bump(half_width: float = 3.0):
    """Gaussian-windowed bump supported on [-half_width, half_width]."""

    def psi(xi: float) -> float:
        t = xi / half_width
        if abs(t) >= 1.0:
            return 0.0
        return float(np.exp(-(xi**2) / 2.0) * np.exp(-1.0 / (1.0 - t * t)))

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
    phi(z) = 2*pi * integral of psi(xi) e^(-i z xi).  ``perturbation`` is
    added to ell on the integral side only (negative-control hook).
    """
    if nodes < 64:
        raise InvalidInputError("need at least 64 quadrature nodes")
    xi = np.linspace(-support, support, nodes)
    h = xi[1] - xi[0]
    weights = np.full(nodes, h)
    weights[0] = weights[-1] = h / 2.0
    psi_vals = np.asarray([psi(float(t)) for t in xi], dtype=np.complex128)
    kernel = np.exp(np.exp(1j * xi) + x * np.exp(1j * (ell + perturbation) * xi))
    lhs = _TWO_PI * np.sum(weights * kernel * psi_vals[::-1])
    if not np.isfinite(lhs):
        raise RuntimeError(
            f"oscillatory quadrature overflowed (support={support}, x={x})"
        )

    def transform(z: complex) -> complex:
        return _TWO_PI * complex(np.sum(weights * psi_vals * np.exp(-1j * z * xi)))

    rhs = gg_distribution_pair([[ell]], [x], transform, M, R)
    return residual_report(
        "fourier-consistency", [abs(lhs - rhs.value)], [abs(lhs), abs(rhs.value)], tolerance
    )
