"""Complex gamma utilities: entire reciprocal gamma and the shared pole predicate.

Every series coefficient in this package runs through ``rgamma``, so it has
to be vectorized, accurate to ~1e-13 at desk scale, and *exactly* zero at the
poles of gamma; an almost-zero there would leak catastrophic noise into the
series tails.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, PoleError

# Lanczos approximation, g = 607/128 with 15 coefficients (Godfrey's set).
# Good to roughly 1e-13 relative on the half plane Re z >= 0.5; the
# reflection formula carries that to the rest of the plane.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array(
    [
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        0.33994649984811888699e-4,
        0.46523628927048575665e-4,
        -0.98374475304879564677e-4,
        0.15808870322491248884e-3,
        -0.21026444172410488319e-3,
        0.21743961811521264320e-3,
        -0.16431810653676389022e-3,
        0.84418223983852743293e-4,
        -0.26190838401581408670e-4,
        0.36899182659531622704e-5,
    ]
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# snap-to-pole window around the non-positive integers
_POLE_SNAP = 1e-12

# rgamma points per block: 8192 complex values are 128 KiB per temporary
_BLOCK = 8192


def _pole_mask(z):
    """True where z lies within _POLE_SNAP, in both real and imaginary part,
    of a non-positive integer: the points where 1/Gamma is snapped to 0."""
    z = np.asarray(z, dtype=np.complex128)
    nearest = np.round(z.real)
    return (
        (np.abs(z.real - nearest) <= _POLE_SNAP)
        & (np.abs(z.imag) <= _POLE_SNAP)
        & (nearest <= 0.0)
    )


def _log_gamma_right(z):
    """Principal log-gamma on Re z >= 0.5 (arrays in, arrays out)."""
    zz = z - 1.0
    t = zz + _LANCZOS_G + 0.5
    series = np.full(z.shape, _LANCZOS_C[0], dtype=np.complex128)
    for k in range(1, len(_LANCZOS_C)):
        series = series + _LANCZOS_C[k] / (zz + k)
    return _HALF_LOG_TWO_PI + (zz + 0.5) * np.log(t) - t + np.log(series)


def rgamma(z):
    """Entire reciprocal gamma, 1/Gamma(z), vectorized over numpy arrays.

    Exactly 0 at z in {0, -1, -2, ...} (inputs within 1e-12 of such a point
    are snapped).  Relative accuracy is ~1e-13 for |z| <= 50, right up to
    the snapping window.  Each value depends on its own z only, so the
    points run in blocks of _BLOCK, whose temporaries stay in cache.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty(z.shape, dtype=np.complex128)
    flat_z, flat_out = z.reshape(-1), out.reshape(-1)
    for start in range(0, z.size, _BLOCK):
        zf, block = flat_z[start:start + _BLOCK], flat_out[start:start + _BLOCK]
        pole = _pole_mask(zf)
        left = (zf.real < 0.5) & ~pole
        right = ~left & ~pole

        block[pole] = 0.0
        if np.any(right):
            block[right] = np.exp(-_log_gamma_right(zf[right]))
        if np.any(left):
            zl = zf[left]
            # reflection: 1/Gamma(z) = sin(pi z)/pi * Gamma(1-z), with sin(pi z)
            # taken from z - round(z) so that it keeps its digits near the poles
            k = np.round(zl.real)
            sinpi = (1.0 - 2.0 * (k % 2)) * np.sin(np.pi * (zl - k))
            block[left] = sinpi / np.pi * np.exp(_log_gamma_right(1.0 - zl))
    return complex(out) if z.ndim == 0 else out


def _finite(values, what):
    """``values``, or ConvergenceError naming ``what`` if any entry is inf or NaN."""
    if not np.isfinite(values).all():
        raise ConvergenceError(f"{what} leaves the double range")
    return values


def _gamma(z, offender, what):
    """Gamma(z) = 1/rgamma(z) for the numerator factor ``what``: PoleError listing
    ``offender(*index)`` per pole of z, ConvergenceError past the double range."""
    pole = _pole_mask(z)
    if pole.any():
        raise PoleError(
            f"{what} hits a pole inside the truncation range",
            offenders=[offender(*index) for index in zip(*np.nonzero(pole))],
        )
    with np.errstate(all="ignore"):  # an overflow is reported by name below
        return _finite(1.0 / rgamma(z), what)
