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
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # fdlibm's split of log 2

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


def _rgamma_right(z):
    """1/Gamma(z) = exp(g - (z - 1/2)(log t - 1)) / (sqrt(2 pi) S(z)), t = z + g - 1/2, on Re z >= 0.5
    (arrays in, arrays out), from one real log and one exp; S is summed in place."""
    w = z - 0.5
    term, series = np.empty_like(w), np.full(z.shape, _LANCZOS_C[0], dtype=np.complex128)
    for k in range(1, len(_LANCZOS_C)):
        series += np.divide(_LANCZOS_C[k], np.add(w, k - 0.5, out=term), out=term)
    t = w + _LANCZOS_G
    m, e = np.frexp(np.abs(t))  # log|t| - 1 = (e log 2 - 1) + log m: log rounds on |log m| < 0.7
    high, log_m = e * _LN2_HI - 1.0, np.log(m)  # high is exact: e < 2^11, _LN2_HI has 32 bits
    term.real, term.imag = high + log_m, np.arctan2(t.imag, t.real)
    low = (high - term.real) + log_m + e * _LN2_LO  # what term.real dropped, as |high| > 1 > |log m|
    return np.exp((_LANCZOS_G - _HALF_LOG_TWO_PI) - w * term) * (1.0 - w * low) / series


def rgamma(z):
    """Entire reciprocal gamma, 1/Gamma(z), vectorized over numpy arrays.

    Exactly 0 at z in {0, -1, -2, ...} (inputs within 1e-12 of such a point are snapped); real,
    +-inf past the double range, at real z.  Worst relative error measured against mpmath on the
    points of tests/test_gammafn.py: 3.5e-14 (|z| <= 60), 1.4e-13 (|z| in 101..170), 2.6e-14 (1e-12..1e-3
    off the poles 0..-50).  Each value depends on its own z only, so the points run in blocks of _BLOCK.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty(z.shape, dtype=np.complex128)
    flat_z, flat_out = z.reshape(-1), out.reshape(-1)
    for start in range(0, z.size, _BLOCK):
        zf, block = flat_z[start:start + _BLOCK], flat_out[start:start + _BLOCK]
        left = zf.real < 0.5
        block[:] = _rgamma_right(np.where(left, 1.0 - zf, zf))
        pole = _pole_mask(zf)
        block[pole] = 0.0
        left &= ~pole
        # reflection: 1/Gamma(z) = sin(pi z)/pi / rgamma(1-z), with sin(pi z)
        # taken from z - round(z) so that it keeps its digits near the poles
        zl = zf[left]
        k = np.round(zl.real)
        block[left] = (1.0 - 2.0 * (k % 2)) * np.sin(np.pi * (zl - k)) / np.pi / block[left]
        block.imag[left & (zf.imag == 0.0)] = 0.0  # past the double range x / 0j is inf + nan j
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
    with np.errstate(all="ignore"):  # Gamma past either end of the range is reported by name
        return _finite(1.0 / _finite(rgamma(z), what), what)
