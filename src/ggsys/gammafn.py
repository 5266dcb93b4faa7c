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

# past |Im z| = 200 the reflection's sine (e^{pi |Im z|} / 2, past the range at 226) or the
# Lanczos exponential (at 451) may overflow; left of Re z = -170, off the real axis, 1/Gamma(1 - z)
# may fall below the normal range (at -171) and the reflection's quotient lose its digits or overflow
_FAR_IMAG, _FAR_LEFT = 200.0, -170.0
_LOG_MAX = math.log(np.finfo(np.float64).max)


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


def _lanczos(z):
    """(E, D, S) with 1/Gamma(z) = exp(E - D) / S ~ exp(E) * (1 - D) / S on Re z >= 0.5 (arrays in,
    arrays out): E = g - log sqrt(2 pi) - (z - 1/2)(log t - 1), t = z + g - 1/2, from one real log
    and one arctan2; D = (z - 1/2) * (what log|t| - 1 drops in rounding); S is summed in place."""
    w = z - 0.5
    term, series = np.empty_like(w), np.full(z.shape, _LANCZOS_C[0], dtype=np.complex128)
    for k in range(1, len(_LANCZOS_C)):
        series += np.divide(_LANCZOS_C[k], np.add(w, k - 0.5, out=term), out=term)
    t = w + _LANCZOS_G
    m, e = np.frexp(np.abs(t))  # log|t| - 1 = (e log 2 - 1) + log m: log rounds on |log m| < 0.7
    high, log_m = e * _LN2_HI - 1.0, np.log(m)  # high is exact: e < 2^11, _LN2_HI has 32 bits
    term.real, term.imag = high + log_m, np.arctan2(t.imag, t.real)
    low = (high - term.real) + log_m + e * _LN2_LO  # what term.real dropped, as |high| > 1 > |log m|
    return (_LANCZOS_G - _HALF_LOG_TWO_PI) - w * term, w * low, series


def _rgamma_direct(z, out):
    """1/Gamma(z) into ``out``: exp(E) * (1 - D) / S right of Re z = 1/2, the reflection left of it."""
    left = z.real < 0.5
    E, D, S = _lanczos(np.where(left, 1.0 - z, z))
    out[:] = np.exp(E) * (1.0 - D) / S
    pole = _pole_mask(z)
    out[pole] = 0.0
    left &= ~pole
    # reflection: 1/Gamma(z) = sin(pi z)/pi / rgamma(1-z), with sin(pi z)
    # taken from z - round(z) so that it keeps its digits near the poles
    zl = z[left]
    k = np.round(zl.real)
    out[left] = (1.0 - 2.0 * (k % 2)) * np.sin(np.pi * (zl - k)) / np.pi / out[left]
    out.imag[left & (z.imag == 0.0)] = 0.0  # past the double range x / 0j is inf + nan j


def _rgamma_scaled(z):
    """1/Gamma(z) as exp(E) * q: the reflection's sine scaled by e^{-pi |Im z|} into q and
    e^{pi |Im z|} folded into E, exp(E) applied in two halves; past the double range an infinity in
    the quadrant of the value."""
    # past |z| ~ 1e305, w (log t - 1) overflows; at |z| = 1e300 the value is 0 or infinite in the
    # same directions but for a sliver of 1e-4 rad around the boundary
    scale = np.maximum(np.abs(z.real), np.abs(z.imag))
    z = np.where(scale > 1e300, z * (1e300 / scale), z)
    left = z.real < 0.5
    E, D, S = _lanczos(np.where(left, 1.0 - z, z))
    E -= D
    q = 1.0 / S  # 1/Gamma(z) = exp(E) * q right of 1/2
    k = np.round(z.real[left])
    a, b = z.real[left] - k, z.imag[left]
    grow = np.pi * np.abs(b)
    fade = -np.expm1(-2.0 * grow)  # 2 cosh(pi b) and 2 sinh(pi |b|) times e^{-pi |b|} are 2 - fade and fade
    sine = np.empty_like(q[left])
    sine.real, sine.imag = 0.5 * np.sin(np.pi * a) * (2.0 - fade), 0.5 * np.copysign(np.cos(np.pi * a), b) * fade
    q[left] = (1.0 - 2.0 * (k % 2)) * sine / np.pi / q[left]
    E[left] = grow - E[left]
    size = E.real + np.log(np.abs(q))  # log|1/Gamma(z)|, NaN where E itself overflowed
    big = ~(size < _LOG_MAX - 0.5)  # below it neither half nor their product overflows
    fits = ~big & (size > -800.0)  # below -800 the value is 0 whatever its phase
    value = np.zeros_like(q)
    half = np.exp(0.5 * E[fits])
    value[fits] = q[fits] * half * half
    phase = np.angle(q[big]) + E.imag[big]
    value.real[big], value.imag[big] = np.copysign(np.inf, np.cos(phase)), np.copysign(np.inf, np.sin(phase))
    return value


def rgamma(z):
    """Entire reciprocal gamma, 1/Gamma(z), vectorized over numpy arrays.

    Exactly 0 at z in {0, -1, -2, ...} (inputs within 1e-12 of such a point are snapped); real,
    +-inf past the double range, at real z; an infinity, never NaN, past it elsewhere.  Worst relative
    error measured against mpmath on the points of tests/test_gammafn.py: 3.5e-14 (|z| <= 60), 1.4e-13
    (|z| in 101..170), 2.6e-14 (1e-12..1e-3 off the poles 0..-50), 3.5e-13 (226 < |Im z| <= 400, left of
    1/2).  Each value depends on its own z only, so the points run in blocks of _BLOCK; only blocks
    holding points far from the real axis, or far left of it, take ``_rgamma_scaled``.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty(z.shape, dtype=np.complex128)
    flat_z, flat_out = z.reshape(-1), out.reshape(-1)
    for start in range(0, z.size, _BLOCK):
        zf, block = flat_z[start:start + _BLOCK], flat_out[start:start + _BLOCK]
        parts, far = zf.view(np.float64), False  # re, im, re, ...: two contiguous reductions screen a block
        if parts.max() > _FAR_IMAG or parts.min() < _FAR_LEFT:
            far = (np.abs(zf.imag) > _FAR_IMAG) | ((zf.real < _FAR_LEFT) & (zf.imag != 0.0))
        if np.any(far):
            _rgamma_direct(np.where(far, 1.0, zf), block)
            z_far = zf[far]
            value = np.empty_like(z_far)
            with np.errstate(all="ignore"):  # the direct path may overflow midway here: what it spoils is redone
                _rgamma_direct(z_far, value)
                redo = ~np.isfinite(value)
                value[redo] = _rgamma_scaled(z_far[redo])
            block[far] = value
        else:
            _rgamma_direct(zf, block)
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
