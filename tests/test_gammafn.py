import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsys.gammafn import gamma_fn, gamma_value, rgamma


def test_half_integer():
    assert rgamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)


def test_factorials():
    for k in range(1, 12):
        assert rgamma(k + 1) == pytest.approx(1.0 / math.factorial(k), rel=1e-12)


def test_poles_are_exact_zero():
    z = np.array([0.0, -1.0, -2.0, -17.0])
    assert np.all(rgamma(z) == 0.0)


def test_near_pole_snaps():
    assert rgamma(-3.0 + 1e-13) == 0.0
    assert rgamma(-3.0 + 1e-13j) == 0.0


def test_just_off_pole_is_finite_nonzero():
    v = rgamma(-3.0 + 1e-6)
    assert v != 0.0
    assert np.isfinite(v)


def test_near_pole_digits_against_mpmath():
    # resonance hyperplanes put parameters just off the poles: sin(pi z) must
    # be reduced by the nearest integer before it is formed
    worst = 0.0
    for pole in range(-1, -51, -1):
        for d in (1e-11, 1e-9, 1e-7, 1e-5, 1e-3):
            for z in (pole + d, pole - d, complex(pole, d), complex(pole - d, -d)):
                with mpmath.workdps(40):
                    want = complex(mpmath.rgamma(mpmath.mpc(z)))
                worst = max(worst, abs(rgamma(z) - want) / abs(want))
    assert worst <= 1e-13


def test_against_scipy_on_grid():
    # independent implementation check on a grid straddling the reflection cut
    re = np.linspace(-8.3, 8.3, 41)
    im = np.linspace(-6.1, 6.1, 31)
    z = re[:, None] + 1j * im[None, :]
    ours = rgamma(z)
    ref = scipy.special.rgamma(z)
    assert np.max(np.abs(ours - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_gamma_value_reports_pole():
    gv = gamma_value(-2.0)
    assert gv.is_pole
    assert gv.reciprocal == 0.0
    gv = gamma_value(0.5)
    assert not gv.is_pole
    assert gv.value == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_fn_matches_reciprocal():
    z = np.array([0.25 + 1j, 3.5, -1.25, 2.0 - 0.5j])
    assert np.allclose(gamma_fn(z) * rgamma(z), 1.0, atol=1e-12)


def test_gamma_fn_pole_is_inf():
    assert np.isinf(np.abs(gamma_fn(-4.0)))


@st.composite
def off_pole_points(draw):
    re = draw(st.floats(min_value=-20, max_value=20))
    im = draw(st.floats(min_value=-20, max_value=20))
    z = complex(re, im)
    # keep a respectful distance from the poles on the real axis
    if abs(im) < 0.1 and re < 0.5 and abs(re - round(re)) < 0.1:
        z += 0.25 + 0.25j
    return z


@given(off_pole_points())
@settings(max_examples=200)
def test_recurrence_property(z):
    # 1/Gamma(z+1) = (1/Gamma(z)) / z
    lhs = rgamma(z + 1)
    rhs = rgamma(z) / z
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-30)


@given(off_pole_points())
@settings(max_examples=200)
def test_conjugate_symmetry(z):
    assert rgamma(np.conj(z)) == pytest.approx(np.conj(rgamma(z)), rel=1e-10, abs=1e-300)
