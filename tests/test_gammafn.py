import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import ggsys.gammafn as gammafn
from ggsys.gammafn import rgamma


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




def test_large_arrays_run_in_bit_identical_blocks(monkeypatch):
    rng = np.random.default_rng(5)
    z = rng.uniform(-40, 40, 20_001) + 1j * rng.uniform(-5, 5, 20_001)
    z[::97] = np.round(z[::97].real)  # poles inside the blocks
    # small arrays take one block each: the values, whatever the split
    pieces = np.concatenate([rgamma(z[i:i + 1000]) for i in range(0, len(z), 1000)])
    blocks = []
    mask = gammafn._pole_mask
    monkeypatch.setattr(gammafn, "_pole_mask", lambda part: blocks.append(part.size) or mask(part))
    # a strided 2-D view: values come back in its shape and order
    got = rgamma(z.reshape(3, 6667)[:, ::-1])
    assert blocks == [8192, 8192, 3617]
    assert got.shape == (3, 6667)
    assert got.tobytes() == pieces.reshape(3, 6667)[:, ::-1].tobytes()
    assert rgamma(z).tobytes() == pieces.tobytes()
    assert isinstance(rgamma(z[0]), complex) and rgamma(z[0]) == pieces[0]
