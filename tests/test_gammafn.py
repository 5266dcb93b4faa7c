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


@pytest.mark.parametrize("z, want", [(-200.5, -math.inf), (-171.5, math.inf)])
def test_real_arguments_past_the_double_range_give_real_infinities(z, want):
    # |1/Gamma| is above the double range: a signed infinity, not inf + nan j,
    # beside a complex point in one block as well as alone
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        got = rgamma(np.array([z, z + 0.25j]))
    assert got[0].real == want and got[0].imag == 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        assert rgamma(z) == complex(want, 0.0)


@pytest.mark.parametrize("z", [1e160, -1e160, 1e300])
def test_huge_real_arguments_give_zero_without_floating_point_events(z):
    # |t| is taken without squaring its parts: 1/Gamma underflows, nothing overflows
    with np.errstate(all="raise", under="ignore"):
        got = rgamma(z)
    assert got == 0.0 and got.imag == 0.0


def test_real_argument_below_the_double_range_stays_real():
    got = rgamma(171.7)  # 1/Gamma(171.7) is a subnormal double
    with mpmath.workdps(40):
        want = float(mpmath.rgamma(171.7))
    assert got.imag == 0.0 and 0.0 < got.real < 1e-307
    assert got.real == pytest.approx(want, rel=1e-12)


def _band(name):
    """Sample points of one accuracy band: uniform in an annulus of |z|, or
    1e-12..1e-3 off each pole 0..-50 along and across the real axis."""
    rng = np.random.default_rng(2024)
    if name == "near":
        offsets = np.logspace(-11.8, -3, 10)
        return np.array([
            v for pole in range(0, -51, -1) for d in offsets
            for v in (pole + d, pole - d, complex(pole, d), complex(pole - d, -d))
        ])
    if name == "far":  # left of 1/2, 226 < |Im z| <= 400: sin(pi z) leaves the double range
        return rng.uniform(-30.0, 0.5, 800) + 1j * rng.choice([-1.0, 1.0], 800) * rng.uniform(226.0, 400.0, 800)
    lo, hi = {"le60": (0.05, 60.0), "101-170": (101.0, 170.0)}[name]
    radius = np.sqrt(rng.uniform(lo**2, hi**2, 800))
    return radius * np.exp(1j * rng.uniform(-np.pi, np.pi, 800))


# Each bound of the first three is the worst relative error that the two-log
# Lanczos form (exp(-log Gamma)) reached on the same points, measured at 40
# digits; the one-log form, whose log|t| carries its low part, measures
# 3.5e-14, 1.4e-13 and 2.6e-14 with numpy 2.4 on an x86-64 with AVX-512, about
# 1/1.57 of each bound.  The far band measures 3.5e-13 there, with or without
# numpy's dispatched SIMD; its bound keeps the same 1.57.  Its error is that of
# exp(E) with |E| up to pi * 400.
@pytest.mark.parametrize(
    "name, bound", [("le60", 5.5e-14), ("101-170", 2.2e-13), ("near", 4.08e-14), ("far", 5.5e-13)]
)
def test_relative_error_against_mpmath_by_band(name, bound):
    z = _band(name)
    with mpmath.workdps(40):
        want = np.array([complex(mpmath.rgamma(mpmath.mpc(v))) for v in z])
    keep = (np.abs(want) > 1e-300) & (np.abs(want) < 1e300)  # values inside the double range
    assert keep.mean() > 0.8
    rel = np.abs(rgamma(z[keep]) - want[keep]) / np.abs(want[keep])
    assert rel.max() <= bound


@pytest.mark.parametrize("z", [-0.5 + 300j, -3.5 + 230j, -10.5 + 250j, -0.5 + 400j])
def test_a_finite_value_past_the_sine_overflow_stays_finite(z):
    # sin(pi z) is past the double range there, the reflection's quotient is not
    with np.errstate(all="raise", under="ignore"):
        got = rgamma(z)
    with mpmath.workdps(40):
        want = complex(mpmath.rgamma(mpmath.mpc(z)))
    assert abs(got - want) <= 5.5e-13 * abs(want)


@pytest.mark.parametrize("z", [0.5 + 460j, 0.5 - 460j, -0.5 + 500j, -3.25 - 480j, -200.5 + 1j, -300.25 - 0.5j])
def test_past_the_double_range_off_the_real_axis_gives_an_infinity_in_its_quadrant(z):
    with np.errstate(all="raise", under="ignore"):
        got = rgamma(np.array([z, 0.3 + 0.1j]))  # beside an ordinary point
    with mpmath.workdps(40):
        want = mpmath.rgamma(mpmath.mpc(z))
    assert np.isinf(got[0].real) and np.isinf(got[0].imag)
    assert (np.sign(got[0].real), np.sign(got[0].imag)) == (mpmath.sign(want.real), mpmath.sign(want.imag))
    assert got[1] == rgamma(0.3 + 0.1j)


@pytest.mark.parametrize("z, infinite", [
    (1.7e308 + 1.7e308j, False), (1.7e308 - 1.7e308j, False), (-1.7e308 + 1.7e308j, True), (0.5 + 1.7e308j, True),
])
def test_near_the_top_of_the_double_range_the_value_is_zero_or_infinite_as_mpmath_says(z, infinite):
    # (z - 1/2)(log t - 1) overflows there
    with mpmath.workdps(30):
        assert (mpmath.loggamma(mpmath.mpc(z)).real < 0) == infinite  # log|1/Gamma(z)| > 0
    with np.errstate(all="ignore"):
        got = rgamma(z)
    assert np.isinf(got) if infinite else got == 0


def test_no_finite_argument_gives_nan():
    mags = np.concatenate([[0.0], np.logspace(-3, 308, 150), np.linspace(0.25, 500, 80)])
    parts = np.concatenate([mags, -mags, -mags - 0.5])
    z = (parts[:, None] + 1j * parts[None, :]).ravel()
    with np.errstate(all="ignore"):  # real arguments past the range keep their events
        got = rgamma(z)
    assert not (np.isnan(got.real) | np.isnan(got.imag)).any()
    assert np.isinf(rgamma(0.5 + 1e160j))


def test_a_far_point_leaves_the_rest_of_its_block_as_it_was():
    rng = np.random.default_rng(7)
    z = rng.uniform(-40, 40, 3000) + 1j * rng.uniform(-5, 5, 3000)
    z[::300] = np.round(z[::300].real)  # poles
    mixed = z.copy()
    mixed[1::500], mixed[2::500] = -0.5 + 300j, -250.25 + 0.5j
    keep = mixed == z
    assert rgamma(mixed)[keep].tobytes() == rgamma(z)[keep].tobytes()


def test_this_file_passes_with_numpy_simd_dispatch_off(rerun_without_simd):
    # the mpmath band bounds keep about 36% headroom on numpy's AVX2/FMA loops, 9-27% without them
    rerun_without_simd(__file__)
