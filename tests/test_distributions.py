import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ggsys import distributions
from ggsys.distributions import (
    _BLOCK_POINTS,
    _distinct_rows,
    PairingResult,
    TestFunction,
    cm_pair,
    fourier_consistency_check,
    gamma_minus_pair,
    gamma_plus_pair,
    gg_distribution_pair,
    smooth_bump,
)
from ggsys.errors import ConvergenceError, InvalidInputError

E = math.e


def _per_point(f):
    """f probed one point at a time, as a function of a block's points: a
    complex scalar for one-dimensional shift vectors, else a float row."""
    return lambda z: np.asarray([f(complex(p)) if z.ndim == 1 else f(p) for p in z], np.complex128)


def test_gamma_minus_constant_gives_e():
    got = gamma_minus_pair(TestFunction(lambda s: 1.0))
    assert abs(got.value - E) <= 1e-12
    assert got.tail_estimate >= 0


def test_gamma_plus_constant_gives_inverse_e():
    got = gamma_plus_pair(TestFunction(lambda s: 1.0))
    assert abs(got.value - 1 / E) <= 1e-12


def test_gamma_plus_linear_gives_inverse_e():
    got = gamma_plus_pair(TestFunction(lambda s: s))
    assert abs(got.value - 1 / E) <= 1e-12


def test_gamma_pairings_exponential_family():
    # closed forms: sum of e^(c m)/m! = exp(e^c); alternating analogue
    for c in (0.0, 0.4, -0.8, 0.3j):
        minus = gamma_minus_pair(lambda s, c=c: np.exp(c * s)).value
        plus = gamma_plus_pair(lambda s, c=c: np.exp(c * s)).value
        assert abs(minus - np.exp(np.exp(c))) <= 1e-12 * abs(np.exp(np.exp(c)))
        assert abs(plus - np.exp(-np.exp(-c))) <= 1e-12


def test_gamma_pairing_rejects_growth():
    # super-factorial growth, kept below double-precision overflow
    with pytest.raises(ConvergenceError):
        gamma_minus_pair(lambda s: np.exp(1.5 * s * np.log(s + 1.0)))
    # a sum that overflows or turns NaN fails closed; the overflow is the point
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="^gamma-minus pairing is not decaying"):
            gamma_minus_pair(lambda s: np.exp(800 * s))
    with pytest.raises(ConvergenceError, match="^gamma-plus pairing is not decaying"):
        gamma_plus_pair(lambda s: np.nan)
    # a non-finite probe fails closed without a RuntimeWarning from the sums
    with pytest.raises(ConvergenceError, match="^gamma-minus pairing is not decaying"):
        gamma_minus_pair(lambda s: complex(float("inf"), float("nan")))


def test_one_sided_pairings_probe_the_unit_comb():
    # each probes complex(+-m), m = 0..R, in one complex array, with a +0.0 imaginary
    # part (and real part at m = 0); the minus pairing is the comb pairing at m = 0,
    # bit for bit, for a function on arrays and for one probed point by point
    bits = lambda z: (z.real.hex(), z.imag.hex())
    for pair, sign in ((gamma_plus_pair, -1), (gamma_minus_pair, 1)):
        blocks = []
        pair(lambda s: blocks.append(s) or 1.0, 30)
        assert len(blocks) == 1 and blocks[0].dtype == np.complex128
        probes = sorted(blocks[0].tolist(), key=lambda z: sign * z.real)
        assert [bits(z) for z in probes] == [bits(complex(sign * m)) for m in range(31)]
    for f in (lambda s: 1.0, lambda s: np.exp(0.4 * s), lambda s: s**3 * np.exp(-0.8j * s)):
        for phi, R in itertools.product((f, _per_point(f)), (30, 40)):
            assert bits(gamma_minus_pair(phi, R).value) == bits(cm_pair([[1.0]], [0], phi, R))


def test_only_blocks_of_several_outer_indices_are_deduplicated(monkeypatch):
    # the points of one outer index m are m @ ell + r over distinct shells r,
    # distinct by construction, so one-index combs skip _distinct_rows
    calls = []
    monkeypatch.setattr(distributions, "_distinct_rows", lambda rows: calls.append(len(rows)) or _distinct_rows(rows))
    phi = lambda s: np.exp(-0.3 * np.sum(s))
    gamma_plus_pair(phi), gamma_minus_pair(phi), cm_pair([[1.0, 0.5], [0.3, 2.0]], [2, 1], phi)
    assert calls == []
    gg_distribution_pair([[1.0]], [0.5], phi)
    assert calls == [26 * 41]  # outer m = 0..25, inner r = 0..40: one block


def _analytic_family():
    for k in range(5):
        for c in (0.3, -0.4, 0.8j, 1.1):
            yield lambda s, k=k, c=c: s**k * np.exp(c * s)


def test_comb_pairings_reject_growth():
    grow = lambda s: np.exp(1.5 * s * np.log(s + 1.0))
    with pytest.raises(ConvergenceError, match="inner comb sum"):
        cm_pair([[1.0]], [0], grow)
    with pytest.raises(ConvergenceError, match="inner comb sum"):
        gg_distribution_pair([[1.0]], [0.3], grow)
    with pytest.raises(ConvergenceError, match="outer series"):
        gg_distribution_pair([[1.0]], [40.0], lambda s: 1.0)
    # a NaN sum or an overflowing last shell fails closed
    with pytest.raises(ConvergenceError, match="^inner comb sum is not decaying"):
        cm_pair([[1.0]], [0], lambda s: np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match=r"^outer series is not decaying .*\(nan\)"):
            gg_distribution_pair([[1.0]], [1e30], lambda s: 1.0)


def test_functional_relations_at_pairing_level():
    # shifting the argument one step equals multiplying by the variable
    count = 0
    for phi in _analytic_family():
        plus_shift = gamma_plus_pair(lambda s, f=phi: f(s - 1)).value
        plus_mult = gamma_plus_pair(lambda s, f=phi: s * f(s)).value
        assert abs(plus_shift - plus_mult) <= 1e-10 * max(1.0, abs(plus_mult))
        minus_shift = gamma_minus_pair(lambda s, f=phi: f(s + 1)).value
        minus_mult = gamma_minus_pair(lambda s, f=phi: s * f(s)).value
        assert abs(minus_shift - minus_mult) <= 1e-10 * max(1.0, abs(minus_mult))
        count += 1
    assert count == 20


def test_cm_zero_index_reduces_to_comb():
    assert abs(cm_pair([[1.0]], [0], lambda s: 1.0) - E) <= 1e-12


def test_cm_constant_is_shift_independent():
    assert abs(cm_pair([[1.0]], [2], lambda s: 1.0) - E) <= 1e-12


def test_cm_linear_probe():
    # sum over r of (1 + r)/r! = 2e
    assert abs(cm_pair([[1.0]], [1], lambda s: s) - 2 * E) <= 1e-12


def test_cm_input_validation():
    with pytest.raises(InvalidInputError):
        cm_pair([[1.0]], [1, 2], lambda s: 1.0)


def test_pairings_reject_out_of_range_inputs():
    one = lambda s: 1.0
    with pytest.raises(InvalidInputError):
        gamma_plus_pair(one, truncation=-1)
    with pytest.raises(InvalidInputError):
        gg_distribution_pair([[1.0]], [0.3], one, M=-1)
    with pytest.raises(InvalidInputError):
        cm_pair([[1.0]], [0], one, R=-1)
    with pytest.raises(InvalidInputError):
        cm_pair([[1.0]], [0.5], one)
    with pytest.raises(InvalidInputError):
        cm_pair([[1.0]], [-2], one)


def test_gg_pair_probes_each_support_point_once():
    # q = n = 2, M = 20, R = 30: 114,576 support terms on 1,926 distinct
    # points.  For phi = e^(c.z) (1 + z_0/2 i) the double sum has the closed
    # form F (1 + i/2 (sum_i x_i ell_i0 e^(c.ell_i) + e^(c_0))) with
    # F = exp(sum_i x_i e^(c.ell_i) + sum_j e^(c_j)).
    ell = np.array([[1.0, -1.0], [0.0, 1.0]])
    x = np.array([0.3, -0.2 + 0.1j])
    c = np.array([0.1, -0.2])
    calls, blocks = {}, []

    def f(z):  # one point
        key = tuple(z.tolist())
        calls[key] = calls.get(key, 0) + 1
        return np.exp(c @ z) * (1 + 0.5j * z[0])

    def phi(z):  # a block's (P, 2) points
        blocks.append(len({tuple(p) for p in z.tolist()}) == len(z) == 1926)
        return np.exp(z @ c) * (1 + 0.5j * z[:, 0])

    got = gg_distribution_pair(ell, x, _per_point(f), M=20, R=30).value
    assert sum(calls.values()) == 1926 and max(calls.values()) == 1
    on_arrays = gg_distribution_pair(ell, x, phi, M=20, R=30).value
    assert blocks == [True]
    e = np.exp(ell @ c)
    want = np.exp(x @ e + np.exp(c).sum()) * (1 + 0.5j * (x @ (ell[:, 0] * e) + np.exp(c[0])))
    for value in (got, on_arrays):
        assert abs(value - want) <= 1e-14 * abs(want)
        # the value the per-probe summation gave
        assert abs(value - (8.148202293810591 + 7.271560364019235j)) <= 1e-14 * abs(want)


def test_gg_pair_memory_is_bounded_by_the_block():
    # 39,711 outer indices times 41 inner shells: the support holds more than
    # ten blocks of points, yet peak memory stays at one block's worth
    calls = [0]

    def phi(s):
        calls[0] += 1
        return 1.0

    support = math.comb(63, 3) * 41
    assert support > 10 * _BLOCK_POINTS
    tracemalloc.start()
    try:
        got = gg_distribution_pair([[1.0], [0.5], [0.25]], [0.3, -0.2, 0.1], phi, M=60, R=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got.value - np.exp(1.2)) <= 1e-13 * np.exp(1.2)
    assert peak <= 100 * _BLOCK_POINTS  # 13 MB; the support's terms alone need 26 MB
    assert calls[0] <= support // 100


def test_a_test_function_sees_one_array_per_block():
    # a (P,) complex array of distinct points when the shift vectors are 1-D, a (P, n) float array
    # otherwise, once per block, whether or not it is a TestFunction; the values are those of the
    # same function probed point by point
    calls = []

    def phi(z):
        calls.append((z.shape, z.dtype, len({tuple(np.atleast_1d(p).tolist()) for p in z})))
        return np.exp(-0.3 * (z if z.ndim == 1 else z.sum(axis=1)))

    one = _per_point(lambda p: np.exp(-0.3 * np.sum(p)))
    cases = [
        (lambda f: gamma_plus_pair(f, 30), [((31,), np.complex128, 31)]),
        (lambda f: gamma_minus_pair(f, 30), [((31,), np.complex128, 31)]),
        (lambda f: cm_pair([[1.0, 0.5], [0.3, 2.0]], [2, 1], f, 20), [((231,), np.float64, 231)]),
        (lambda f: gg_distribution_pair([[1.0]], [0.5], f), [((66,), np.complex128, 66)]),
    ]
    for (pairing, want), form in itertools.product(cases, (TestFunction, lambda f: f)):
        calls.clear()
        got = pairing(form(phi))
        assert [(shape[:1], dtype, count) for shape, dtype, count in calls] == want
        assert calls[0][0] == want[0][0] + ((2,) if want[0][1] == np.float64 else ())
        assert repr(got) == repr(pairing(one))
    # 39,711 outer indices at 3,196 per block (41 inner shells each): 13 blocks, 13 calls
    calls.clear()
    gg_distribution_pair([[1.0], [0.5], [0.25]], [0.3, -0.2, 0.1], TestFunction(phi), M=60, R=40)
    assert len(calls) == -(-math.comb(63, 3) // (_BLOCK_POINTS // 41)) == 13
    assert all(len(shape) == 1 and dtype == np.complex128 and count == shape[0] for shape, dtype, count in calls)


def test_gg_pair_double_exponential():
    # constant test function: sum x^m/m! times sum 1/r! = e^(x+1)
    for x in (1.0, 0.3, -0.2 + 0.1j):
        got = gg_distribution_pair([[1.0]], [x], lambda s: 1.0)
        assert abs(got.value - np.exp(x + 1)) <= 1e-10
    at_one = gg_distribution_pair([[1.0]], [1.0], lambda s: 1.0)
    assert abs(at_one.value - E**2) <= 1e-10


def test_gg_pair_at_zero_argument():
    got = gg_distribution_pair([[1.0]], [0.0], lambda s: np.exp(0.3 * s))
    assert abs(got.value - cm_pair([[1.0]], [0], lambda s: np.exp(0.3 * s))) <= 1e-14


def test_gg_pair_linearity():
    f1 = lambda s: np.exp(0.2 * s)
    f2 = lambda s: s**2
    both = lambda s: f1(s) + f2(s)
    x = [0.4]
    a = gg_distribution_pair([[1.0]], x, f1).value
    b = gg_distribution_pair([[1.0]], x, f2).value
    c = gg_distribution_pair([[1.0]], x, both).value
    assert abs(c - (a + b)) <= 1e-12 * max(1.0, abs(c))


def test_gg_pair_truncation_growth_bounded_by_tail():
    phi = lambda s: np.exp(0.1 * s) * (s + 2)
    small = gg_distribution_pair([[1.0]], [0.6], phi, M=25, R=40)
    large = gg_distribution_pair([[1.0]], [0.6], phi, M=30, R=45)
    assert abs(small.value - large.value) <= 10 * small.tail_estimate
    assert isinstance(small, PairingResult)
    assert small.outer_truncation == 25 and small.inner_truncation == 40


def test_cm_matches_multinomial_expansion():
    # expand exp(y1 + y2 + x z) by total degree; the coefficient of
    # y1^i y2^j z^k probes the test function at frequency (i+k, j+k)
    ell = [(1.0, 1.0)]
    x = 0.3
    f = lambda z: np.exp(0.2 * z[0] - 0.1 * z[1]) * (z[0] + 1)  # at one point
    phi = lambda z: f(z.T)  # at a block's (P, 2) points
    brute = 0.0 + 0j
    top = 30
    for i in range(top + 1):
        for j in range(top + 1 - i):
            for k in range(top + 1 - i - j):
                freq = np.array([i + k, j + k], dtype=float)
                brute += (
                    x**k
                    / (math.factorial(i) * math.factorial(j) * math.factorial(k))
                    * f(freq)
                )
    got = gg_distribution_pair(ell, [x], phi, M=30, R=45)
    assert abs(got.value - brute) <= 1e-10 * abs(brute)


def test_fourier_consistency_at_zero():
    report = fourier_consistency_check(1.0, 0.0, smooth_bump())
    assert report.passed, report


def test_fourier_consistency_with_argument():
    report = fourier_consistency_check(1.0, 0.3, smooth_bump())
    assert report.passed, report


def test_fourier_negative_control():
    report = fourier_consistency_check(1.0, 0.3, smooth_bump(), perturbation=0.35)
    assert not report.passed
    assert report.max_rel_residual >= 1e-2


def test_fourier_two_resolutions_agree():
    a = fourier_consistency_check(1.0, 0.3, smooth_bump(), nodes=1025)
    b = fourier_consistency_check(1.0, 0.3, smooth_bump(), nodes=2049)
    assert abs(a.max_rel_residual - b.max_rel_residual) <= 1e-5


def test_fourier_transform_is_summed_row_by_row(monkeypatch):
    # the transform at a block's distinct points is one (points x nodes) product per chunk of points,
    # summed along the nodes: the same bits as the transform taken point by point
    xi = np.linspace(-3.0, 3.0, 2049)
    weights = np.full(2049, xi[1] - xi[0])
    weights[[0, -1]] /= 2.0
    psi = smooth_bump()
    psi_vals = np.asarray([psi(float(t)) for t in xi], dtype=np.complex128)
    per_point = lambda z: 2.0 * np.pi * complex(np.sum(weights * psi_vals * np.exp(-1j * z * xi)))
    pair, seen = distributions.gg_distribution_pair, []

    def recording(ell, x, phi, M, R):
        sizes = []
        got = pair(ell, x, TestFunction(lambda z: sizes.append(len(z)) or phi(z)), M, R)
        seen.append((sizes, got, pair(ell, x, _per_point(per_point), M, R)))
        return got

    monkeypatch.setattr(distributions, "gg_distribution_pair", recording)
    fourier_consistency_check(1.0, 0.3, psi)
    fourier_consistency_check(0.37, 0.3, psi)  # about 1,000 distinct points, in chunks of 63
    assert [sizes for sizes, _, _ in seen] == [[66], [1066]]
    assert all(repr(got) == repr(want) for _, got, want in seen)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_smooth_bump_takes_arrays_and_scalars():
    psi = smooth_bump(2.5)
    assert type(psi(0.5)) is float and psi(0.5) == np.exp(-0.125) * np.exp(-1.0 / (1.0 - 0.2 * 0.2))
    assert psi(2.5) == psi(-3.0) == 0.0
    points = np.r_[np.linspace(-3.0, 3.0, 241), -2.5, 2.5, 2.45]
    got = psi(points)
    assert got.shape == points.shape and got.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == [psi(float(v)).hex() for v in points]
    for v in points.tolist():  # the per-point form, in Python floats
        t = v / 2.5
        assert psi(v) == (0.0 if abs(t) >= 1.0 else float(np.exp(-(v**2) / 2.0) * np.exp(-1.0 / (1.0 - t * t))))
    assert psi(np.inf) == psi(1e200) == 0.0 and np.isnan(psi(np.nan))
    assert got[-1] > 0 and not got[np.abs(points) >= 2.5].any()


def test_fourier_node_floor():
    with pytest.raises(InvalidInputError):
        fourier_consistency_check(1.0, 0.0, smooth_bump(), nodes=16)


# rows drawn from a few values, signed zeros among them, so repeats are common
_row_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 1e-300])


@given(st.integers(1, 3).flatmap(
    lambda n: arrays(np.float64, st.tuples(st.integers(1, 60), st.just(n)), elements=_row_values)
))
@settings(max_examples=200)
def test_distinct_rows_matches_unique(rows):
    distinct, inverse = _distinct_rows(rows)
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(distinct, want)  # +0.0 and -0.0 compare equal here
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    assert np.array_equal(distinct[inverse], rows)
