import math
import tracemalloc

import numpy as np
import pytest

from ggsys.distributions import (
    _BLOCK_POINTS,
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
    calls = {}

    def phi(z):
        key = tuple(z.tolist())
        calls[key] = calls.get(key, 0) + 1
        return np.exp(c @ z) * (1 + 0.5j * z[0])

    got = gg_distribution_pair(ell, x, phi, M=20, R=30).value
    assert sum(calls.values()) == 1926 and max(calls.values()) == 1
    e = np.exp(ell @ c)
    want = np.exp(x @ e + np.exp(c).sum()) * (1 + 0.5j * (x @ (ell[:, 0] * e) + np.exp(c[0])))
    assert abs(got - want) <= 1e-14 * abs(want)
    # the value the per-probe summation gave
    assert abs(got - (8.148202293810591 + 7.271560364019235j)) <= 1e-14 * abs(want)


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
    phi = lambda z: np.exp(0.2 * z[0] - 0.1 * z[1]) * (z[0] + 1)
    brute = 0.0 + 0j
    top = 30
    for i in range(top + 1):
        for j in range(top + 1 - i):
            for k in range(top + 1 - i - j):
                freq = np.array([i + k, j + k], dtype=float)
                brute += (
                    x**k
                    / (math.factorial(i) * math.factorial(j) * math.factorial(k))
                    * phi(freq)
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


def test_fourier_node_floor():
    with pytest.raises(InvalidInputError):
        fourier_consistency_check(1.0, 0.0, smooth_bump(), nodes=16)
