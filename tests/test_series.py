import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import ggsys.series
from ggsys.errors import DomainError, InvalidInputError, PoleError
from ggsys.gammafn import rgamma
from ggsys.model import _TABLE_BUDGET, build_reduced_system, select_base, vector_set
from ggsys.resonance import grassmannian_set
from ggsys.series import (
    SeriesSpec,
    _spec_tables,
    convergence_condition,
    elementary_solution_full,
    gauss_series_eval,
    gg_series_eval,
    mixed_gamma_series_eval,
    monomial_solution_zero,
    reduced_series,
    reduced_series_eval,
    twist_scaling,
)

A_G = vector_set([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
R_G = build_reduced_system(select_base(A_G, (1, 2, 3)))

# one-dimensional pair with a sign flip: series becomes sum x^m/(m!)^2
A_PM = vector_set([(1,), (-1,)])
R_PM = build_reduced_system(select_base(A_PM, (1,)))


def _spec(system, k=None, M=30, mode="reduced", partition=None):
    n = len(system.base.I)
    return SeriesSpec(system, k or (0,) * n, M, mode, partition)


def test_bessel_value():
    # coefficients reduce to 1/(m!)^2; the sum at x=1 is the modified
    # Bessel function of order zero at argument 2
    val = reduced_series_eval(_spec(R_PM), np.array([0.0]), np.array([1.0]))
    assert val.value == pytest.approx(scipy.special.iv(0, 2.0), rel=1e-12)
    assert val.terms_used == 31


def test_value_at_origin_is_reciprocal_gamma_product():
    beta = np.array([0.3 - 0.2j, 0.7, 1.1 + 0.4j])
    val = reduced_series_eval(_spec(R_G), beta, np.array([0.0]))
    expected = np.prod(scipy.special.rgamma(beta + 1))
    assert val.value == pytest.approx(expected, rel=1e-12)
    assert val.tail_estimate == 0.0


def test_term_count_matches_simplex_size():
    A = vector_set([(1, 0), (0, 1), (1, 1), (1, 2)])
    R = build_reduced_system(select_base(A, (1, 2)))
    val = reduced_series_eval(_spec(R, M=7), np.zeros(2), np.zeros(2))
    assert val.terms_used == math.comb(7 + 2, 2)


def test_gg_series_is_prefactor_times_reduced():
    beta = np.array([0.4, -0.3, 0.8])
    a = np.array([1.3, 0.9, 1.7, 0.22])
    full = gg_series_eval(_spec(R_G, mode="full"), beta, a)
    x = R_G.x_from_a(a)
    red = reduced_series_eval(_spec(R_G), beta, x)
    prefactor = np.prod(a[:3] ** R_G.base.coords(beta))
    assert full.value == pytest.approx(prefactor * red.value, rel=1e-12)


def test_gg_series_at_ones_equals_reduced_at_ones():
    beta = np.array([0.4, -0.3, 0.8])
    full = gg_series_eval(_spec(R_G, mode="full"), beta, np.ones(4))
    red = reduced_series_eval(_spec(R_G), beta, np.ones(1))
    assert full.value == pytest.approx(red.value, rel=1e-13)


def test_gg_series_rejects_zero_base_argument():
    with pytest.raises(DomainError):
        gg_series_eval(
            _spec(R_G, mode="full"), np.zeros(3), np.array([0.0, 1, 1, 0.1])
        )


def test_reduced_matches_gauss_up_to_constant():
    # with parameters (-a, -b, c-1) the coefficients are those of the
    # classical series times sin(pi a) sin(pi b) / pi^2
    a, b, c, x = 0.35, 1.21, 1.7, 0.3
    beta = np.array([-a, -b, c - 1])
    red = reduced_series_eval(_spec(R_G, M=40), beta, np.array([x]))
    gauss = gauss_series_eval(a, b, c, x, M=40)
    const = math.sin(math.pi * a) * math.sin(math.pi * b) / math.pi**2
    assert red.value == pytest.approx(const * gauss.value, rel=1e-11)


def test_mixed_equals_reduced_when_first_group_empty():
    beta = np.array([0.4, -0.3, 0.8])
    spec = _spec(R_G, mode="mixed", partition=((), (1, 2, 3)))
    mixed = mixed_gamma_series_eval(spec, beta, np.array([0.25]))
    red = reduced_series_eval(_spec(R_G), beta, np.array([0.25]))
    assert mixed.value == pytest.approx(red.value, rel=1e-12)


def test_mixed_matches_gauss_up_to_phase():
    a, b, c, x = 0.35, 1.21, 1.7, 0.3
    beta = np.array([-a, -b, c - 1])
    spec = _spec(R_G, M=40, mode="mixed", partition=((1, 2), (3,)))
    mixed = mixed_gamma_series_eval(spec, beta, np.array([x]))
    gauss = gauss_series_eval(a, b, c, x, M=40)
    phase = np.exp(-1j * np.pi * (a + b))
    assert mixed.value == pytest.approx(phase * gauss.value, rel=1e-11)


def test_mixed_single_term():
    beta = np.array([0.4, -0.3, 0.8])
    spec = _spec(R_G, M=0, mode="mixed", partition=((1, 2), (3,)))
    got = mixed_gamma_series_eval(spec, beta, np.array([0.9]))
    expected = (
        np.exp(1j * np.pi * (beta[0] + beta[1]))
        * scipy.special.gamma(-beta[0])
        * scipy.special.gamma(-beta[1])
        * scipy.special.rgamma(beta[2] + 1)
    )
    assert got.value == pytest.approx(expected, rel=1e-12)


def test_mixed_reports_pole_offenders():
    beta = np.array([2.0, -0.3, 0.8])  # Gamma(-2 + m) blows up at m <= 2
    spec = _spec(R_G, M=5, mode="mixed", partition=((1,), (2, 3)))
    with pytest.raises(PoleError) as err:
        mixed_gamma_series_eval(spec, beta, np.array([0.5]))
    assert all(label == 1 for label, _ in err.value.offenders)


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        SeriesSpec(R_G, (0, 0), 10)  # twist length
    with pytest.raises(InvalidInputError):
        SeriesSpec(R_G, (0, 0, 0.5), 10)  # non-integer twist
    with pytest.raises(InvalidInputError):
        SeriesSpec(R_G, (0, 0, 0), -1)
    with pytest.raises(InvalidInputError):
        SeriesSpec(R_G, (0, 0, 0), 10, "mixed")  # partition missing
    with pytest.raises(InvalidInputError):
        SeriesSpec(R_G, (0, 0, 0), 10, "reduced", ((1,), (2, 3)))
    with pytest.raises(InvalidInputError):
        SeriesSpec(R_G, (0, 0, 0), 10, "mixed", ((1,), (2,)))  # not a split


def test_twist_identity():
    beta = np.array([0.37, -0.21, 0.83])
    x = np.array([0.3])
    k = (0, 1, 2)
    twisted = reduced_series_eval(_spec(R_G, k=k), beta, x)
    scaling = twist_scaling(R_G, k)
    plain = reduced_series_eval(_spec(R_G), beta, scaling * x)
    phase = np.exp(2j * np.pi * np.dot(k, R_G.base.coords(beta)))
    assert twisted.value == pytest.approx(phase * plain.value, rel=1e-12)


def test_coefficient_recurrence():
    # shifting the multi-index by e_j equals shifting the parameter by
    # -omega^j, coefficient by coefficient
    beta = np.array([0.43, -0.17, 0.59])
    s_here = reduced_series(_spec(R_G, M=8), beta)
    s_shift = reduced_series(_spec(R_G, M=7), beta - A_G.row(4))
    for m in range(8):
        lhs = s_here.coefficient((m + 1,))
        rhs = s_shift.coefficient((m,))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def test_truncation_monotonicity():
    beta = np.array([0.43, -0.17, 0.59])
    x = np.array([0.3])
    lo = reduced_series_eval(_spec(R_G, M=20), beta, x)
    hi = reduced_series_eval(_spec(R_G, M=25), beta, x)
    assert abs(hi.value - lo.value) <= 10 * lo.tail_estimate


def test_convergence_running_example_boundary():
    rep = convergence_condition(R_G)
    assert rep.holds == (True,)
    assert rep.l_coefficient_sums == pytest.approx((-1.0,))
    assert rep.base_coordinate_sums == pytest.approx((1.0,))
    assert rep.radius_verdict == ("positive",)


def test_convergence_entire_case():
    A = vector_set([(1,), (-3,)])
    rep = convergence_condition(build_reduced_system(select_base(A, (1,))))
    assert rep.holds == (True,)
    assert rep.base_coordinate_sums == pytest.approx((-3.0,))
    assert rep.radius_verdict == ("infinite",)


def test_convergence_divergent_case():
    A = vector_set([(1,), (3,)])
    rep = convergence_condition(build_reduced_system(select_base(A, (1,))))
    assert rep.holds == (False,)
    assert rep.base_coordinate_sums == pytest.approx((3.0,))
    assert rep.radius_verdict == ("zero",)


def test_elementary_solution():
    assert elementary_solution_full(np.zeros(4)) == pytest.approx(1.0)
    assert elementary_solution_full([1, 0, 0]) == pytest.approx(math.e)


def test_monomial_solution():
    assert monomial_solution_zero(np.zeros(3), np.ones(3)) == pytest.approx(1.0)
    got = monomial_solution_zero([1, 0, 0], [2, 1, 1])
    assert got == pytest.approx(2.0)  # Gamma(2) = 1
    for bad in ([0.5, 0], [-1, 0], [1e-9j, 0]):
        with pytest.raises(DomainError):
            monomial_solution_zero(bad, [0, 1])
    # zero argument with zero exponent contributes a factor 1, with a
    # positive integer exponent a factor 0
    assert monomial_solution_zero([0, 1], [0, 3]) == pytest.approx(3.0)
    assert monomial_solution_zero([1e-13j, 1], [0, 3]) == pytest.approx(3.0)
    assert monomial_solution_zero([2, 1], [0, 3]) == 0


def test_gauss_log_value():
    val = gauss_series_eval(1, 1, 2, 0.5, M=45)
    assert val.value == pytest.approx(2 * math.log(2), rel=1e-12)


def test_gauss_at_origin():
    a, b, c = 0.7 + 0.2j, 1.3, 2.4 - 1j
    val = gauss_series_eval(a, b, c, 0, M=5)
    expected = (
        scipy.special.gamma(a) * scipy.special.gamma(b) * scipy.special.rgamma(c)
    )
    assert val.value == pytest.approx(expected, rel=1e-12)


def test_gauss_geometric_case():
    val = gauss_series_eval(1, 2, 2, 0.25, M=40)
    assert val.value == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_gauss_pole_error():
    with pytest.raises(PoleError) as err:
        gauss_series_eval(-2, 1.5, 2.2, 0.3, M=10)
    assert ("a", (0,)) in err.value.offenders


@given(
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
)
@settings(max_examples=60, deadline=None)
def test_twist_identity_property(k1, k2, k3, b1, b2, b3):
    beta = np.array([b1 + 0.131, b2 - 0.077, b3 + 0.219])
    x = np.array([0.4])
    k = (k1, k2, k3)
    twisted = reduced_series_eval(_spec(R_G, k=k, M=18), beta, x)
    plain = reduced_series_eval(_spec(R_G, M=18), beta, twist_scaling(R_G, k) * x)
    phase = np.exp(2j * np.pi * np.dot(k, R_G.base.coords(beta)))
    got, want = twisted.value, phase * plain.value
    assert abs(got - want) <= 1e-11 * max(abs(got), abs(want), 1e-30)


@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
@settings(max_examples=60, deadline=None)
def test_coefficient_recurrence_property(b1, b2, b3):
    beta = np.array([b1 + 0.1309, b2 - 0.0771, b3 + 0.2191])
    s_here = reduced_series(_spec(R_G, M=5), beta)
    s_shift = reduced_series(_spec(R_G, M=4), beta - A_G.row(4))
    for m in range(5):
        lhs = s_here.coefficient((m + 1,))
        rhs = s_shift.coefficient((m,))
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs), 1e-30)


# -- integer gather and the per-system table memo ---------------------------


def _generic_coeffs(spec, beta):
    """The generic formula: twist phases times the product of reciprocal
    gammas at every (term, base coordinate); the oracle of the gather."""
    _, shifted, phases = _spec_tables(spec, beta)
    return phases * np.prod(rgamma(shifted + 1.0), axis=1)


def _rgamma_shapes(monkeypatch):
    """Record the shape of every array the series layer hands to rgamma."""
    seen = []

    def recording(z):
        seen.append(np.shape(z))
        return rgamma(z)

    monkeypatch.setattr(ggsys.series, "rgamma", recording)
    return seen


def _assert_gathered_bit_identical(system, k, M, beta):
    spec = SeriesSpec(system, k, M)
    got = reduced_series(spec, beta).raw_coeffs
    want = _generic_coeffs(spec, beta)
    # bytes, not values: signed zeros and NaN payloads must match too
    assert got.tobytes() == want.tobytes()


_BETAS = [
    np.array([0.43 - 0.21j, -0.17 + 0.05j, 0.59]),
    np.array([0.3, -0.2, 0.8]),
    np.array([-1.7 + 0.4j, 2.25 - 1.1j, -0.35 + 0.0j]),
]


@pytest.mark.parametrize("base", [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
@pytest.mark.parametrize("k", [(0, 0, 0), (1, -1, 0), (-1, 1, 1)])
def test_gather_is_bit_identical_on_the_gauss_set(base, k):
    system = build_reduced_system(select_base(A_G, base))
    assert system.integer_off_base_coords is not None
    for beta in _BETAS:
        _assert_gathered_bit_identical(system, k, 30, beta)


def test_gather_is_bit_identical_on_the_acceptance_sets():
    _assert_gathered_bit_identical(R_PM, (0,), 40, np.array([0.31 - 0.4j]))
    _assert_gathered_bit_identical(R_PM, (1,), 40, np.array([-2.5]))
    G = grassmannian_set(2, 3)
    system = build_reduced_system(select_base(G.vectors, (1, 2, 3, 4)))
    assert system.integer_off_base_coords is not None
    beta = np.array([0.37 + 0.1j, -0.61, 0.29 - 0.33j, 0.83])
    _assert_gathered_bit_identical(system, (0, 0, 0, 0), 12, beta)
    _assert_gathered_bit_identical(system, (1, 0, -1, 0), 12, beta)


@st.composite
def _integer_sets(draw):
    """Unit base vectors plus r off-base rows with entries in [-2, 2]."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    entries = st.integers(-2, 2)
    off = [tuple(draw(entries) for _ in range(n)) for _ in range(r)]
    rows = [tuple(int(i == j) for j in range(n)) for i in range(n)] + off
    k = tuple(draw(st.integers(-1, 1)) for _ in range(n))
    M = draw(st.integers(0, 25))
    # integer and quarter-integer coordinates put poles inside the table
    parts = st.floats(-3.0, 3.0).map(lambda v: round(4 * v) / 4 if abs(v) > 1.5 else v)
    beta = np.array([complex(draw(parts), draw(st.sampled_from([0.0, -0.0, 0.7]))) for _ in range(n)])
    return rows, n, k, M, beta


@given(_integer_sets())
@settings(max_examples=150, deadline=None)
def test_gather_matches_the_generic_formula(case):
    rows, n, k, M, beta = case
    system = build_reduced_system(select_base(vector_set(rows), tuple(range(1, n + 1))))
    assert system.integer_off_base_coords is not None
    _assert_gathered_bit_identical(system, k, M, beta)


def test_gather_keeps_exact_zeros_at_poles(monkeypatch):
    seen = _rgamma_shapes(monkeypatch)
    system = build_reduced_system(select_base(A_G, (1, 2, 3)))
    # beta_I[0] - m + 1 is a pole from m = 3 on; within the snap window too
    for first in (2.0, 2.0 + 1e-13):
        beta = np.array([first, 0.35 - 0.2j, 0.6])
        raw = reduced_series(SeriesSpec(system, (0, 0, 0), 30), beta).raw_coeffs
        assert np.all(raw[3:] == 0) and np.all(raw[:3] != 0)
        assert raw.tobytes() == _generic_coeffs(SeriesSpec(system, (0, 0, 0), 30), beta).tobytes()
    # one flat table of the 31 values of each coordinate
    assert seen[:2] == [(3 * 31,), (3 * 31,)]


def test_gather_evaluates_each_distinct_argument_once(monkeypatch):
    A = vector_set([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)])
    system = build_reduced_system(select_base(A, (1, 2)))
    seen = _rgamma_shapes(monkeypatch)
    _assert_gathered_bit_identical(system, (0, 1), 20, np.array([0.3 - 0.2j, 0.45]))
    # both columns of m @ G range over -20..0: 42 arguments, not 1771 x 2
    assert seen == [(42,)]


def test_non_integer_set_takes_the_generic_path(monkeypatch):
    A = vector_set([(1, 0), (0, 1), (0.5, -1.0), (1.25, -0.75)])
    system = build_reduced_system(select_base(A, (1, 2)))
    assert system.integer_off_base_coords is None
    seen = _rgamma_shapes(monkeypatch)
    spec = SeriesSpec(system, (0, 0), 10)
    beta = np.array([0.3 + 0.1j, -0.4])
    raw = reduced_series(spec, beta).raw_coeffs
    assert seen == [(math.comb(12, 2), 2)]
    assert raw.tobytes() == _generic_coeffs(spec, beta).tobytes()


def test_nearly_integer_coordinates_are_not_integer():
    A = vector_set([(1, 0), (0, 1), (1 + 1e-15, -1), (1, 1e-12j)])
    system = build_reduced_system(select_base(A, (1, 2)))
    assert system.integer_off_base_coords is None


def test_memo_returns_the_same_read_only_table():
    system = build_reduced_system(select_base(A_G, (1, 2, 3)))
    beta = np.array([0.43, -0.17, 0.59])
    first = reduced_series(SeriesSpec(system, (0, 0, 0), 20), beta)
    again = reduced_series(SeriesSpec(system, (0, 0, 0), 20), beta.copy())
    assert again is first
    for array in (again.raw_coeffs, again.coeffs, again.beta, again.degrees, again.exponents):
        with pytest.raises(ValueError):
            array[0] = 1
    # another twist, truncation or parameter is another table
    assert reduced_series(SeriesSpec(system, (1, 0, 0), 20), beta) is not first
    assert reduced_series(SeriesSpec(system, (0, 0, 0), 19), beta) is not first
    assert reduced_series(SeriesSpec(system, (0, 0, 0), 20), beta + 1e-15) is not first


def test_memo_key_is_the_parameter_value_at_call_time():
    system = build_reduced_system(select_base(A_G, (1, 2, 3)))
    spec = SeriesSpec(system, (0, 0, 0), 20)
    beta = np.array([0.43, -0.17, 0.59], dtype=np.complex128)
    first = reduced_series(spec, beta)
    beta[0] = 0.5
    assert first.beta[0] == 0.43
    assert reduced_series(spec, beta) is not first


def test_memo_stays_within_its_budget():
    system = build_reduced_system(select_base(A_G, (1, 2, 3)))
    spec = SeriesSpec(system, (0, 0, 0), 30)
    first = reduced_series(spec, np.array([0.1, 0.2, 0.3]))
    for i in range(2 * _TABLE_BUDGET // 31):
        reduced_series(spec, np.array([0.1 + 1e-3 * i, 0.2, 0.3]))
        assert system.tables.size <= _TABLE_BUDGET
    assert system.tables.size > _TABLE_BUDGET - 31
    # the oldest table was dropped: asking again tabulates it anew
    assert reduced_series(spec, np.array([0.1, 0.2, 0.3])) is not first
    # a table larger than the whole budget is computed but not kept
    A = vector_set([(1,), (-1,), (-2,), (-1,)])
    wide = build_reduced_system(select_base(A, (1,)))
    spec = SeriesSpec(wide, (0,), 57)
    big = reduced_series(spec, np.array([0.3]))
    assert len(big.exponents) > _TABLE_BUDGET
    assert reduced_series(spec, np.array([0.3])) is not big
    assert wide.tables.size == 0


def test_memo_belongs_to_one_system_instance():
    one = build_reduced_system(select_base(A_G, (1, 2, 3)))
    two = build_reduced_system(select_base(A_G, (1, 2, 3)))
    beta = np.array([0.43, -0.17, 0.59])
    table = reduced_series(SeriesSpec(one, (0, 0, 0), 20), beta)
    assert two.tables.size == 0
    other = reduced_series(SeriesSpec(two, (0, 0, 0), 20), beta)
    assert other is not table
    assert other.raw_coeffs.tobytes() == table.raw_coeffs.tobytes()
