import numpy as np
import pytest
import scipy.special as sp

from ggsys.contour import (
    ContourSpec,
    IntegralValue,
    euler_segment_integral,
    hankel_integral,
    shifted_plane_integral,
)
from ggsys.errors import DomainError, InvalidInputError
from ggsys.model import build_reduced_system, select_base, vector_set
from ggsys.series import SeriesSpec, reduced_series_eval
from ggsys.verify import check_reduced_system

TWO_PI_I = 2j * np.pi

A1 = vector_set([(1,), (-1,)])


def loop_spec(**kw):
    return ContourSpec("hankel-loop", **kw)


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        ContourSpec("circle")
    with pytest.raises(InvalidInputError):
        ContourSpec("hankel-loop", nodes=8)
    with pytest.raises(InvalidInputError):
        ContourSpec("hankel-loop", cutoff=-1.0)
    with pytest.raises(InvalidInputError):
        ContourSpec("euler-segment", offset=0.0)


def test_spec_kind_mismatch():
    with pytest.raises(InvalidInputError):
        hankel_integral(A1, 1, 0.0, [0.0], ContourSpec("euler-segment"))


def test_hankel_reciprocal_gamma_at_zero_argument():
    # classic loop formula: the integral with no invariant term is 2*pi*i/Gamma(beta+1)
    for beta in (0.0, 0.3, 1 + 0.3j, -1.7):
        got = hankel_integral(A1, 1, beta, [0.0], loop_spec())
        want = TWO_PI_I * sp.rgamma(beta + 1)
        assert abs(got.value - want) <= 1e-8 * max(abs(want), 1e-3)
        assert got.error_estimate <= 1e-6
        assert got.nodes_used >= 48


def test_hankel_reciprocal_gamma_disk():
    # 20 draws in |beta| <= 3, kept away from the zeros of the target
    # (near beta = -1, -2, -3 the relative comparison is vacuous)
    rng = np.random.default_rng(7)
    done = 0
    while done < 20:
        beta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(beta) > 3 or min(abs(beta + m) for m in (1, 2, 3)) < 0.3:
            continue
        got = hankel_integral(A1, 1, beta, [0.0], loop_spec()).value
        want = TWO_PI_I * sp.rgamma(beta + 1)
        assert abs(got - want) <= 1e-8 * abs(want)
        done += 1


def test_hankel_matches_reduced_series():
    system = build_reduced_system(select_base(A1, (1,)))
    spec = SeriesSpec(system, (0,), 60, mode="reduced")
    for beta in (0.0, 0.5, 1 + 0.3j):
        for x in (0.5, -0.25 + 0.3j):
            got = hankel_integral(A1, 1, beta, [x], loop_spec()).value
            want = TWO_PI_I * reduced_series_eval(spec, [beta], [x]).value
            assert abs(got - want) <= 1e-6 * abs(want)


def test_hankel_bessel_value():
    # beta=0, x=0.5: sum over m of x^m/(m!)^2 is I_0(2 sqrt x)
    got = hankel_integral(A1, 1, 0.0, [0.5], loop_spec()).value
    want = TWO_PI_I * sp.iv(0, 2 * np.sqrt(0.5))
    assert abs(got - want) <= 1e-6 * abs(want)


def test_hankel_shift_relation_by_finite_differences():
    # derivative in x equals the integral at the shifted parameter
    beta, x, h = 0.4, 0.2, 1e-5
    spec = loop_spec(tolerance=1e-11)
    up = hankel_integral(A1, 1, beta, [x + h], spec).value
    down = hankel_integral(A1, 1, beta, [x - h], spec).value
    shifted = hankel_integral(A1, 1, beta + 1.0, [x], spec).value
    # beta - omega^2 in base coordinates: beta - (-1) = beta + 1
    assert abs((up - down) / (2 * h) - shifted) <= 1e-6 * abs(shifted)


def test_hankel_rejects_large_exponent():
    A = vector_set([(1,), (2,)])
    with pytest.raises(DomainError):
        hankel_integral(A, 1, 0.0, [0.1], loop_spec())


def test_hankel_rejects_nondecaying_tail():
    # coordinate exactly 1 with a positive-real-direction weight diverges
    A = vector_set([(1,), (1,)])
    with pytest.raises(DomainError):
        hankel_integral(A, 1, 0.0, [-2.0], loop_spec())


def test_hankel_x_length_checked():
    with pytest.raises(InvalidInputError):
        hankel_integral(A1, 1, 0.0, [0.1, 0.2], loop_spec())


def plane_spec(**kw):
    return ContourSpec("shifted-plane", **kw)


def test_plane_refinement_consistency():
    # fixed-parameter runs: (W, nodes) against (2W, 2 nodes)
    coarse = plane_spec(nodes=257, cutoff=24.0, adaptive=False)
    fine = plane_spec(nodes=513, cutoff=48.0, adaptive=False)
    a = shifted_plane_integral(A1, (1,), (0,), [0.7], [0.3], coarse)
    b = shifted_plane_integral(A1, (1,), (0,), [0.7], [0.3], fine)
    assert isinstance(a, IntegralValue)
    assert abs(a.value - b.value) <= 1e-6 * abs(b.value)
    assert a.error_estimate < np.inf


def test_plane_adaptive_agrees_with_fixed():
    fixed = shifted_plane_integral(
        A1, (1,), (0,), [0.7], [0.3], plane_spec(nodes=513, cutoff=48.0, adaptive=False)
    )
    auto = shifted_plane_integral(
        A1, (1,), (0,), [0.7], [0.3], plane_spec(tolerance=1e-10)
    )
    assert abs(fixed.value - auto.value) <= 1e-7 * abs(auto.value)


def test_plane_shift_relation_by_finite_differences():
    beta, x, h = 0.7, 0.3, 1e-5
    spec = plane_spec(tolerance=1e-12)

    def F(b, xv):
        return shifted_plane_integral(A1, (1,), (0,), [b], [xv], spec).value

    deriv = (F(beta, x + h) - F(beta, x - h)) / (2 * h)
    shifted = F(beta + 1.0, x)  # beta - omega^2 = beta + 1
    assert abs(deriv - shifted) <= 1e-6 * max(abs(shifted), 1.0)


def test_plane_branch_index_scales_by_parameter_phase():
    # for integer coordinates the real integrand repeats and only the
    # parameter phase moves: F_{k+1} = exp(-2 pi i beta) F_k
    beta = 0.7
    v0 = shifted_plane_integral(A1, (1,), (0,), [beta], [0.3], plane_spec()).value
    v1 = shifted_plane_integral(A1, (1,), (1,), [beta], [0.3], plane_spec()).value
    assert abs(v1 - np.exp(-TWO_PI_I * beta) * v0) <= 1e-8 * abs(v0)


def test_plane_two_dimensional_case():
    A = vector_set([(1, 0), (0, 1), (-1, -1)])
    spec = plane_spec(nodes=33, cutoff=30.0, tolerance=1e-9)
    got = shifted_plane_integral(A, (1, 2), (0, 0), [0.6, 0.9], [-0.3], spec)
    assert np.isfinite(got.value)
    h = 1e-5
    up = shifted_plane_integral(A, (1, 2), (0, 0), [0.6, 0.9], [-0.3 + h], spec).value
    dn = shifted_plane_integral(A, (1, 2), (0, 0), [0.6, 0.9], [-0.3 - h], spec).value
    shifted = shifted_plane_integral(
        A, (1, 2), (0, 0), [1.6, 1.9], [-0.3], spec
    ).value
    assert abs((up - dn) / (2 * h) - shifted) <= 1e-4 * max(abs(shifted), 1.0)


def test_plane_separable_two_dimensional_oracle():
    # omega = +-e_1, +-e_2 splits into two 1-D planes, each the Bessel form
    # 2 x^(-beta/2) K_beta(2 sqrt x) times the branch phase e^(-i pi beta)
    A = vector_set([(1, 0), (0, 1), (-1, 0), (0, -1)])

    def k_plane(beta, x):
        return np.exp(-1j * np.pi * beta) * 2 * x ** (-beta / 2) * sp.kv(beta, 2 * np.sqrt(x))

    for beta, x in (([0.6, 1.2], [0.3, 0.8]), ([1.4, 0.4], [0.9, 0.2])):
        want = k_plane(beta[0], x[0]) * k_plane(beta[1], x[1])
        auto = shifted_plane_integral(A, (1, 2), (0, 0), beta, x, plane_spec(tolerance=1e-10))
        assert abs(auto.value - want) <= 1e-12 * abs(want)
        # 257^2 points: the fixed grid spans several evaluation blocks
        fixed = shifted_plane_integral(
            A, (1, 2), (0, 0), beta, x, plane_spec(nodes=257, adaptive=False)
        )
        assert fixed.nodes_used == 257**2
        assert abs(fixed.value - want) <= 1e-10 * abs(want)


def test_plane_preconditions():
    with pytest.raises(DomainError):  # complex vectors
        shifted_plane_integral(
            vector_set([(1j,), (-1,)]), (1,), (0,), [0.7], [0.3], plane_spec()
        )
    with pytest.raises(DomainError):  # parameter real part not positive
        shifted_plane_integral(A1, (1,), (0,), [-0.2], [0.3], plane_spec())
    with pytest.raises(DomainError):  # phase condition fails: w = -x here
        shifted_plane_integral(A1, (1,), (0,), [0.7], [-0.4], plane_spec())
    with pytest.raises(DomainError):  # n = 3 out of scope
        A3 = vector_set([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
        shifted_plane_integral(
            A3, (1, 2, 3), (0, 0, 0), [0.5, 0.5, 0.5], [-0.3], plane_spec()
        )


AE = vector_set([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)])


def seg_spec(**kw):
    kw.setdefault("tolerance", 1e-12)
    kw.setdefault("max_refinements", 14)
    return ContourSpec("euler-segment", **kw)


def test_euler_beta_function_oracle():
    got = euler_segment_integral(AE, (1, 2), [-0.5, -0.7], [0.0], seg_spec())
    want = sp.beta(0.5, 0.7) * sp.rgamma(-0.2)
    assert abs(got.value - want) <= 1e-8 * abs(want)


def test_euler_refinement_stability():
    a = euler_segment_integral(AE, (1, 2), [-0.5, -0.7], [0.08], seg_spec())
    b = euler_segment_integral(
        AE, (1, 2), [-0.5, -0.7], [0.08], seg_spec(tolerance=1e-9, max_refinements=10)
    )
    assert abs(a.value - b.value) <= 1e-7 * abs(a.value)


def test_euler_reduced_system_residuals():
    system = build_reduced_system(select_base(AE, (1, 2)))
    spec = seg_spec(tolerance=1e-13)

    def F(beta, x):
        return euler_segment_integral(AE, (1, 2), beta, x, spec).value

    beta = np.array([-0.6, -0.8])
    points = [(beta, [0.1]), (beta, [0.1j]), (beta, [-0.07 + 0.0714j])]
    base_rep, off_rep = check_reduced_system(
        F, system, tolerance=1e-6, mode="fd", points=points
    )
    assert base_rep.passed, base_rep
    assert off_rep.passed, off_rep


def test_euler_preconditions():
    with pytest.raises(DomainError):  # coordinate sums not equal to one
        bad = vector_set([(1.0, 0.0), (0.0, 1.0), (0.5, 0.6)])
        euler_segment_integral(bad, (1, 2), [-0.5, -0.7], [0.0], seg_spec())
    with pytest.raises(DomainError):  # parameter real part not negative
        euler_segment_integral(AE, (1, 2), [0.5, -0.7], [0.0], seg_spec())
    with pytest.raises(InvalidInputError):  # wrong dimension
        euler_segment_integral(A1, (1,), [-0.5], [0.0], seg_spec())


def test_euler_branch_cut_detected():
    with pytest.raises(DomainError):
        euler_segment_integral(AE, (1, 2), [-0.5, -0.7], [-3.0], seg_spec())
