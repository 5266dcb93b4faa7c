import dataclasses
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from ggsys import contour
from ggsys.contour import (
    _GRID_BLOCK,
    ContourSpec,
    IntegralValue,
    euler_segment_integral,
    hankel_integral,
    shifted_plane_integral,
)
from ggsys.errors import ConvergenceError, DomainError, InvalidInputError
from ggsys.model import ReducedSystem, build_reduced_system, select_base, vector_set
from ggsys.series import SeriesSpec, reduced_series_eval
from ggsys.verify import check_reduced_system

TWO_PI_I = 2j * np.pi

A1 = vector_set([(1,), (-1,)])


def loop_spec(**kw):
    return ContourSpec(**kw)


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        ContourSpec(nodes=8)
    with pytest.raises(InvalidInputError):
        ContourSpec(cutoff=-1.0)
    # tolerance=inf used to settle the loop at beta = 1/2, x = 1/4 on 9.004i in place
    # of 8.332i, and cutoff=inf to let an invalid-multiply warning escape the plane
    for field, bad in itertools.product(("cutoff", "tolerance"), (0.0, -1e-9, math.inf, math.nan)):
        with pytest.raises(InvalidInputError, match=f"^{field} must be finite and positive$"):
            ContourSpec(**{field: bad})
    for bad in (0, -1):
        with pytest.raises(InvalidInputError, match="^max_refinements must be finite and positive$"):
            ContourSpec(max_refinements=bad)
    with pytest.raises(TypeError):  # the loop takes its path from its inputs
        ContourSpec(offset=0.5)
    # nodes=64.5 used to reach the plane and fail there with a bare TypeError, and
    # max_refinements=2.5 to end in islice's ValueError
    for field, bad in itertools.product(("nodes", "max_refinements"), (64.5, 12.0, True, "64", None)):
        with pytest.raises(InvalidInputError, match=f"^{field} must be an integer$"):
            ContourSpec(**{field: bad})


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
    return ContourSpec(**kw)


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


def _bessel_plane(beta, x, k=0):
    """The 1-D plane integral in closed form: 2 x^(-beta/2) K_beta(2 sqrt x) e^(-i pi beta (2k+1))."""
    return 2 * x ** (-beta / 2) * sp.kv(beta, 2 * np.sqrt(x)) * np.exp(-1j * np.pi * beta * (2 * k + 1))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("x", [1e-12, 1e-13])
def test_plane_takes_a_tiny_argument_at_phase_pi(x, k):
    # x e^(i pi <omega^2, 2k+1>) = -x has phase exactly pi however small x is;
    # an absolute bound on its real part used to refuse every x <= 1e-12
    got = shifted_plane_integral(A1, (1,), (k,), [0.5], [x], plane_spec())
    want = _bessel_plane(0.5, x, k)
    assert abs(got.value - want) <= 1e-12 * abs(want)


def test_plane_takes_a_tiny_argument_in_two_dimensions():
    # the third vector of the set has phase 1, so x = -1e-12 sits at phase pi;
    # oracle: the sigma_2 integral in closed form, the sigma_1 one by scipy
    from scipy.integrate import quad

    A = vector_set([(1, 0), (0, 1), (-1, -1)])
    spec = plane_spec(nodes=33, cutoff=30.0, tolerance=1e-9)
    got = shifted_plane_integral(A, (1, 2), (0, 0), [0.6, 0.9], [-1e-12], spec)

    def inner(s):  # e^(-e^s - 0.6 s) 2 c^(-0.45) K_0.9(2 sqrt c), c = 1e-12 e^-s, in logs
        log_c = np.log(1e-12) - s
        z = 2 * np.exp(log_c / 2)
        return np.exp(-np.exp(s) - 0.6 * s - z + np.log(2) - 0.45 * log_c + np.log(sp.kve(0.9, z)))

    value, _ = quad(inner, -60, 5, points=[np.log(1e-12) / 2], limit=1000, epsabs=0, epsrel=1e-13)
    want = value * np.exp(-1.5j * np.pi)
    assert abs(got.value - want) <= 1e-12 * abs(want)


def test_plane_cutoff_search():
    # a short cutoff is doubled until the integrand has decayed on the boundary,
    # and the value agrees with the default cutoff's within its error estimate
    default = shifted_plane_integral(A1, (1,), (0,), [0.5], [0.25], plane_spec())
    short = shifted_plane_integral(A1, (1,), (0,), [0.5], [0.25], plane_spec(cutoff=2.0))
    assert abs(short.value - default.value) <= default.error_estimate
    with pytest.raises(DomainError, match="does not decay on the truncation boundary"):
        shifted_plane_integral(A1, (1,), (0,), [0.5], [0.25], plane_spec(cutoff=0.01))
    # with x = 0 nothing damps e^(-beta sigma) as sigma -> -inf, so the search
    # doubles the cutoff until the grid overflows
    with pytest.raises(DomainError, match="overflows on the sampling grid"):
        shifted_plane_integral(A1, (1,), (0,), [0.5], [0.0], plane_spec())
    # a fixed grid keeps its cutoff, samples no window and fails at its first level sum
    with pytest.raises(ConvergenceError, match="^shifted-plane quadrature level sum is not finite$"):
        shifted_plane_integral(A1, (1,), (0,), [0.5], [0.0], plane_spec(cutoff=1500.0, adaptive=False))


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


SEP = [(1, 0), (0, 1), (-1, 0), (0, -1)]
COUPLED = SEP + [(-1, -2)]
A_SEP = vector_set(SEP)


def _full_grid_sum(F, W, nodes, n):
    # non-nested oracle: every point of the nodes^n grid, gathered by flat index
    axis = np.linspace(-W, W, nodes)
    ends = np.ones(nodes)
    ends[[0, -1]] = 0.5
    total = 0.0 + 0j
    for start in range(0, nodes**n, _GRID_BLOCK):
        flat = np.arange(start, min(start + _GRID_BLOCK, nodes**n))
        cols = np.stack(np.unravel_index(flat, (nodes,) * n))
        total += np.sum(np.prod(ends[cols], axis=0) * F(tuple(axis[cols])))
    return complex((2 * W / (nodes - 1)) ** n * total)


def _skewed(points):
    # no symmetry between the axes or the two ends, and sizeable at the boundary;
    # points: one array per axis, broadcasting against each other
    q = [p - c for p, c in zip(points, (0.0, 0.5))]
    return np.exp(-sum(a * v**2 for a, v in zip((0.4, 0.2), q)) + 1j * sum(j * v for j, v in enumerate(q, 1)))


def _assert_open_grid(points):
    # n per-axis arrays as np.ix_ gives them: axis i varies along dimension i only
    n = len(points)
    for i, p in enumerate(points):
        assert p.ndim == n and all(size == 1 for d, size in enumerate(p.shape) if d != i)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("nodes", [9, 10])
def test_nested_levels_equal_full_grid_sums(n, nodes):
    count = nodes
    for _, (value, points) in zip(range(5), contour._trapezoid_levels(_skewed, [3.0], nodes, n)):
        want = _full_grid_sum(_skewed, 3.0, count, n)
        assert abs(value - want) <= 1e-14 * abs(want)
        assert points == count**n
        count = 2 * count - 1


@pytest.mark.parametrize("n, nodes", [(1, 20000), (2, 300)])
def test_nested_levels_call_in_blocks_of_rows(n, nodes):
    sizes = []

    def F(points):
        _assert_open_grid(points)
        shape = np.broadcast_shapes(*(p.shape for p in points))
        sizes.append((math.prod(shape), shape[-1]))
        return 1.0  # anything that broadcasts to the block

    for _ in zip(range(3), contour._trapezoid_levels(F, [1.0], nodes, n)):
        pass
    assert max(size - row for size, row in sizes) <= _GRID_BLOCK
    assert len(sizes) > 3


@pytest.mark.parametrize(
    "A, beta, x, spec, used",
    [
        # the adaptive plane keeps its cutoff's first level as its window and reads levels up to 505 points per axis
        (A1, [0.7], [0.3], plane_spec(tolerance=1e-10), 505),
        (A_SEP, [0.6, 1.2], [0.3, 0.8], plane_spec(tolerance=1e-10), 505**2),
        # 591,361 points, not 769^2 plus the 385^2 half-rate grid
        (A_SEP, [0.6, 1.2], [0.3, 0.8], plane_spec(nodes=769, cutoff=32.0, adaptive=False), 769**2),
    ],
    ids=["1d-adaptive", "2d-adaptive", "2d-fixed-769"],
)
def test_plane_evaluates_each_grid_point_once(monkeypatch, A, beta, x, spec, used):
    calls = []
    build = contour._plane_integrand

    def counting(*args):
        g = build(*args)

        def counted(sigma):
            _assert_open_grid(sigma)
            calls.append(np.stack(np.broadcast_arrays(*sigma)))
            return g(sigma)

        return counted

    monkeypatch.setattr(contour, "_plane_integrand", counting)
    n = A.n
    got = shifted_plane_integral(A, tuple(range(1, n + 1)), (0,) * n, beta, x, spec)
    points = np.concatenate([c.reshape(n, -1) for c in calls], axis=1)
    keys = points[0] + 1j * points[-1] if n == 2 else points[0]
    assert points.shape[1] == len(np.unique(keys))
    assert got.nodes_used == points.shape[1] == used


def test_a_short_cutoff_is_widened_and_its_rejected_first_levels_count(evaluations):
    # cutoff 2 and 4 leave |g| on the boundary above 1e-16 of its peak; each
    # costs its 64-point first level, and the window is cutoff 8's first level
    spec = plane_spec(cutoff=2.0)
    got = shifted_plane_integral(A1, (1,), (0,), [0.5], [0.25], spec)
    assert [c.shape[1] for c in evaluations] == [64, 64, 64, 63]
    assert [np.abs(c).max() for c in evaluations[:3]] == [2.0, 4.0, 8.0]
    kept = np.concatenate(evaluations[2:], axis=1)[0]
    assert kept.size == len(np.unique(kept))
    assert got.nodes_used == 2 * 64 + kept.size == 255
    want = _bessel_plane(0.5, 0.25)
    assert abs(got.value - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("x", [30.0, 300.0])
@pytest.mark.parametrize("beta", [0.5, 1.5, 5.0])
def test_plane_settles_relative_to_a_small_value(x, beta):
    # at x = 300 the value is about 1e-16; a test against tolerance * max(1, |value|)
    # accepted the second level, 48%, 43% and 5.5% off at these beta
    got = shifted_plane_integral(A1, (1,), (0,), [beta], [x], plane_spec(tolerance=1e-10))
    want = _bessel_plane(beta, x)
    assert abs(got.value - want) <= 1e-12 * abs(want)
    assert got.error_estimate <= 1e-10 * abs(got.value)


def _stacked_plane_integrand(system, k, beta, x):
    # reference: the plane integrand's formula on a stacked (n, ...) grid, through np.sum and einsum
    beta_I = system.base.coords(np.asarray(beta, dtype=np.complex128))
    gamma = system.off_base_coords.real
    shift = np.pi * (2 * np.asarray(k, dtype=np.float64) + 1)
    w = np.asarray(x, dtype=np.complex128) * np.exp(1j * (gamma @ shift))
    phase = np.exp(-1j * np.sum(beta_I * shift))

    def g(sigma_cols):
        total = -np.sum(np.exp(sigma_cols), axis=0) - np.einsum(
            "i,i...->...", beta_I, sigma_cols.astype(np.complex128)
        )
        for row in range(system.r):
            total = total + w[row] * np.exp(np.einsum("i,i...->...", gamma[row], sigma_cols))
        return phase * np.exp(total)

    return g


# sigma near 6.6 puts Re of the 1-D exponent between about -752 and -738 (exp
# is 0 below -745.13); near -1418 exp(-sigma/2) is finite but x e^(-sigma/2)
# overflows in its imaginary part alone, so exp gives NaN at a real part of
# about -1e306; below -1419.6 it overflows to inf
_EDGE_1D = np.concatenate([np.linspace(-40, 40, 161), 6.6 + np.linspace(-0.01, 0.01, 2001),
                           np.linspace(-1420.0, -1416.0, 81), [-800.0, -710.0, 710.0, 800.0, np.nan]])


@pytest.fixture
def formula_sizes(monkeypatch):
    """The number of nodes of each box the plane integrand hands its formula."""
    sizes = []
    formula = contour._plane_formula

    def counted(sigma, *args):
        sizes.append(math.prod(np.broadcast_shapes(*(s.shape for s in sigma))))
        return formula(sigma, *args)

    monkeypatch.setattr(contour, "_plane_formula", counted)
    return sizes


@pytest.mark.parametrize(
    "omega, beta, x, axes, box, kind",
    [
        ([(1,), (-1,)], [0.7], [0.3], [_EDGE_1D], "whole", "edges"),
        ([(1,), (-0.5,)], [0.7], [-10 * np.exp(0.01j)], [_EDGE_1D], "whole", "edges"),
        (COUPLED, [0.6, 0.9], [0.3, 0.8, 0.05],
         [np.r_[np.linspace(-30, 30, 61), -800.0, np.nan], np.r_[np.linspace(-30, 30, 41), -710.0, 6.6]], "whole", None),
        (SEP, [0.6, 1.2], [0.3, 0.8], [np.linspace(50.0, 60.0, 7), np.linspace(-5.0, 5.0, 9)], "none", "underflow"),
        # the formula runs on the rows and columns near the peak only
        ([(1,), (-1,)], [0.7], [0.3], [_EDGE_1D[:2162]], "part", "subnormal"),
        (COUPLED, [0.6, 0.9], [0.3, 0.8, 0.05], [np.linspace(-40, 40, 81), np.linspace(-30, 30, 61)], "part", None),
        # Re of the bound crosses -746 along both axes, and the nodes just above it are subnormal
        (SEP, [0.6, 1.2], [0.3, 0.8], [np.linspace(6.0, 6.7, 141), np.linspace(5.0, 6.0, 101)], "part", "subnormal"),
        # e^(-sigma_1 - 2 sigma_2) reaches e^687 to e^689 at sigma_2 = -344, below e^700 but not below e^700 / |w_3|:
        # w_3 e^688 is finite in its real part, so the bound alone would prune those nodes, and infinite in its
        # imaginary part, so exp is NaN
        (COUPLED, [0.6, 0.9], [0.3, 0.8, 0.1 - 1e10j], [np.linspace(-1, 1, 5), np.r_[np.linspace(-30, 30, 13), -344.0]],
         "whole", "nan"),
        # Im beta sigma overflows at sigma = 700, where Re of the bound is about -1e304, and the phase is 0
        ([(1,), (-1,)], [0.7 - 1e306j], [0.3], [np.r_[np.linspace(-40, 40, 161), 700.0]], "whole", "nan"),
        # x = 0 on a row of one axis adds nothing to the bound; on the coupled row, 0 e^720 is NaN
        (SEP, [0.6, 1.2], [0.0, 0.8], [np.linspace(-40, 40, 81), np.linspace(-30, 30, 61)], "part", None),
        (COUPLED, [0.6, 1.2], [0.3, 0.8, 0.0], [np.linspace(-5, 5, 11), np.r_[np.linspace(-30, 30, 61), -360.0]],
         "whole", "nan"),
    ],
    ids=["1d-edges", "1d-imaginary-overflow", "2d-coupled-edges", "2d-all-underflow", "1d-partly-live",
         "2d-partly-live", "2d-straddles-746", "2d-coupled-row-past-the-overflow-guard", "1d-imaginary-beta-overflows",
         "2d-zero-x-row", "2d-zero-x-row-overflows"],
)
def test_plane_integrand_on_an_open_grid_matches_the_stacked_formula(formula_sizes, omega, beta, x, axes, box, kind):
    # the formula on the box of the axes, scattered into zeros, is the stacked formula on the whole grid, to the bit
    system = ReducedSystem(select_base(vector_set(omega), tuple(range(1, len(axes) + 1))))
    k = (0,) * len(axes)
    with np.errstate(all="ignore"):
        want = _stacked_plane_integrand(system, k, beta, x)(np.stack(np.broadcast_arrays(*np.ix_(*axes))))
        g = contour._plane_integrand(system, k, beta, x)
        cut = g.box(axes)
        got = np.zeros(want.shape, np.complex128)
        if cut is not None:
            got[cut] = g(np.ix_(*(a[c] for a, c in zip(axes, cut))))
    assert (cut is None) == (box == "none")  # None: no node of the grid can be nonzero
    assert np.array_equal(got, want, equal_nan=True)
    if box == "part":
        assert len(formula_sizes) == 1 and 0 < formula_sizes[0] < want.size
    else:
        assert formula_sizes == ([want.size] if box == "whole" else [])
    if kind == "edges":  # the grid reaches the cases it is there for
        assert np.isnan(want).any() and (want == 0).any()
    if kind in ("edges", "subnormal"):
        assert ((want != 0) & (np.abs(want) < 1e-320)).any()  # a subnormal at Re about -745
    if kind == "nan":
        assert np.isnan(want).any()
    if kind == "underflow":
        assert not want.any()


@pytest.mark.parametrize("omega, beta, x, spec", [
    (SEP, [0.6, 1.2], [0.3, 0.8], plane_spec(nodes=257, cutoff=32.0, adaptive=False)),
    (SEP, [0.6, 1.2], [0.3, 0.8], plane_spec(nodes=769, cutoff=32.0, adaptive=False)),
    (SEP, [0.6, 1.2], [0.3, 0.8], plane_spec(tolerance=1e-10)),
    (COUPLED, [0.6, 1.2], [0.3, 0.8, 0.1], plane_spec()),
], ids=["fixed-257", "fixed-769", "adaptive", "coupled"])
def test_plane_integral_is_bit_identical_to_the_unpruned_formula(monkeypatch, omega, beta, x, spec):
    args = (vector_set(omega), (1, 2), (0, 0), beta, x, spec)
    got = shifted_plane_integral(*args)
    build, sets = contour._plane_integrand, []

    def unpruned(system, k, beta, x):
        formula, box = _stacked_plane_integrand(system, k, beta, x), build(system, k, beta, x).box

        def g(sigma):
            return formula(np.stack(np.broadcast_arrays(*sigma)))

        def recorded(axes):
            sets.append((formula, axes, box(axes)))
            return sets[-1][-1]

        g.box = recorded
        return g

    monkeypatch.setattr(contour, "_plane_integrand", unpruned)
    with np.errstate(all="ignore"):
        want = shifted_plane_integral(*args)
        outside = [formula(np.stack(np.meshgrid(*axes, indexing="ij"))) for formula, axes, _ in sets]
    # the stacked formula summed over the same boxes: value, error estimate and nodes_used, to the bit
    assert repr(got) == repr(want)
    # on every product set the engine visited, the unpruned formula is exactly 0 outside the box
    for values, (_, _, cut) in zip(outside, sets):
        if cut is not None:
            values[cut] = 0
        assert not np.any(values != 0)  # a NaN fails too
    assert any(cut is not None and values[cut].size < values.size for values, (_, _, cut) in zip(outside, sets))


def test_the_fixed_769_plane_runs_its_formula_on_few_nodes(formula_sizes):
    # 27,082 of its 591,361 nodes are not an exact 0; nodes_used still counts them all
    spec = plane_spec(nodes=769, cutoff=32.0, adaptive=False)
    got = shifted_plane_integral(A_SEP, (1, 2), (0, 0), [0.6, 1.2], [0.3, 0.8], spec)
    assert got.nodes_used == 769**2
    assert 0 < sum(formula_sizes) < 0.1 * got.nodes_used


def test_the_equality_tests_pass_with_numpy_simd_dispatch_off(rerun_without_simd):
    # pruning takes numpy's elementwise ops to give a node the same bits on a box as on its whole block
    rerun_without_simd(__file__, "-k", "stacked_formula or unpruned_formula or few_nodes")


def test_tanh_sinh_evaluates_each_node_once():
    seen = []

    def f(s, one_minus_s):
        seen.append(np.stack([s, one_minus_s]))
        return s**-0.5 * one_minus_s**-0.3

    spec = ContourSpec(tolerance=1e-12, max_refinements=14)
    value, err, used = contour._tanh_sinh(f, spec, "segment")
    points = np.concatenate(seen, axis=1)
    assert points.shape[1] == used == len(np.unique(points[0] + 1j * points[1]))
    assert abs(value - sp.beta(0.5, 0.7)) <= 1e-11 * sp.beta(0.5, 0.7)
    assert err <= 1e-12 * abs(value)


def test_fixed_plane_grid_holds_its_half_rate_grid():
    # an even node count integrates on nodes + 1 points per axis
    for nodes, count in ((64, 65), (129, 129), (257, 257), (769, 769)):
        spec = plane_spec(nodes=nodes, cutoff=32.0, adaptive=False)
        one = shifted_plane_integral(A1, (1,), (0,), [0.7], [0.3], spec)
        two = shifted_plane_integral(A_SEP, (1, 2), (0, 0), [0.6, 1.2], [0.3, 0.8], spec)
        assert (one.nodes_used, two.nodes_used) == (count, count**2)


def test_nonconvergence_names_kind_and_levels():
    stiff = {"tolerance": 1e-30, "max_refinements": 2}
    calls = [
        lambda: hankel_integral(A1, 1, 0.3, [0.5], loop_spec(**stiff)),
        lambda: shifted_plane_integral(A1, (1,), (0,), [0.7], [0.3], plane_spec(**stiff)),
        lambda: euler_segment_integral(AE, (1, 2), [-0.5, -0.7], [0.08], seg_spec(**stiff)),
    ]
    for kind, call in zip(("hankel-loop", "shifted-plane", "euler-segment"), calls):
        with pytest.raises(ConvergenceError) as info:
            call()
        assert str(info.value) == f"{kind} quadrature did not stabilize below 1e-30 in 2 levels"
    # the rule reads no level past max_levels
    levels = [(1.0, 9), (2.0, 17), (2.0, 33)]
    with pytest.raises(ConvergenceError, match="in 2 levels"):
        contour._settle(iter(levels), 1e-9, 2, "sums")
    assert contour._settle(iter(levels), 1e-9, 3, "sums") == (2.0, 0.0, 33)


def test_settle_is_relative_to_the_value():
    # two sums 1e-17 apart agree absolutely, not relatively to a value of 2e-17
    small = [(1e-17, 9), (2e-17, 17), (2e-17, 33)]
    assert contour._settle(iter(small), 1e-9, 3, "sums") == (2e-17, 0.0, 33)
    # an exact 0 is within no relative tolerance of itself, so it fails closed
    with pytest.raises(ConvergenceError, match="^sums did not stabilize below 1e-09 in 3 levels$"):
        contour._settle(iter([(0j, 9), (0j, 17), (0j, 33)]), 1e-9, 3, "sums")


def test_settle_fails_closed_at_the_first_sum_that_is_not_finite():
    def levels(*sums):
        yield from ((value, 9 * 2**i) for i, value in enumerate(sums))
        raise AssertionError("read past the failing level")

    big = 0.8e308 * (1 + 1j)  # finite, but |big - (-big)| passes the double range
    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf), 1.5e308 * (1 + 1j)):
        with pytest.raises(ConvergenceError, match="^sums level sum is not finite$"):
            contour._settle(levels(1.0, bad), 1e-9, 12, "sums")
    assert contour._settle(iter([(-big, 9), (big, 17), (big, 33)]), 1e-9, 12, "sums") == (big, 0.0, 33)
    assert contour._settle(iter([(-big, 9), (big, 17)]), np.inf, 2, "sums") == (big, np.inf, 17)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [400.0, 1000.0])
def test_loop_settles_without_a_warning_at_large_x(x):
    # e^(x/t) would pass the double range near |t| = 1/2; on the parabola |t| >= sqrt(x)
    got = hankel_integral(A1, 1, 0.5, [x], ContourSpec(tolerance=1e-10))
    want = TWO_PI_I * x**-0.25 * sp.iv(0.5, 2 * np.sqrt(x))
    assert abs(got.value - want) <= 1e-12 * abs(want)
    assert got.error_estimate <= 1e-10 * abs(want)


@pytest.fixture
def evaluations(monkeypatch):
    """The points handed to the integrand call by call, as (n, k) arrays; the
    trapezoid levels are its one caller, window search included."""
    calls = []
    original = contour._trapezoid_levels

    def levels(F, *args):
        def recorded(cols):
            calls.append(np.stack(np.broadcast_arrays(*cols)).reshape(len(cols), -1))
            return F(cols)

        return original(recorded, *args)

    monkeypatch.setattr(contour, "_trapezoid_levels", levels)
    return calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("beta, totals", [
    (-0.5, (92, 284, 284, 275, 138, 266, 129)),
    (0.5, (284, 284, 284, 275, 138, 266, 129)),
    (2.3, (147, 147, 147, 275, 138, 266, 129)),
], ids=["-0.5", "0.5", "2.3"])
def test_loop_matches_scipy_over_beta_and_x(evaluations, beta, totals):
    # each total: the 9-point first level of every half-width 1, 2, 4, ... the window
    # search tried, and at most 257 nodes, each evaluated once, on the last of them
    spec = ContourSpec(tolerance=1e-10)
    for x, total in zip((0.0, 0.25, 1.0, 10.0, 100.0, 300.0, 1000.0), totals):
        evaluations.clear()
        got = hankel_integral(A1, 1, beta, [x], spec)
        want = TWO_PI_I * (sp.rgamma(beta + 1) if x == 0 else x ** (-beta / 2) * sp.iv(beta, 2 * np.sqrt(x)))
        assert abs(got.value - want) <= 1e-12 * abs(want), x
        firsts = [i for i, u in enumerate(evaluations) if u.shape[1] == 9]  # later levels add 8, 16, ...
        assert [evaluations[i].max() for i in firsts] == [2.0**j for j in range(len(firsts))], x
        kept = np.concatenate(evaluations[firsts[-1]:], axis=1)[0]
        assert kept.size == len(np.unique(kept)) <= 257, x
        assert got.nodes_used == 9 * (len(firsts) - 1) + kept.size == total, x


@pytest.mark.parametrize("integrate", [
    lambda: hankel_integral(A1, 1, 0.5, [0.0], ContourSpec(tolerance=1e-10)),
    lambda: shifted_plane_integral(A1, (1,), (0,), [0.5], [0.25], plane_spec(cutoff=2.0)),
    lambda: shifted_plane_integral(A_SEP, (1, 2), (0, 0), [0.6, 1.2], [0.3, 0.8], plane_spec()),
    lambda: shifted_plane_integral(A_SEP, (1, 2), (0, 0), [0.6, 1.2], [0.3, 0.8], plane_spec(adaptive=False)),
    lambda: euler_segment_integral(AE, (1, 2), [-0.1, -0.6], [0.0], seg_spec()),
], ids=["loop", "1d-plane-widened", "2d-plane", "2d-plane-fixed", "segment-past-tau-4"])
def test_nodes_used_counts_every_integrand_evaluation(evaluations, integrate):
    assert integrate().nodes_used == sum(u.shape[1] for u in evaluations)


def _loop_series(beta, terms):
    """2 pi i sum_m prod_j x_j^(m_j) / m_j! * rgamma(beta + 1 - sum_j g_j m_j) in mpmath, for
    ``terms`` a list of (g_j, x_j): the loop integral expanded in its invariant variables."""
    mp.mp.dps = 30
    total, size = mp.mpf(0), 60
    for ms in itertools.product(range(size), repeat=len(terms)):
        term = mp.rgamma(beta + 1 - sum(mp.mpc(g) * m for (g, _), m in zip(terms, ms)))
        for (_, x), m in zip(terms, ms):
            term *= mp.mpf(x) ** m / mp.factorial(m)
        total += term
    return complex(2j * mp.pi * total)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega, beta, x", [
    ([[1], [-2]], 0.3, [0.8]),
    ([[1], [0.5]], 0.3, [0.7]),
    ([[1], [-1 + 0.5j]], 0.4, [0.6]),
    ([[1], [-1], [-2]], 0.7, [0.5, 0.3]),
], ids=["g=-2", "g=1/2", "g=-1+0.5i", "two-variable"])
def test_loop_matches_the_series_for_other_exponents(omega, beta, x):
    A = vector_set(omega)
    terms = list(zip(ReducedSystem(select_base(A, (1,))).off_base_coords[:, 0], x))
    got = hankel_integral(A, 1, beta, x, ContourSpec(tolerance=1e-12)).value
    want = _loop_series(beta, terms)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_settle_reads_no_difference_at_the_first_level():
    # an underflowing complex exp leaves errno at ERANGE under glibc, and
    # Python's abs of a NaN complex then raises OverflowError; the first level
    # has no previous sum to differ from, so the rule takes no abs with NaN
    def underflowing(*sums):
        for i, value in enumerate(sums):
            np.exp(np.full(4, -800.0 + 1j))
            yield value, 9 * 2**i

    assert contour._settle(underflowing(1 + 1j, 1 + 1j), np.inf, 2, "sums") == (1 + 1j, 0.0, 18)
    assert contour._settle(underflowing(1 + 1j, 1 + 1j), 1e-9, 2, "sums") == (1 + 1j, 0.0, 18)


def test_levels_stop_before_the_evaluation_cap(monkeypatch):
    monkeypatch.setattr(contour, "_MAX_EVALUATIONS", 10**4)
    counts = [points for _, points in contour._trapezoid_levels(lambda p: 1.0, [1.0], 16, 2)]
    assert counts == [16**2, 31**2, 61**2]  # 121^2 would pass the cap
    spec = plane_spec(nodes=16, tolerance=1e-30)
    with pytest.raises(ConvergenceError) as info:
        shifted_plane_integral(A_SEP, (1, 2), (0, 0), [0.6, 1.2], [0.3, 0.8], spec)
    assert str(info.value) == "shifted-plane quadrature did not stabilize below 1e-30 in 10000 evaluations"


AE = vector_set([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)])


def seg_spec(**kw):
    kw.setdefault("tolerance", 1e-12)
    kw.setdefault("max_refinements", 14)
    return ContourSpec(**kw)


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
    base_rep, off_rep = check_reduced_system(F, system, tolerance=1e-6, points=points)
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


@pytest.mark.parametrize("b1", [-0.2, -0.1, -0.05])
def test_euler_endpoint_mass_past_tau_4_is_integrated(b1):
    # s^(-b1-1) puts mass s^a / a (a = -b1) past tau = -4, where s is about e^(-85.7)
    spec = ContourSpec(tolerance=1e-10, max_refinements=14)
    got = euler_segment_integral(AE, (1, 2), [b1, -0.6], [0.0], spec)
    want = sp.beta(-b1, 0.6) * sp.rgamma(b1 + 0.4)
    assert abs(got.value - want) <= 1e-10 * abs(want)


def test_euler_endpoint_mass_past_tau_6_fails_by_name():
    for beta, end in (([-0.01, -0.6], 0), ([-0.6, -0.01], 1)):
        with pytest.raises(ConvergenceError, match=f"past tau = 6 at the s = {end} endpoint$"):
            euler_segment_integral(AE, (1, 2), beta, [0.0], ContourSpec(tolerance=1e-10))


def test_one_spec_serves_all_three_integrals():
    spec = ContourSpec(tolerance=1e-10, max_refinements=14)
    loop = hankel_integral(A1, 1, 0.3, [0.0], spec)
    assert abs(loop.value - TWO_PI_I * sp.rgamma(1.3)) <= 1e-8
    plane = shifted_plane_integral(A1, (1,), (0,), [0.7], [0.3], spec)
    bessel = 2 * 0.3**-0.35 * sp.kv(0.7, 2 * np.sqrt(0.3)) * np.exp(-1j * np.pi * 0.7)
    assert abs(plane.value - bessel) <= 1e-8 * abs(bessel)
    segment = euler_segment_integral(AE, (1, 2), [-0.5, -0.7], [0.0], spec)
    euler = sp.beta(0.5, 0.7) * sp.rgamma(-0.2)
    assert abs(segment.value - euler) <= 1e-8 * abs(euler)
    # the loop and the segment read only tolerance and max_refinements: the
    # plane's fields leave them bit-identical
    unread = [
        (loop, dict(nodes=257, cutoff=1.0, adaptive=False), lambda s: hankel_integral(A1, 1, 0.3, [0.0], s)),
        (
            segment,
            dict(nodes=257, cutoff=1.0, adaptive=False),
            lambda s: euler_segment_integral(AE, (1, 2), [-0.5, -0.7], [0.0], s),
        ),
    ]
    for value, changes, integrate in unread:
        assert integrate(dataclasses.replace(spec, **changes)) == value
