import numpy as np
import pytest

from ggsys.errors import InvalidInputError
from ggsys.model import build_reduced_system, select_base, vector_set
from ggsys.series import (
    SeriesSpec,
    elementary_solution_full,
    gg_series_eval,
    mixed_gamma_series_eval,
    monomial_solution_zero,
    TruncatedSeries,
    reduced_series,
)
from ggsys.verify import (
    check_def2_system,
    check_gauss_ode,
    check_gauss_relations,
    check_gg_system,
    check_reduced_system,
    residual_report,
    solution_family_rank,
)

A_G = vector_set([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
R_G = build_reduced_system(select_base(A_G, (1, 2, 3)))


def _gg_evaluator(A, I, k=None, truncation=25):
    system = build_reduced_system(select_base(A, I))
    spec = SeriesSpec(system, k or (0,) * A.n, truncation, mode="full")

    def f(beta, a):
        return gg_series_eval(spec, beta, a).value

    return f


def _series_factory(system, k=None):
    def make(beta, truncation):
        spec = SeriesSpec(system, k or (0,) * system.base.parent.n, truncation)
        return reduced_series(spec, beta)

    return make


def test_gg_system_on_running_example():
    f = _gg_evaluator(A_G, (1, 2, 3))
    r1, r2, r3 = check_gg_system(f, A_G, samples=20, seed=3, base=(1, 2, 3))
    assert r1.equation_id == "derivative-shift"
    assert r2.equation_id == "weighted-shift"
    assert r3.equation_id == "weighted-forms-agreement"
    assert r1.passed and r2.passed and r3.passed


def test_gg_system_default_base_is_the_first_base():
    # the first base of this set is (1, 2, 4): labels 1-3 are dependent
    A = vector_set([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)])
    f = _gg_evaluator(A, (1, 2, 4), truncation=12)
    default = check_gg_system(f, A, samples=3, seed=2)
    assert default == check_gg_system(f, A, samples=3, seed=2, base=(1, 2, 4))
    assert all(rep.passed for rep in default)


def test_gg_system_negative_control():
    f = _gg_evaluator(A_G, (1, 2, 3))

    def broken(beta, a):
        return f(beta, a) + 1e-3 * a[0]

    r1, r2, _ = check_gg_system(broken, A_G, samples=10, seed=3, base=(1, 2, 3))
    assert not (r1.passed and r2.passed)


def test_gg_forms_agree():
    f = _gg_evaluator(A_G, (1, 2, 3))
    rep = check_gg_system(f, A_G, samples=10, seed=5, tolerance=1e-9, base=(1, 2, 3))[2]
    assert rep.equation_id == "weighted-forms-agreement"
    assert rep.sample_points == 10
    assert rep.passed


def test_report_invariant_pass_iff_rel_below_tol():
    f = _gg_evaluator(A_G, (1, 2, 3))
    for rep in check_gg_system(f, A_G, samples=5, seed=1, base=(1, 2, 3)):
        assert rep.passed == (rep.max_rel_residual <= rep.tolerance)


@pytest.mark.parametrize(
    "residuals, scales",
    [
        ([1e-12, float("nan")], [1.0]),
        ([float("nan"), 1e-12], [1.0]),
        ([1e-12, float("inf")], [1.0]),
        ([1e-12], [1.0, float("inf")]),
        ([1e-12], [float("nan"), 1.0]),
    ],
)
def test_residual_report_fails_closed(residuals, scales):
    rep = residual_report("x", residuals, scales, 1e-8)
    assert not rep.passed
    assert np.isnan(rep.max_rel_residual)
    assert rep.sample_points == len(residuals)


def test_residual_report_finite_numbers():
    rep = residual_report("x", [2e-12, 5e-12, 1e-12], [0.5, 2.0], 1e-8)
    assert rep.max_abs_residual == 5e-12
    assert rep.max_rel_residual == 5e-12 / 2.0
    assert rep.sample_points == 3 and rep.passed
    floored = residual_report("x", [1e-305], [0.0], 1e-8)
    assert floored.max_rel_residual == 1e-305 / 1e-300 and not floored.passed


def test_gg_system_fails_closed_on_a_late_nan():
    f = _gg_evaluator(A_G, (1, 2, 3))
    calls = []

    def flaky(beta, a):
        calls.append(1)
        # call 1 + 3N = 13 ends the first sample; call 15 is the first
        # difference quotient of the second sample
        return complex("nan") if len(calls) == 15 else f(beta, a)

    r1, r2, r3 = check_gg_system(flaky, A_G, samples=5, seed=3, base=(1, 2, 3))
    assert not r1.passed and np.isnan(r1.max_abs_residual)
    assert not r3.passed and np.isnan(r3.max_abs_residual)
    # the weighted-shift equation never reads a difference quotient
    assert r2.passed


def test_reports_are_deterministic():
    f = _gg_evaluator(A_G, (1, 2, 3))
    first = check_gg_system(f, A_G, samples=8, seed=11, base=(1, 2, 3))
    second = check_gg_system(f, A_G, samples=8, seed=11, base=(1, 2, 3))
    assert first == second


def test_def2_elementary_solution():
    def F(gamma, a):
        return elementary_solution_full(a)

    def dF(gamma, a, i):
        return elementary_solution_full(a)

    reports = check_def2_system(
        F, 4, np.eye(4), samples=15, seed=2, derivative=dF
    )
    for rep in reports:
        assert rep.max_rel_residual <= 1e-12


def test_def2_monomial_solution():
    def F(gamma, a):
        return monomial_solution_zero(gamma, a)

    def dF(gamma, a, i):
        return gamma[i - 1] / a[i - 1] * monomial_solution_zero(gamma, a)

    reports = check_def2_system(F, 3, [], samples=15, seed=2, derivative=dF)
    for rep in reports:
        assert rep.max_rel_residual <= 1e-12
    # the zero subspace has no nonzero integer shifts to test
    assert reports[1].sample_points == 0


def test_def2_finite_differences_floor():
    def F(gamma, a):
        return elementary_solution_full(a)

    reports = check_def2_system(F, 3, np.eye(3), samples=10, seed=4)
    assert reports[0].max_rel_residual <= 1e-9  # fd noise, not exact zero
    assert reports[0].passed


def test_def2_negative_control():
    def F(gamma, a):
        return elementary_solution_full(a) + 0.01 * gamma[0]

    reports = check_def2_system(F, 3, np.eye(3), samples=10, seed=4)
    assert not all(rep.passed for rep in reports)


def test_reduced_exact_mode_running_example():
    r1, r2 = check_reduced_system(
        _series_factory(R_G), R_G, samples=20, seed=7, mode="exact", truncation=20
    )
    assert r1.max_rel_residual <= 1e-10
    assert r2.max_rel_residual <= 1e-10


def test_reduced_exact_mode_twisted():
    r1, r2 = check_reduced_system(
        _series_factory(R_G, k=(1, 0, 0)),
        R_G,
        samples=15,
        seed=7,
        mode="exact",
        truncation=20,
    )
    assert r1.max_rel_residual <= 1e-10
    assert r2.max_rel_residual <= 1e-10


def test_reduced_fd_mode_mixed_series():
    def F(beta, x):
        spec = SeriesSpec(R_G, (0, 0, 0), 30, "mixed", ((1, 2), (3,)))
        return mixed_gamma_series_eval(spec, beta, x).value

    r1, r2 = check_reduced_system(
        F, R_G, samples=10, seed=9, mode="fd", tolerance=1e-9
    )
    assert r1.passed and r2.passed


def test_reduced_fd_error_shrinks_with_step():
    # quantify the finite-difference contribution by comparing fd mode with
    # exact mode on the same seed
    exact = check_reduced_system(
        _series_factory(R_G), R_G, samples=10, seed=13, mode="exact", truncation=25
    )

    def F(beta, x):
        spec = SeriesSpec(R_G, (0, 0, 0), 25)
        return reduced_series(spec, beta).value(x).value

    fd = check_reduced_system(F, R_G, samples=10, seed=13, mode="fd")
    assert exact[0].max_rel_residual <= 1e-11
    assert fd[0].max_rel_residual <= 1e-7
    assert fd[0].max_rel_residual >= exact[0].max_rel_residual


def _counting(f):
    calls = []

    def counted(*args):
        calls.append(1)
        return f(*args)

    return counted, calls


def test_reduced_exact_mode_takes_each_partial_once(monkeypatch):
    counted, calls = _counting(TruncatedSeries.derivative)
    monkeypatch.setattr(TruncatedSeries, "derivative", counted)
    check_reduced_system(_series_factory(R_G), R_G, samples=4, seed=7, mode="exact")
    assert len(calls) == 4 * R_G.r


def test_reduced_fd_mode_evaluates_each_value_once():
    def F(beta, x):
        return reduced_series(SeriesSpec(R_G, (0, 0, 0), 20), beta).value(x).value

    counted, calls = _counting(F)
    check_reduced_system(counted, R_G, samples=4, seed=7, mode="fd")
    n = R_G.base.parent.n
    # the value, a central difference per partial, and the n + r shifts
    assert len(calls) == 4 * (1 + n + 3 * R_G.r)


def test_def2_pairing_reuses_the_shifted_values():
    counted, calls = _counting(monomial_solution_zero)
    size = 3
    check_def2_system(counted, size, [], samples=4, seed=2)
    assert len(calls) == 4 * (1 + 3 * size)


def test_reduced_rejects_unknown_mode():
    with pytest.raises(InvalidInputError):
        check_reduced_system(_series_factory(R_G), R_G, mode="symbolic")


def test_gauss_relations_pass():
    reports = check_gauss_relations(samples=100, seed=0, tolerance=1e-9)
    assert [r.equation_id for r in reports] == [
        "derivative-up",
        "shift-a",
        "shift-b",
        "shift-c",
    ]
    for rep in reports:
        assert rep.passed, rep


def test_gauss_relations_at_origin():
    pts = [(0.7, 1.4, 1.9, 0.0), (1.1, 0.6, 0.8, 0.0)]
    reports = check_gauss_relations(points=pts, tolerance=1e-12)
    for rep in reports[1:]:
        assert rep.passed  # pure Gamma recurrences at x = 0


def test_gauss_relations_negative_control():
    reports = check_gauss_relations(samples=30, seed=0, perturbation=0.25)
    assert not reports[3].passed
    for rep in reports[:3]:
        assert rep.passed


def test_gauss_ode_log_case():
    rep = check_gauss_ode(1, 1, 2, samples=50, seed=1)
    assert rep.passed
    assert rep.equation_id == "hypergeometric-ode"


def test_gauss_ode_at_origin():
    rep = check_gauss_ode(0.8, 1.7, 1.3, xs=[0.0], tolerance=1e-10)
    assert rep.passed


def test_gauss_ode_negative_control():
    rep = check_gauss_ode(1, 1, 2, samples=30, seed=1, perturbation=0.1)
    assert not rep.passed


def test_family_rank_two_bases():
    family = [((1, 2, 3), (0, 0, 0)), ((1, 2, 4), (0, 0, 0))]
    result = solution_family_rank(A_G, family, samples=10, seed=17)
    assert result.rank == 2
    assert result.report.passed


def test_family_rank_single_and_duplicate():
    single = solution_family_rank(A_G, [((1, 2, 3), (0, 0, 0))], samples=8, seed=17)
    assert single.rank == 1
    doubled = solution_family_rank(
        A_G,
        [((1, 2, 3), (0, 0, 0)), ((1, 2, 3), (0, 0, 0))],
        samples=8,
        seed=17,
    )
    assert doubled.rank == 1
