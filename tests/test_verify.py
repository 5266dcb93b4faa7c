from dataclasses import replace

import numpy as np
import pytest

from ggsys.errors import ConvergenceError, DomainError, InvalidInputError
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
    sample_parameters,
    solution_family_rank,
)

A_G = vector_set([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
R_G = build_reduced_system(select_base(A_G, (1, 2, 3)))


def _gg_spec(A, I, k=None, truncation=25):
    return SeriesSpec(build_reduced_system(select_base(A, I)), k or (0,) * A.n, truncation)


def _gg_evaluator(A, I, k=None, truncation=25):
    """The series of ``_gg_spec`` as a plain evaluator, which the check only calls."""
    spec = _gg_spec(A, I, k, truncation)

    def f(beta, a):
        return gg_series_eval(spec, beta, a).value

    return f


def test_gg_system_on_running_example():
    r1, r2, r3 = check_gg_system(_gg_spec(A_G, (1, 2, 3)), A_G, samples=20, seed=3)
    assert r1.equation == "derivative-shift"
    assert r2.equation == "weighted-shift"
    assert r3.equation == "weighted-forms-agreement"
    assert r1.passed and r2.passed and r3.passed


def test_gg_system_default_base_is_the_first_base():
    # the first base of this set is (1, 2, 4): labels 1-3 are dependent
    A = vector_set([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)])
    f = _gg_evaluator(A, (1, 2, 4), truncation=12)
    default = check_gg_system(f, A, samples=3, seed=2)
    assert default == check_gg_system(f, A, samples=3, seed=2, base=(1, 2, 4))
    assert all(rep.passed for rep in default)


def test_gg_system_negative_control():
    r1, r2, _ = check_gg_system(_gg_spec(A_G, (1, 2, 3)), A_G, samples=10, seed=3, perturbation=1e-3)
    assert not (r1.passed and r2.passed)


def test_a_perturbed_spec_reads_like_the_perturbed_evaluator():
    f = _gg_evaluator(A_G, (1, 2, 3))

    def broken(beta, a):
        return f(beta, a) + 1e-3 * a[0]

    by_hand = check_gg_system(broken, A_G, samples=6, seed=3, base=(1, 2, 3))
    assert check_gg_system(_gg_spec(A_G, (1, 2, 3)), A_G, samples=6, seed=3, perturbation=1e-3) == by_hand
    assert not any(rep.passed for rep in by_hand)


def test_a_spec_of_another_set_or_with_a_base_is_refused():
    spec = _gg_spec(A_G, (1, 2, 3))
    twin = vector_set(A_G.omega)  # equal rows, another set
    with pytest.raises(InvalidInputError, match="not a reduced-mode spec of a system of this vector set"):
        check_gg_system(spec, twin, samples=1)
    # a mixed-mode spec has no form in the original variables a
    mixed = SeriesSpec(R_G, (0, 0, 0), 5, "mixed", ((1,), (2, 3)))
    with pytest.raises(InvalidInputError, match="not a reduced-mode spec"):
        check_gg_system(mixed, A_G, samples=1)
    with pytest.raises(InvalidInputError, match="its own base"):
        check_gg_system(spec, A_G, samples=1, base=(1, 2, 3))


def test_gg_forms_agree():
    rep = check_gg_system(_gg_spec(A_G, (1, 2, 3)), A_G, samples=10, seed=5, tolerance=1e-9)[2]
    assert rep.equation == "weighted-forms-agreement"
    assert rep.sample_points == 10
    assert rep.passed


def test_report_invariant_pass_iff_rel_below_tol():
    for rep in check_gg_system(_gg_spec(A_G, (1, 2, 3)), A_G, samples=5, seed=1):
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


def test_gg_system_tabulates_each_parameter_once_per_sample(monkeypatch):
    # the value and all 2N difference quotients share beta's table; each of
    # the N shifted parameters takes one more
    built = []
    init = TruncatedSeries.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(TruncatedSeries, "__init__", counting)
    f = _gg_evaluator(A_G, (1, 2, 3))
    check_gg_system(f, A_G, samples=3, seed=3, base=(1, 2, 3))
    assert len(built) == 3 * (1 + A_G.N)


def test_reports_are_deterministic():
    spec = _gg_spec(A_G, (1, 2, 3))
    first = check_gg_system(spec, A_G, samples=8, seed=11)
    second = check_gg_system(spec, A_G, samples=8, seed=11)
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


def test_def2_rows_off_an_integer_are_no_lattice_shifts():
    def F(gamma, a):
        return elementary_solution_full(a)

    assert check_def2_system(F, 3, np.eye(3), samples=2, seed=4)[1].sample_points == 6
    # 1e-13 from an integer is not an integer: no periodicity residual is run
    assert check_def2_system(F, 3, np.eye(3) + 1e-13, samples=2, seed=4)[1].sample_points == 0


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
    r1, r2 = check_reduced_system(SeriesSpec(R_G, (0, 0, 0), 20), R_G, samples=20, seed=7)
    assert r1.max_rel_residual <= 1e-10
    assert r2.max_rel_residual <= 1e-10


def test_reduced_exact_mode_twisted():
    r1, r2 = check_reduced_system(SeriesSpec(R_G, (1, 0, 0), 20), R_G, samples=15, seed=7)
    assert r1.max_rel_residual <= 1e-10
    assert r2.max_rel_residual <= 1e-10


def test_reduced_fd_mode_mixed_series():
    def F(beta, x):
        spec = SeriesSpec(R_G, (0, 0, 0), 30, "mixed", ((1, 2), (3,)))
        return mixed_gamma_series_eval(spec, beta, x).value

    r1, r2 = check_reduced_system(F, R_G, samples=10, seed=9, tolerance=1e-9)
    assert r1.passed and r2.passed


def test_reduced_exact_mode_mixed_series():
    spec = SeriesSpec(R_G, (0, 0, 0), 20, "mixed", ((1, 2), (3,)))
    r1, r2 = check_reduced_system(spec, R_G, samples=10, seed=9)
    assert r1.max_rel_residual <= 1e-12
    assert r2.max_rel_residual <= 1e-12


def test_reduced_exact_mode_rejects_a_spec_of_another_system():
    other = build_reduced_system(select_base(A_G, (1, 2, 4)))
    with pytest.raises(InvalidInputError):
        check_reduced_system(SeriesSpec(other, (0, 0, 0), 20), R_G)


def test_reduced_fd_error_shrinks_with_step():
    # quantify the finite-difference contribution by comparing fd mode with
    # exact mode on the same seed
    exact = check_reduced_system(SeriesSpec(R_G, (0, 0, 0), 25), R_G, samples=10, seed=13)

    def F(beta, x):
        spec = SeriesSpec(R_G, (0, 0, 0), 25)
        return reduced_series(spec, beta).value(x).value

    fd = check_reduced_system(F, R_G, samples=10, seed=13)
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
    check_reduced_system(SeriesSpec(R_G, (0, 0, 0), 20), R_G, samples=4, seed=7)
    assert len(calls) == 4 * R_G.r


def test_reduced_fd_mode_evaluates_each_value_once():
    def F(beta, x):
        return reduced_series(SeriesSpec(R_G, (0, 0, 0), 20), beta).value(x).value

    counted, calls = _counting(F)
    check_reduced_system(counted, R_G, samples=4, seed=7)
    n = R_G.base.parent.n
    # the value, a central difference per partial, and the n + r shifts
    assert len(calls) == 4 * (1 + n + 3 * R_G.r)


def test_def2_pairing_reuses_the_shifted_values():
    counted, calls = _counting(monomial_solution_zero)
    size = 3
    check_def2_system(counted, size, [], samples=4, seed=2)
    assert len(calls) == 4 * (1 + 3 * size)


def test_gauss_relations_pass():
    reports = check_gauss_relations(samples=100, seed=0, tolerance=1e-9)
    assert [r.equation for r in reports] == [
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
    assert rep.equation == "hypergeometric-ode"


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


@pytest.mark.parametrize("error", [InvalidInputError, DomainError, ConvergenceError, ZeroDivisionError])
def test_evaluator_errors(error):
    def f(beta, a):
        raise error("inside the evaluator")

    # the package's own errors keep their type; any other names the sample
    expected = RuntimeError if error is ZeroDivisionError else error
    with pytest.raises(expected) as info:
        check_gg_system(f, A_G, samples=1, base=(1, 2, 3))
    if expected is RuntimeError:
        assert str(info.value).startswith("evaluator failed at parameters")
        assert isinstance(info.value.__cause__, ZeroDivisionError)
    else:
        assert str(info.value) == "inside the evaluator"


# -- rgamma calls per sample --------------------------------------------------

# an integer set whose off-base series converge everywhere
A_INT = vector_set([(1, 0), (0, 1), (-1, -1), (-1, -2)])
R_INT = build_reduced_system(select_base(A_INT, (1, 2)))


def _rgamma_calls(monkeypatch):
    """Count the rgamma calls of the series layer."""
    import ggsys.series

    calls = []
    rgamma = ggsys.series.rgamma
    monkeypatch.setattr(ggsys.series, "rgamma", lambda z: calls.append(np.shape(z)) or rgamma(z))
    return calls


@pytest.mark.parametrize("perturbation", [0j, 1e-3])
def test_a_gg_spec_costs_one_rgamma_call_per_block(monkeypatch, perturbation):
    spec = SeriesSpec(R_INT, (0, 0), 20)
    calls = _rgamma_calls(monkeypatch)
    batched = check_gg_system(spec, A_INT, samples=5, seed=4, perturbation=perturbation)
    assert len(calls) == 1  # 5 samples of 1 + N tables of 231 terms make one block
    assert all(rep.passed for rep in batched) == (perturbation == 0)


# r = 4: tables of 20,475 terms at truncation 24, where numpy may reuse a temporary in place
A_R4 = vector_set([(1, 0), (0, 1), (-1, -1), (-1, -2), (-2, -1), (-1, 0)])
R_R4 = build_reduced_system(select_base(A_R4, (1, 2)))


def test_a_gg_spec_reads_like_its_evaluator(monkeypatch):
    spec = SeriesSpec(R_INT, (0, 0), 20)
    calls = _rgamma_calls(monkeypatch)
    plain = check_gg_system(lambda beta, a: gg_series_eval(spec, beta, a).value, A_INT, samples=5, seed=4, base=(1, 2))
    assert len(calls) == 5 * (1 + A_INT.N)  # beta, then each shifted parameter on its own
    assert check_gg_system(spec, A_INT, samples=5, seed=4) == plain
    assert all(rep.passed for rep in plain)
    # a twist, a perturbation, the gauss set and a large table read alike too
    for A, I, k, perturbation, truncation, samples in [
        (A_INT, (1, 2), (1, -1), 0j, 20, 5),
        (A_INT, (1, 2), (0, 0), 1e-3, 20, 5),
        (A_G, (1, 2, 3), (0, 1, -1), 0j, 25, 4),
        (A_G, (1, 2, 4), (1, 0, 0), 2e-3j, 25, 4),
        (A_R4, (1, 2), (0, 1), 0j, 24, 1),
    ]:
        f = _gg_evaluator(A, I, k, truncation)
        reports = check_gg_system(_gg_spec(A, I, k, truncation), A, samples=samples, seed=9, perturbation=perturbation)
        assert reports == check_gg_system(f, A, samples=samples, seed=9, base=I, perturbation=perturbation)
        assert all(rep.passed for rep in reports) == (perturbation == 0)


def test_a_spec_costs_one_rgamma_call_per_block(monkeypatch):
    calls = _rgamma_calls(monkeypatch)
    reports = check_reduced_system(SeriesSpec(R_INT, (0, 0), 20), R_INT, samples=5, seed=6)
    assert len(calls) == 1
    assert all(rep.passed for rep in reports)


def test_family_members_cost_one_rgamma_call_per_block(monkeypatch):
    family = [((1, 2, 3), (0, 0, 0)), ((1, 2, 4), (0, 0, 0))]
    calls = _rgamma_calls(monkeypatch)
    result = solution_family_rank(A_G, family, samples=4, seed=17)
    assert result.scale_used == 0.3  # one pass builds the rank matrix
    # one batch of every member for the rank matrix, then one block per member's check
    assert len(calls) == 1 + len(family)


# at truncation 20 on the gauss set a sample holds 105 terms in the gg check and 104 in the
# reduced one: a budget of 1 makes each sample a block, and 210 makes blocks of 2, 2 and 1
@pytest.mark.parametrize("budget, blocks", [(1, 5), (210, 3)])
def test_blocks_of_samples_give_the_reports_of_one_block(monkeypatch, budget, blocks):
    import ggsys.verify

    spec = _gg_spec(A_G, (1, 2, 3), (0, 1, 0), 20)
    whole = check_gg_system(spec, A_G, samples=5, seed=2), check_reduced_system(spec, spec.system, samples=5, seed=3)
    calls = _rgamma_calls(monkeypatch)
    monkeypatch.setattr(ggsys.verify, "_BLOCK_TERMS", budget)
    split = check_gg_system(spec, A_G, samples=5, seed=2), check_reduced_system(spec, spec.system, samples=5, seed=3)
    assert len(calls) == 2 * blocks
    assert split == whole


@pytest.mark.parametrize("system, truncation, samples", [(R_G, 20, 4), (R_INT, 25, 4), (R_R4, 24, 1)],
                         ids=["gauss", "integer", "large-tables"])
def test_reduced_check_reads_its_tables_as_value_and_derivative_do(system, truncation, samples):
    from ggsys.verify import _reduced_spec_values, _sample_tables

    A, base = system.base.parent, system.base
    spec = SeriesSpec(system, (1,) + (0,) * (A.n - 1), truncation)
    specs = [spec] * (1 + A.n) + [replace(spec, truncation=truncation - 1)] * system.r
    rng = np.random.default_rng(5)
    betas = sample_parameters(system, samples, rng)
    xs = [0.3 * (rng.uniform(-1, 1, system.r) + 1j * rng.uniform(-1, 1, system.r)) for _ in range(samples)]
    parameters = [[beta, *(beta - A.row(i) for i in (*base.I, *base.J))] for beta in betas]
    read = _reduced_spec_values(system, xs, _sample_tables(specs, parameters))
    for x, (f0, partials, shifted), params in zip(xs, read, parameters):
        S, *tables = (reduced_series(s, b) for s, b in zip(specs, params))
        want = [S.value(x).value, *(S.derivative(x, j) for j in base.J), *(T.value(x).value for T in tables)]
        assert np.array([f0, *partials, *shifted]).tobytes() == np.array(want).tobytes()


def test_family_domain_search_halves_delta_until_the_member_settles():
    # the coefficients grow like (3m)! / m!, so the order-30 tail settles only at small delta
    A = vector_set([(1, 0), (0, 1), (-1, 3)])
    delta = 0.3
    for _ in range(7):
        delta /= 2
    result = solution_family_rank(A, [((1, 2), (0, 0))], samples=3, seed=17, truncation=30)
    assert result.scale_used == delta


def test_family_domain_search_stops_each_delta_at_the_first_unsettled_sample(monkeypatch):
    import ggsys.verify

    bases = []
    evaluate = ggsys.verify._gg_value
    monkeypatch.setattr(ggsys.verify, "_gg_value", lambda table, a: bases.append(table.spec.system.base.I) or evaluate(table, a))
    family = [((1, 2, 3), (0, 0, 0)), ((2, 3, 4), (0, 0, 0))]
    with pytest.raises(DomainError):
        solution_family_rank(A_G, family, samples=4, seed=17)
    # delta scales a_1 and a_4 alike, which leaves the first member's x_4 = a_3 a_4 / (a_1 a_2)
    # as it is: its third sample never settles, so no delta reaches the second member
    assert bases == [(1, 2, 3)] * (20 * 3)


@pytest.mark.parametrize("broken", [
    lambda val: replace(val, tail_estimate=float("nan")),
    lambda val: replace(val, value=complex(float("inf"), 0.0), tail_estimate=float("inf")),
], ids=["nan-tail", "infinite-value-and-tail"])
def test_family_domain_search_fails_closed_on_a_non_finite_value(monkeypatch, broken):
    import ggsys.verify

    evaluate = ggsys.verify._gg_value
    monkeypatch.setattr(ggsys.verify, "_gg_value", lambda table, a: broken(evaluate(table, a)))
    with pytest.raises(DomainError, match="no common convergence domain"):
        solution_family_rank(A_G, [((1, 2, 3), (0, 0, 0))], samples=2, seed=17)


def test_checks_read_the_tables_they_batch(monkeypatch):
    import ggsys.series
    import ggsys.verify

    def refuse(*args):
        raise AssertionError("a check read a table it did not batch")

    for name in ("gg_series_eval", "reduced_series"):
        monkeypatch.setattr(ggsys.series, name, refuse)
        assert not hasattr(ggsys.verify, name)
    assert all(rep.passed for rep in check_gg_system(SeriesSpec(R_INT, (0, 0), 20), A_INT, samples=3, seed=4))
    result = solution_family_rank(A_G, [((1, 2, 3), (0, 0, 0)), ((1, 2, 4), (0, 0, 0))], samples=3, seed=17)
    assert result.rank == 2 and result.report.passed
