"""Integer arguments go through one rule, and every documented refusal raises
its own error."""
import numpy as np
import pytest

from ggsys.contour import ContourSpec, hankel_integral, shifted_plane_integral
from ggsys.distributions import (
    cm_pair,
    fourier_consistency_check,
    gamma_minus_pair,
    gamma_plus_pair,
    gg_distribution_pair,
    smooth_bump,
)
from ggsys.errors import InvalidInputError
from ggsys.lattice import (
    candidate_family,
    elementary_divisors,
    hermite_normal_form,
    integer_kernel,
    lattice_quotient,
    orthogonal_lattice,
    project_lattice,
)
from ggsys.model import build_reduced_system, select_base, vector_set
from ggsys.resonance import analyze_vector, check_extra_relation, grassmannian_set
from ggsys.series import (
    SeriesSpec,
    TruncatedSeries,
    gauss_coefficients,
    gauss_series_eval,
    gg_series_eval,
    mixed_gamma_series_eval,
    monomial_solution_zero,
    reduced_series,
    reduced_series_eval,
)
from ggsys.verify import check_def2_system, solution_family_rank

A = vector_set([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2)])
R = build_reduced_system(select_base(A, (1, 2, 3)))
BETA = np.array([0.31, 0.47, 0.83])
TABLE = reduced_series(SeriesSpec(R, (0, 0, 0), 5), BETA)
LAT = orthogonal_lattice(A)
A1 = vector_set([(1,), (-1,)])
G = grassmannian_set(2, 4)
ONE = lambda s: np.ones(np.shape(s)[:1])

# each routed argument, named as its message names it; v is the value under test
ROUTED = {
    "select_base": (lambda v: select_base(A, (v, 2, 3)), "base label"),
    "hankel_integral": (lambda v: hankel_integral(A1, v, 0.3, [0.0], ContourSpec()), "base label"),
    "candidate_family": (lambda v: candidate_family(A, [(v, 2, 3)]), "base label"),
    "project_lattice": (lambda v: project_lattice(LAT, [v, 2]), "projection label"),
    "lattice_quotient": (lambda v: lattice_quotient(LAT, (v, 2, 3)), "projection label"),
    "derivative": (lambda v: TABLE.derivative([0.1], v), "j_label"),
    "label-i": (lambda v: G.label(v, 2), "i"),
    "label-j": (lambda v: G.label(1, v), "j"),
    "pair": (lambda v: G.pair(v), "label"),
    "hermite_normal_form": (lambda v: hermite_normal_form([[v, 2], [0, 3]]), "matrix entry"),
    "elementary_divisors": (lambda v: elementary_divisors([[v]]), "matrix entry"),
    "integer_kernel": (lambda v: integer_kernel([[v], [1]]), "matrix entry"),
    "contains": (lambda v: LAT.contains([v, 0, 0, 0]), "vector entry"),
    "gauss_coefficients": (lambda v: gauss_coefficients(0.5, 0.5, 1.5, v), "M"),
    "gauss_series_eval": (lambda v: gauss_series_eval(0.5, 0.5, 1.5, 0.3, M=v), "M"),
    "gamma_plus_pair": (lambda v: gamma_plus_pair(ONE, truncation=v), "truncation"),
    "gamma_minus_pair": (lambda v: gamma_minus_pair(ONE, truncation=v), "truncation"),
    "cm_pair-R": (lambda v: cm_pair([[1.0]], [0], ONE, R=v), "R"),
    "gg_distribution_pair-M": (lambda v: gg_distribution_pair([[1.0]], [0.3], ONE, M=v), "M"),
    "gg_distribution_pair-R": (lambda v: gg_distribution_pair([[1.0]], [0.3], ONE, R=v), "R"),
    "fourier_consistency_check": (lambda v: fourier_consistency_check(1.0, 0.2, smooth_bump(), nodes=v), "nodes"),
    "solution_family_rank": (lambda v: solution_family_rank(A, [((1, 2, 3), (0, 0, 0))], truncation=v), "truncation"),
    "grassmannian_set-p": (lambda v: grassmannian_set(v, 4), "p"),
    "grassmannian_set-n": (lambda v: grassmannian_set(1, v), "n"),
    "SeriesSpec-k": (lambda v: SeriesSpec(R, (v, 0, 0), 5), "k entry"),
    "SeriesSpec-partition": (lambda v: SeriesSpec(R, (0, 0, 0), 5, "mixed", ((v,), (2, 3))), "partition label"),
    "solution_family_rank-k": (lambda v: solution_family_rank(A, [((1, 2, 3), (v, 0, 0))]), "k entry"),
    "shifted_plane_integral": (lambda v: shifted_plane_integral(A1, (1,), (v,), [0.7], [0.3], ContourSpec()), "k entry"),
    "cm_pair-m": (lambda v: cm_pair([[1.0]], [v], ONE), "m entry"),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(2.0), np.bool_(True)], ids=repr)
@pytest.mark.parametrize("case", ROUTED)
def test_an_integer_argument_refuses_floats_and_bools(case, value):
    call, what = ROUTED[case]
    with pytest.raises(InvalidInputError, match=f"^{what} must be an integer$"):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: LAT.contains([0.5, 0, 0, 0]),  # was True
        lambda: integer_kernel([[0.5], [1]]),  # was [[1, 0]], not in the kernel
        lambda: hermite_normal_form([[1.5, 2], [0, 3]]),
        lambda: elementary_divisors([[2.9]]),  # was (2,)
        lambda: select_base(A, (1.5, 2, 3)),  # was base (1, 2, 3)
        lambda: project_lattice(LAT, [1.9, 2]),
        lambda: gauss_series_eval(0.5, 0.5, 1.5, 0.3, M=2.5),  # was summed to degree 3, terms_used 3.5
        lambda: G.label(1.5, 2),
        lambda: G.pair(2.5),
    ],
)
def test_inputs_that_were_truncated_are_refused(call):
    with pytest.raises(InvalidInputError, match="must be an integer$"):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: select_base(A, (0, 2, 3)), "base label must be >= 1, got 0"),
        (lambda: select_base(A, (1, 2, 5)), "base label must be <= 4, got 5"),
        (lambda: project_lattice(LAT, [1, 5]), "projection label must be <= 4, got 5"),
        (lambda: G.label(3, 1), "i must be <= 2, got 3"),
        (lambda: G.label(1, 0), "j must be >= 1, got 0"),
        (lambda: G.pair(9), "label must be <= 8, got 9"),
        (lambda: grassmannian_set(0, 3), "p must be >= 1, got 0"),
        (lambda: SeriesSpec(R, (0, 0, 0), -1), "truncation must be >= 0, got -1"),
        (lambda: gauss_coefficients(0.5, 0.5, 1.5, -1), "M must be >= 0, got -1"),
        (lambda: cm_pair([[1.0]], [-2], ONE), "m entry must be >= 0, got -2"),
        (lambda: ContourSpec(nodes=8), "nodes must be >= 16, got 8"),
        (lambda: fourier_consistency_check(1.0, 0.0, smooth_bump(), nodes=16), "nodes must be >= 64, got 16"),
    ],
)
def test_an_integer_argument_out_of_range_names_its_bound(call, error):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == error


def test_numpy_integers_give_what_python_ints_give():
    i64 = np.int64
    assert select_base(A, np.array([3, 1, 2])).I == (1, 2, 3)
    assert all(type(i) is int for i in select_base(A, np.array([3, 1, 2])).I)
    assert project_lattice(LAT, np.array([1, 2])) == project_lattice(LAT, [1, 2])
    matrix = [[4, 6, 2], [2, 8, 10]]
    for numpy_matrix in (np.array(matrix), np.array(matrix, dtype=np.int32), np.array(matrix, dtype=np.uint8)):
        assert hermite_normal_form(numpy_matrix) == hermite_normal_form(matrix)
        assert elementary_divisors(numpy_matrix) == elementary_divisors(matrix)
        assert integer_kernel(numpy_matrix.T) == integer_kernel(np.array(matrix).T.tolist())
        assert all(type(v) is int for row in hermite_normal_form(numpy_matrix) for v in row)
    assert LAT.contains(np.array([1, 1, 2, 0])) == LAT.contains([1, 1, 2, 0])
    spec = SeriesSpec(R, np.array([0, 1, 0]), i64(5))
    assert spec == SeriesSpec(R, (0, 1, 0), 5)
    assert type(spec.truncation) is int and all(type(v) is int for v in spec.k)
    assert reduced_series_eval(spec, BETA, [0.2]) == reduced_series_eval(SeriesSpec(R, (0, 1, 0), 5), BETA, [0.2])
    assert TABLE.derivative([0.1], i64(4)) == TABLE.derivative([0.1], 4)
    assert ContourSpec(nodes=i64(64), max_refinements=i64(12)) == ContourSpec()
    assert gauss_series_eval(0.5, 0.5, 1.5, 0.3, M=i64(10)) == gauss_series_eval(0.5, 0.5, 1.5, 0.3, M=10)
    assert type(gauss_series_eval(0.5, 0.5, 1.5, 0.3, M=i64(10)).terms_used) is int
    assert G.label(i64(2), i64(3)) == G.label(2, 3) == 7 and G.pair(i64(7)) == (2, 3)
    assert cm_pair([[1.0, 0.5], [0.3, 2.0]], np.array([2, 1]), ONE, R=i64(40)) == cm_pair(
        [[1.0, 0.5], [0.3, 2.0]], [2, 1], ONE, R=40
    )
    assert gamma_minus_pair(ONE, truncation=i64(30)) == gamma_minus_pair(ONE, truncation=30)


# a consistent nonzero direction of codimension 2: omega_2 + v lands on omega_1 within the
# match tolerance, and omega_1 + v on 0, so no label is left to span anything
_FLAT = vector_set([(-1, 0), (-2, 8e-10)])
_CODIM_TWO = analyze_vector(_FLAT, [1.0, 0.0])
_MIXED = SeriesSpec(R, (0, 0, 0), 5, "mixed", ((1,), (2, 3)))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: vector_set([]), "empty vector set"),
        (lambda: vector_set([(1, 0), (1,)]), "rows of unequal length"),
        (lambda: LAT.contains([1, 0, 0]), "vector length does not match lattice"),
        (lambda: cm_pair([], [], ONE), "need a nonempty matrix of shift vectors"),
        (lambda: gg_distribution_pair([[1.0]], [0.3, 0.1], ONE), "x must list one value per shift vector"),
        (lambda: TruncatedSeries(TABLE.spec, BETA, np.zeros(3)), "coefficient table has the wrong length"),
        (lambda: reduced_series_eval(_MIXED, BETA, [0.2]), "reduced_series_eval needs mode='reduced'"),
        (lambda: mixed_gamma_series_eval(TABLE.spec, BETA, [0.2]), "mixed_gamma_series_eval needs mode='mixed'"),
        (lambda: gg_series_eval(TABLE.spec, BETA, [1.0, 1.0, 1.0]), "argument vector has the wrong length"),
        (lambda: monomial_solution_zero([1.0, 2.0], [0.5]), "exponent and argument lengths differ"),
        (lambda: check_def2_system(lambda g, a: 1.0, 2, [[1, 2, 3]]), "relation rows have the wrong width"),
        (lambda: solution_family_rank(A, []), "empty candidate family"),
        (lambda: analyze_vector(A, [1.0, 0.0]), "direction has the wrong length"),
        (lambda: _CODIM_TWO.on_hyperplane([1.0, 0.0]), "hyperplane needs codimension one"),
        (lambda: check_extra_relation(lambda b, a: 1.0, _FLAT, _CODIM_TWO), "extra relation needs codimension one"),
        (lambda: hankel_integral(_FLAT, 1, 0.3, [0.0], ContourSpec()),
         "loop integral needs a one-dimensional configuration"),
    ],
)
def test_each_refusal_raises_its_own_message(call, error):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == error


def test_the_codimension_two_direction_is_consistent_and_nonzero():
    assert _CODIM_TWO.consistent and _CODIM_TWO.codim == 2 and _CODIM_TWO.normal is None
    assert _CODIM_TWO.a_indices == (1, 2) and np.linalg.norm(_CODIM_TWO.v) == 1.0
