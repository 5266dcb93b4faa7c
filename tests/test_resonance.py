import numpy as np
import pytest
import scipy.linalg

from ggsys.errors import DomainError, InvalidInputError
from ggsys.model import build_reduced_system, select_base, vector_set
from ggsys.resonance import (
    analyze_vector,
    candidate_consistent_vectors,
    check_extra_relation,
    decompose_structure,
    grassmannian_set,
)
from ggsys.series import SeriesSpec, gg_series_eval

W = np.array([1.0, 0.3])
V = np.array([0.4, 1.1])
CHAIN3 = vector_set([tuple(W), tuple(W - V), tuple(-V)])


def _span_projector(basis):
    # basis rows are orthonormal in the hermitian sense
    return basis.T @ basis.conj()


def test_hand_chain_analysis():
    an = analyze_vector(CHAIN3, V)
    assert an.consistent
    assert an.a_indices == (2, 3)
    assert an.b_indices == (1,)
    assert an.codim == 1
    dec = an.decomposition
    assert dec.chains == ((1, 2),)
    assert dec.zero_chain == (3,)
    assert dec.counts == (2, 2)
    assert sum(dec.counts) == CHAIN3.N + 1


def test_hand_chain_among_candidates():
    found = candidate_consistent_vectors(CHAIN3)
    assert any(np.linalg.norm(an.v - V) <= 1e-9 for an in found)


def test_decompose_rejects_inconsistent_direction():
    with pytest.raises(DomainError):
        decompose_structure(CHAIN3, np.array([0.123, -0.7]))
    with pytest.raises(DomainError):
        decompose_structure(CHAIN3, np.zeros(2))


COLLINEAR = vector_set([(1, 0), (0, 1), (0, 2)])


def test_collinear_family_candidates():
    found = candidate_consistent_vectors(COLLINEAR)
    got = {tuple(np.round(an.v.real, 9)) for an in found}
    assert got == {(-1.0, 2.0), (-1.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}


def test_collinear_zero_chain_decomposition():
    dec = decompose_structure(COLLINEAR, np.array([0.0, -1.0]))
    assert dec.chains == ((1,),)
    assert dec.zero_chain == (2, 3)
    assert dec.counts == (3, 1)
    assert sum(dec.counts) == COLLINEAR.N + 1


def test_negated_member_not_consistent_here():
    # the span of the complement is everything for these directions, so the
    # definition rules them out even though each is a difference/negation
    assert not analyze_vector(COLLINEAR, np.array([0.0, -2.0])).consistent
    assert not analyze_vector(COLLINEAR, np.array([0.0, 1.0])).consistent


def test_generic_simplex_has_no_consistent_direction():
    A = vector_set([(1, 0), (0, 1), (0.7, 0.31)])
    assert candidate_consistent_vectors(A) == ()


def test_random_generic_sets_empty():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        assert candidate_consistent_vectors(vector_set(rows)) == ()


def _assert_structure_invariants(A, analyses):
    for an in analyses:
        assert an.codim == 1
        assert an.normal is not None
        # v is not a member, not in the span, and the kept labels avoid it too
        assert min(np.linalg.norm(A.omega - an.v, axis=1)) > 1e-3
        P = _span_projector(an.span_basis)
        assert np.linalg.norm(an.v - P @ an.v) > 1e-3
        for label in an.a_indices:
            w = A.row(label)
            assert np.linalg.norm(w - P @ w) > 1e-3
        # the chains exhaust the labels exactly once
        labels = [l for chain in an.decomposition.chains for l in chain]
        labels += list(an.decomposition.zero_chain)
        assert sorted(labels) == list(range(1, A.N + 1))
        assert sum(an.decomposition.counts) == A.N + 1
        # annihilation: plain pairing of the normal with every spanning row
        for label in an.b_indices:
            assert abs(np.dot(an.normal, A.row(label))) <= 1e-9


def test_consistency_invariants():
    for A in (CHAIN3, COLLINEAR, grassmannian_set(2, 3).vectors):
        _assert_structure_invariants(A, candidate_consistent_vectors(A))


def test_grassmannian_shape_and_indexing():
    G = grassmannian_set(2, 3)
    assert G.vectors.N == 6
    assert G.vectors.n == 4
    for label in range(1, 7):
        assert G.label(*G.pair(label)) == label
    with pytest.raises(DomainError):
        grassmannian_set(3, 3)
    G1 = grassmannian_set(1, 4)
    assert G1.vectors.n == 4
    assert np.allclose(G1.vectors.omega, np.eye(4))


def test_grassmannian_ambient_roundtrip():
    G = grassmannian_set(2, 3)
    w = np.array([0.3, -1.2, 0.5, 2.0])
    u = G.to_ambient(w)
    assert abs(u[:3].sum() - u[3:].sum()) < 1e-14
    assert np.allclose(G.from_ambient(u), w)
    with pytest.raises(InvalidInputError):
        G.from_ambient(np.array([1.0, 0, 0, 0, 0]))


def test_grassmannian_row_shifts_consistent():
    G = grassmannian_set(2, 3)
    v12 = G.from_ambient(np.array([0, 0, 0, -1.0, 1.0]))
    an = analyze_vector(G.vectors, v12)
    assert an.consistent
    assert an.a_indices == (1, 2, 3)
    assert an.decomposition.chains == ((4, 1), (5, 2), (6, 3))
    assert an.decomposition.zero_chain == ()
    assert sum(an.decomposition.counts) == 7
    found = candidate_consistent_vectors(G.vectors)
    v21 = -v12
    assert any(np.linalg.norm(f.v - v12) <= 1e-9 for f in found)
    assert any(np.linalg.norm(f.v - v21) <= 1e-9 for f in found)


def test_grassmannian_hyperplane_is_row_parameter_minus_one():
    G = grassmannian_set(2, 3)
    v12 = G.from_ambient(np.array([0, 0, 0, -1.0, 1.0]))
    an = analyze_vector(G.vectors, v12)
    rng = np.random.default_rng(5)
    for _ in range(6):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        beta = an.v + c @ an.span_basis
        assert an.on_hyperplane(beta)
        ambient = G.to_ambient(beta)
        assert abs(ambient[3] - (-1.0)) <= 1e-9


def test_normal_agrees_with_independent_nullspace():
    G = grassmannian_set(2, 3)
    v12 = G.from_ambient(np.array([0, 0, 0, -1.0, 1.0]))
    an = analyze_vector(G.vectors, v12)
    rows = G.vectors.omega[[l - 1 for l in an.b_indices]]
    null = scipy.linalg.null_space(rows.astype(np.complex128))
    assert null.shape[1] == 1
    overlap = abs(np.vdot(null[:, 0], an.normal))
    assert abs(overlap - 1.0) <= 1e-10


def _grassmann_evaluator(G, truncation=30):
    system = build_reduced_system(select_base(G.vectors, (1, 2, 3, 4)))
    spec = SeriesSpec(system, (0, 0, 0, 0), truncation)

    def f(beta, a):
        return gg_series_eval(spec, beta, a).value

    return f


def _small_tail_sampler(rng):
    a = rng.uniform(0.8, 1.2, 6).astype(np.complex128)
    a[4:] *= 0.15
    return a


def test_grassmannian_extra_relation():
    G = grassmannian_set(2, 3)
    v12 = G.from_ambient(np.array([0, 0, 0, -1.0, 1.0]))
    an = analyze_vector(G.vectors, v12)
    f = _grassmann_evaluator(G)
    report = check_extra_relation(
        f, G.vectors, an, samples=4, seed=3, tolerance=1e-8,
        argument_sampler=_small_tail_sampler,
    )
    assert report.passed, report


def test_grassmannian_extra_relation_negative_control():
    G = grassmannian_set(2, 3)
    v12 = G.from_ambient(np.array([0, 0, 0, -1.0, 1.0]))
    an = analyze_vector(G.vectors, v12)
    f = _grassmann_evaluator(G)
    report = check_extra_relation(
        f, G.vectors, an, samples=4, seed=3, tolerance=1e-8,
        plane_offset=0.5, argument_sampler=_small_tail_sampler,
    )
    assert not report.passed
    assert report.max_rel_residual >= 1e-3


def test_extra_relation_rejects_degenerate_input():
    G = grassmannian_set(2, 3)
    zero = analyze_vector(G.vectors, np.zeros(4))
    f = _grassmann_evaluator(G, truncation=6)
    with pytest.raises(InvalidInputError):
        check_extra_relation(f, G.vectors, zero)


@pytest.mark.parametrize("first", [-1.0, -1.0 + 1e-12])
def test_extra_relation_takes_f_at_beta_for_the_label_v_sends_to_zero(first):
    # omega_1 + v is 0 (or within the match tolerance of it) and omega_2 + v = -1 is omega_1, so
    # both labels carry a term: label 1 reads f at beta itself, label 2 at beta - (-1)
    A = vector_set([(first,), (-2,)])
    an = analyze_vector(A, [1.0])
    assert an.consistent and an.a_indices == (1, 2) and an.codim == 1 and an.offset == 1
    calls = []

    def f(beta, a):
        calls.append(beta)
        return np.exp(0.3 * beta[0]) * (a[0] + 2 * a[1])

    beta, a = np.array([1.0 + 0j]), np.array([0.7, 1.3], dtype=np.complex128)
    report = check_extra_relation(f, A, an, points=[(beta, a)])
    assert [b.tolist() for b in calls] == [[1.0], [2.0]]
    lam = an.normal[0]
    want = abs(lam * first * a[0] * f(beta, a) + lam * -2 * a[1] * f(beta + 1, a))
    assert report.max_abs_residual == pytest.approx(want, rel=1e-15)
    assert report.sample_points == 1


def test_chain_walks_take_only_labels_the_split_put_in_a():
    # omega_1 - v - omega_2 rounds to 9.99999986e-10, inside the match tolerance 1e-9, and
    # (omega_2 + v) - omega_1 to 1.00000006e-9, outside it: label 2 is a chain top, and the
    # walk from omega_1 used to take it and raise "chain tops overlap"
    x, p, e = 0.3880120078601883, 7.723986185215859e-10, 6.351380346706305e-10
    v = np.array([1 - x + e, p])
    A = vector_set([(1.0, 0.0), (x, 0.0), tuple(-v)])
    an = analyze_vector(A, v)
    assert an.b_indices == (1, 2) and an.codim == 1
    assert an.decomposition.chains == ((1,), (2,)) and an.decomposition.zero_chain == (3,)


def test_extra_relation_names_a_failing_evaluator():
    G = grassmannian_set(2, 3)
    an = analyze_vector(G.vectors, G.from_ambient(np.array([0, 0, 0, -1.0, 1.0])))

    def f(beta, a):
        raise ValueError("no value here")

    with pytest.raises(RuntimeError, match="^evaluator failed at parameters") as err:
        check_extra_relation(f, G.vectors, an, samples=1)
    assert isinstance(err.value.__cause__, ValueError)


def test_analyze_vector_leaves_the_callers_array_writeable():
    v = V.astype(np.complex128)
    an = analyze_vector(CHAIN3, v)
    assert v.flags.writeable
    assert not an.v.flags.writeable
    v[0] = 0  # the analysis keeps its own copy
    assert an.v[0] == V[0]


def test_extra_relation_rejects_off_plane_point():
    G = grassmannian_set(2, 3)
    v12 = G.from_ambient(np.array([0, 0, 0, -1.0, 1.0]))
    an = analyze_vector(G.vectors, v12)
    f = _grassmann_evaluator(G, truncation=6)
    beta_off = an.v + 0.5 * np.conj(an.normal)
    with pytest.raises(InvalidInputError):
        check_extra_relation(
            f, G.vectors, an, points=[(beta_off, np.ones(6))]
        )


def test_fully_resonant_point_satisfies_both_relations_and_weights():
    # ambient parameter with both row coordinates equal to -1; the column
    # part is balanced so the vector lies in the intrinsic span
    G = grassmannian_set(2, 3)
    beta = G.from_ambient(np.array([-0.7, -0.6, -0.7, -1.0, -1.0]))
    f = _grassmann_evaluator(G, truncation=32)
    rng = np.random.default_rng(11)
    a = _small_tail_sampler(rng)

    for ambient_v in ([0, 0, 0, -1.0, 1.0], [0, 0, 0, 1.0, -1.0]):
        an = analyze_vector(G.vectors, G.from_ambient(np.array(ambient_v)))
        report = check_extra_relation(
            f, G.vectors, an, points=[(beta, a)], tolerance=1e-8
        )
        assert report.passed, report

    # weighted-shift equation at the same point: sum_w a_w f(beta - w) w
    # equals beta times f(beta)
    A = G.vectors
    f0 = f(beta, a)
    acc = np.zeros(4, dtype=np.complex128)
    for label in range(1, 7):
        acc += a[label - 1] * f(beta - A.row(label), a) * A.row(label)
    assert np.max(np.abs(acc - beta * f0)) <= 1e-8 * abs(f0)


def _summary(an):
    dec = an.decomposition
    return (an.consistent, an.a_indices, an.b_indices, an.codim,
            None if dec is None else (dec.chains, dec.zero_chain))


def test_single_vector_set():
    # N = 1: no member pairs, the only candidate is the negated member
    A = vector_set([(2,)])
    (an,) = candidate_consistent_vectors(A)
    np.testing.assert_array_equal(an.v, [-2])
    assert _summary(an) == (True, (1,), (), 1, ((), (1,)))
    assert _summary(analyze_vector(A, (2,))) == (False, (), (1,), 0, None)
    assert _summary(analyze_vector(A, (0,))) == (True, (1,), (), 1, None)


def test_repeated_vector_set():
    # omega_1 = omega_3: the lowest free label is taken first, and the
    # direction -e1 leaves one copy unmatched
    A = vector_set([(1, 0), (0, 1), (1, 0), (1, 1)])
    assert _summary(analyze_vector(A, (0, -1))) == (
        True, (2, 4), (1, 3), 1, (((1, 4), (3,)), (2,))
    )
    assert _summary(analyze_vector(A, (0, 1))) == (False, (1, 3), (2, 4), 0, None)
    assert _summary(analyze_vector(A, (0, 0))) == (True, (1, 2, 3, 4), (), 2, None)
    # -e1 is consistent, but its chains (2, 4) and the zero chain (1,)
    # leave the copy omega_3 over: reported without a decomposition
    uncovered = (True, (1, 3, 4), (2,), 1, None)
    assert _summary(analyze_vector(A, (-1, 0))) == uncovered
    with pytest.raises(DomainError, match="does not cover the configuration"):
        decompose_structure(A, (-1, 0))
    # the sweep goes on past it
    sweep = candidate_consistent_vectors(A)
    assert [tuple(an.v.real) for an in sweep] == [(0, -1), (-1, 0)]
    assert [_summary(an) for an in sweep] == [_summary(analyze_vector(A, (0, -1))), uncovered]
