import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import itertools

from ggsys.errors import InvalidInputError
from ggsys.model import (
    build_reduced_system,
    enumerate_bases,
    first_base,
    kernel_space,
    reducibility_check,
    select_base,
    vector_set,
)
from ggsys.resonance import grassmannian_set

# the running example: three unit vectors plus e1 + e2 - e3
A_G_ROWS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]


def test_vector_set_shape_and_exact_rows():
    A = vector_set(A_G_ROWS)
    assert (A.N, A.n) == (4, 3)
    assert A.integer_rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1))
    np.testing.assert_allclose(A.row(4), [1, 1, -1])


def test_vector_set_complex_input_drops_exact_rows():
    A = vector_set([(1, 0), (0, 1), (1.5 + 0.5j, 2)])
    assert A.integer_rows is None


def test_vector_set_rejects_non_spanning():
    with pytest.raises(InvalidInputError):
        vector_set([(1, 0), (2, 0)])


def test_vector_set_rejects_too_few_rows():
    with pytest.raises(InvalidInputError):
        vector_set([(1, 0, 0), (0, 1, 0)])


def test_kernel_of_running_example():
    A = vector_set(A_G_ROWS)
    K = kernel_space(A)
    assert K.shape == (1, 4)
    # one-dimensional, spanned by (1, 1, -1, -1)
    direction = np.array([1, 1, -1, -1]) / 2.0
    overlap = abs(np.vdot(direction, K[0]))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(A.omega.T @ K[0], 0, atol=1e-12)


def test_enumerate_bases_running_example():
    A = vector_set(A_G_ROWS)
    bases = [b.I for b in enumerate_bases(A)]
    assert bases == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


@given(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1)), min_size=3, max_size=7))
@settings(max_examples=60, deadline=None)
def test_first_base_is_the_first_enumerated(rows):
    try:
        A = vector_set(rows)
    except InvalidInputError:
        return
    bases = enumerate_bases(A)
    first = first_base(A)
    assert (first.I if first else None) == (bases[0].I if bases else None)


def test_first_base_skips_dependent_prefixes():
    A = vector_set([(1, 0), (2, 0), (3, 0), (0, 1)])
    assert first_base(A).I == (1, 4)


def test_base_coords_running_example():
    A = vector_set(A_G_ROWS)
    B = select_base(A, (1, 2, 3))
    np.testing.assert_allclose(B.coords(A.row(4)), [1, 1, -1], atol=1e-12)
    assert B.J == (4,)


@pytest.mark.parametrize(
    "p,n", [(p, n) for n in range(2, 19) for p in range(1, n) if p * n <= 18]
)
def test_grassmannian_base_count_is_spanning_tree_count(p, n):
    # bases of G(p, n) are the spanning trees of K_{p,n} (Scoins 1962)
    assert len(enumerate_bases(grassmannian_set(p, n).vectors)) == p ** (n - 1) * n ** (p - 1)


def test_tiny_scale_subset_is_not_a_base():
    # both singular values of rows 1 and 2 lie below the absolute floor
    # 1e-10 * max(1, largest) that every rank decision shares
    A = vector_set([(1e-11, 0), (0, 1e-11), (1, 0), (0, 1)])
    with pytest.raises(InvalidInputError, match="linearly dependent"):
        select_base(A, (1, 2))
    assert [B.I for B in enumerate_bases(A)] == [(3, 4)]


def test_select_base_rejects_dependent():
    A = vector_set([(1, 0), (0, 1), (2, 0)])
    with pytest.raises(InvalidInputError):
        select_base(A, (1, 3))


def test_select_base_rejects_bad_labels():
    A = vector_set(A_G_ROWS)
    with pytest.raises(InvalidInputError):
        select_base(A, (1, 2, 5))
    with pytest.raises(InvalidInputError):
        select_base(A, (1, 2))


def test_reduced_system_running_example():
    A = vector_set(A_G_ROWS)
    R = build_reduced_system(select_base(A, (1, 2, 3)))
    assert R.r == 1
    np.testing.assert_allclose(R.l_coeffs[0], [-1, -1, 1, 1], atol=1e-12)
    a = np.array([2.0, 3.0, 5.0, 7.0])
    x = R.x_from_a(a)
    assert x[0] == pytest.approx(7.0 * 5.0 / (2.0 * 3.0), rel=1e-12)


def test_reduced_system_square_case_has_no_x():
    A = vector_set([(1, 0), (0, 1)])
    R = build_reduced_system(select_base(A, (1, 2)))
    assert R.r == 0
    assert R.x_from_a([2.0, 3.0]).shape == (0,)


def test_one_dimensional_pair():
    A = vector_set([(1,), (2,)])
    K = kernel_space(A)
    direction = np.array([2, -1]) / np.sqrt(5)
    assert abs(np.vdot(direction, K[0])) == pytest.approx(1.0, abs=1e-12)
    assert [b.I for b in enumerate_bases(A)] == [(1,), (2,)]


def test_reducibility_running_example_is_reduced():
    rep = reducibility_check(vector_set(A_G_ROWS))
    assert rep.is_reduced
    assert not rep.contains_coordinate_subspace
    assert not rep.inside_proper_coordinate_subspace
    assert not rep.contains_difference_vector
    assert not rep.set_side.has_zero_vector
    assert not rep.set_side.has_repeated_vector


def test_reducibility_zero_vector():
    rep = reducibility_check(vector_set([(1, 0), (0, 1), (0, 0)]))
    assert rep.contains_coordinate_subspace
    assert rep.set_side.has_zero_vector
    assert not rep.is_reduced


def test_reducibility_repeated_vector():
    rep = reducibility_check(vector_set([(1, 0), (0, 1), (0, 1)]))
    assert rep.contains_difference_vector
    assert rep.set_side.has_repeated_vector
    assert not rep.is_reduced


def test_reducibility_vector_outside_span_of_others():
    rep = reducibility_check(vector_set([(1, 0), (0, 1), (0, 2)]))
    assert rep.inside_proper_coordinate_subspace
    assert rep.set_side.has_vector_outside_others_span
    assert not rep.contains_coordinate_subspace
    assert not rep.contains_difference_vector


small_int_matrices = arrays(
    np.int64,
    st.tuples(st.integers(3, 5), st.integers(2, 3)).filter(lambda s: s[0] > s[1]),
    elements=st.integers(-4, 4),
)


@given(small_int_matrices)
@settings(max_examples=150)
def test_kernel_rows_annihilate_columns(rows):
    try:
        A = vector_set(rows.tolist())
    except InvalidInputError:
        return
    K = kernel_space(A)
    assert K.shape == (A.N - A.n, A.N)
    if K.size:
        np.testing.assert_allclose(A.omega.T @ K.T, 0, atol=1e-10)


@given(small_int_matrices)
@settings(max_examples=150)
def test_base_coords_reproduce_vectors(rows):
    try:
        A = vector_set(rows.tolist())
    except InvalidInputError:
        return
    for B in enumerate_bases(A):
        cols = A.rows(B.I).T
        for j in range(1, A.N + 1):
            v = A.row(j)
            np.testing.assert_allclose(cols @ B.coords(v), v, atol=1e-8)


@given(small_int_matrices)
@settings(max_examples=150)
def test_select_base_accepts_exactly_the_enumerated_bases(rows):
    try:
        A = vector_set(rows.tolist())
    except InvalidInputError:
        return
    labels = {B.I for B in enumerate_bases(A)}
    for I in itertools.combinations(range(1, A.N + 1), A.n):
        try:
            select_base(A, I)
        except InvalidInputError:
            assert I not in labels
        else:
            assert I in labels
