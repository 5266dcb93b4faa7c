import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dataclasses
import itertools
from fractions import Fraction

from ggsys import model
from ggsys.errors import InvalidInputError
from ggsys.model import (
    BaseSelection,
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


def _svd_subsets_vs_rule(A, monkeypatch):
    """Check ``_full_rank`` and ``enumerate_bases`` against the SVD rule on
    every n-subset of A; return how many subsets the screen sent to the SVD."""
    subsets = list(itertools.combinations(range(1, A.N + 1), A.n))
    cols = np.swapaxes(A.omega[np.asarray(subsets) - 1], 1, 2)
    rule = model._rank_count(np.linalg.svd(cols, compute_uv=False)) == A.n
    svd, sent = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: sent.append(len(a)) or svd(a, **kw))
    assert np.array_equal(model._full_rank(cols), rule)
    monkeypatch.undo()
    assert [B.I for B in enumerate_bases(A)] == list(itertools.compress(subsets, rule))
    return sum(sent)


_DEPENDENT_ROWS = np.random.default_rng(5).normal(size=(5, 3))
_DEPENDENT_ROWS[4] = 0.3 * _DEPENDENT_ROWS[0] + 0.7 * _DEPENDENT_ROWS[1]


@pytest.mark.parametrize(
    "rows,bases,svd_subsets",
    [
        (grassmannian_set(2, 5).vectors.omega, 80, 0),
        (grassmannian_set(3, 5).vectors.omega, 2025, 0),
        (np.random.default_rng(4).normal(size=(10, 4, 2)) @ np.array([1, 1j]), 210, 0),
        # ||M||_F overflows, so no bound is finite and every subset takes the SVD
        (grassmannian_set(2, 4).vectors.omega.real * 1e160, 32, 56),
        # a zero vector gives a zero column of R; alone (n = 1) it gives R = 0
        # and 0/0 in the screen, with no warning
        ([(0, 0), (1, 0), (0, 1), (1, 1)], 3, 0),
        ([(0,), (1,)], 1, 0),
        # sigma_min = 1.2e-10 of (1, 2, 3) clears the floor 1e-10 * sigma_max,
        # though not 1e-10 * ||M||_F; the screen leaves it to the SVD
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1.2e-10), (0, 0, 1)], 2, 1),
        # the fifth vector is 0.3 a + 0.7 b in floating point: the LU of (a, b, e)
        # meets a tiny pivot, not an exact 0, so the SVD reads it as dependent
        (_DEPENDENT_ROWS, 9, 1),
        # complex integers pivot exactly, as real integers do
        (grassmannian_set(2, 5).vectors.omega * (1 + 1j), 80, 0),
        # n = 10, where the slack is 7.5e-11 ||M||_F: it keeps the 9 exact zero
        # pivots (||M||_F = 3) from reading as dependent, and the subset with
        # sigma_min = 8e-6 from passing on |det| / ||M||_F^9 = 4.1e-10 alone
        (np.vstack([np.eye(10), 8e-6 * np.eye(10)[9]]), 2, 10),
        # |det| of (1, 2, 3) is 1e439, past the double range: the screen reads the
        # ratio |det| / ||M||_F^2 = 5e138 in logs and leaves it to the SVD
        (np.array([(1, 0, 0), (0, 1, 0), (0, 0, 1e-11), (0, 0, 1)]) * 1e150, 1, 1),
        # n = 12: the growth bound passes the rule's tolerance, so the screen decides nothing
        (np.random.default_rng(12).normal(size=(13, 12)), 13, 13),
    ],
    ids=[
        "G(2,5)", "G(3,5)", "complex 4x10", "G(2,4)*1e160", "zero vector", "zero 1x1", "near the floor",
        "0.3a+0.7b", "G(2,5)*(1+i)", "n=10 slack", "det past the range", "random n=12",
    ],
)
def test_full_rank_screen_matches_the_svd_rule(rows, bases, svd_subsets, monkeypatch):
    A = vector_set(rows)
    assert _svd_subsets_vs_rule(A, monkeypatch) == svd_subsets
    assert len(enumerate_bases(A)) == bases


@pytest.mark.parametrize("scale", [1e-160, 1e-300])
def test_full_rank_screen_on_a_tiny_set(scale, monkeypatch):
    # every subset is dependent by the rule (sigma_max < 1e-10), which no
    # vector set admits; the exact zero pivots are read off the LU, and the 32
    # nonsingular subsets go to the SVD (at 1e-300 ||M||_F underflows to 0)
    A = grassmannian_set(2, 4).vectors
    cols = np.swapaxes(A.omega[list(itertools.combinations(range(A.N), A.n))], 1, 2) * scale
    svd, sent = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: sent.append(len(a)) or svd(a, **kw))
    assert not model._full_rank(cols).any()
    assert sent == [32]


_KINDS = ("real", "complex", "integer", "near-dependent")


@given(st.sampled_from(_KINDS), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-300, 1e-150, 1e-5, 1.0, 1e5, 1e150]), st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 1e-6]))
@settings(max_examples=200, deadline=None)
def test_full_rank_matches_the_svd_rule_on_random_stacks(kind, n, seed, scale, eps):
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(16, n, n)) + (1j * rng.normal(size=(16, n, n)) if kind == "complex" else 0)
    if kind == "integer":
        cols = rng.integers(-2, 3, size=(16, n, n)).astype(float)
    if kind == "near-dependent" and n > 1:
        # the last column is a combination of the others plus eps-sized noise
        cols[..., -1] = (cols[..., :-1] @ rng.normal(size=(16, n - 1, 1)))[..., 0] + eps * rng.normal(size=(16, n))
    cols = np.asarray(cols * scale, dtype=np.complex128)  # as _iter_bases passes them
    rule = model._rank_count(np.linalg.svd(cols, compute_uv=False)) == n
    assert np.array_equal(model._full_rank(cols), rule)


def test_first_base_factors_one_lu_per_doubled_block(monkeypatch):
    slogdet, blocks = np.linalg.slogdet, []
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: blocks.append(len(a)) or slogdet(a))
    A = grassmannian_set(3, 5).vectors
    # the first base of G(3,5) is its fifth 7-subset, in the third block
    assert first_base(A).I == (1, 2, 3, 4, 5, 6, 11)
    assert blocks == [1, 2, 4]
    # led by that base, the set costs one LU of one subset
    blocks.clear()
    led = vector_set(A.omega[[0, 1, 2, 3, 4, 5, 10, 6, 7, 8, 9, 11, 12, 13, 14]])
    assert first_base(led).I == tuple(range(1, 8))
    assert blocks == [1]


def test_enumerate_bases_refuses_a_set_past_the_subset_cap():
    # C(24, 12) = 2,704,156 subsets, refused before any is tested
    A = vector_set(np.vstack([np.eye(12), np.random.default_rng(0).integers(-3, 4, size=(12, 12))]))
    with pytest.raises(InvalidInputError, match=r"2704156 subsets of 12 vectors to test, above the 1048576 cap"):
        enumerate_bases(A)
    assert first_base(A).I == tuple(range(1, 13))  # lazy and uncapped


def test_full_rank_screen_sends_the_near_threshold_subsets_to_the_svd(monkeypatch):
    # one vector is u + v + eps * noise, so the subsets holding all three have
    # sigma_min near eps, around the rule's 1e-10 * max(1, sigma_max)
    sent = 0
    for eps, seed in itertools.product((1e-8, 1e-9, 3e-10, 1e-10, 1e-11), range(10)):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(7, 3))
        rows[6] = rows[0] + rows[1] + eps * rng.normal(size=3)
        sent += _svd_subsets_vs_rule(vector_set(rows), monkeypatch)
    assert sent > 0


def _batched_inverses(A):
    """Inverse of every base's column matrix as the enumeration once built
    them: one np.linalg.inv per block of independent subsets, the blocks
    doubling up to _BASE_BLOCK."""
    subsets = itertools.combinations(range(1, A.N + 1), A.n)
    size, out = 1, {}
    while block := list(itertools.islice(subsets, size)):
        cols = np.swapaxes(A.omega[np.asarray(block) - 1], 1, 2)
        independent = model._rank_count(np.linalg.svd(cols, compute_uv=False)) == A.n
        out.update(zip(itertools.compress(block, independent), np.linalg.inv(cols[independent])))
        size = min(2 * size, model._BASE_BLOCK)
    return out


_RNG_ROWS = np.random.default_rng(11).normal(size=(6, 3, 2)) @ np.array([1, 1j])


@pytest.mark.parametrize(
    "A",
    [grassmannian_set(2, 5).vectors, grassmannian_set(3, 5).vectors, vector_set(_RNG_ROWS)],
    ids=["G(2,5)", "G(3,5)", "complex"],
)
def test_gamma_matrix_is_derived_on_first_use(A):
    assert [f.name for f in dataclasses.fields(BaseSelection)] == ["parent", "I"]
    bases = enumerate_bases(A)
    assert not any({"J", "gamma_matrix"} & set(vars(b)) for b in bases)
    oracle = _batched_inverses(A)
    assert [b.I for b in bases] == list(oracle)
    for b in bases:
        assert np.array_equal(b.gamma_matrix, oracle[b.I])  # bit for bit
        assert b.J == tuple(j for j in range(1, A.N + 1) if j not in b.I)
    assert "gamma_matrix" in vars(bases[0])
    with pytest.raises(ValueError):
        bases[0].gamma_matrix[0, 0] = 1.0
    last = bases[-1].I
    assert np.array_equal(select_base(A, last).gamma_matrix, oracle[last])


@pytest.mark.parametrize(
    "entry, exact",
    [
        (3, 3),
        (Fraction(6, 2), 3),
        (-3.0, -3),
        (complex(3, 0), 3),
        (True, 1),
        (2**31 - 1, 2**31 - 1),
        (2**31, None),
        (-(2**31), None),
        (Fraction(1, 2), None),
        (0.5, None),
        (3 + 1j, None),
    ],
)
def test_integer_rows_follow_the_one_integer_rule(entry, exact):
    A = vector_set([(1, 0), (0, 1), (entry, 1)])
    assert [f.name for f in dataclasses.fields(model.VectorSet)] == ["omega"]
    assert A.integer_rows == (None if exact is None else ((1, 0), (0, 1), (exact, 1)))
    if exact is not None:
        assert all(type(v) is int for row in A.integer_rows for v in row)
    assert A.integer_rows is A.integer_rows


def _old_l_coeffs(B):
    """The shift vectors as ReducedSystem once stored them: one row per
    off-base label, built label by label."""
    A = B.parent
    L = np.zeros((A.N - A.n, A.N), dtype=np.complex128)
    ipos = np.asarray(B.I) - 1
    for row, j in enumerate(B.J):
        L[row, j - 1] = 1.0
        L[row, ipos] = -B.coords(A.row(j))
    return L


def _same_bits(a, b):
    return a.shape == b.shape and a.strides == b.strides and a.tobytes("A") == b.tobytes("A")


@pytest.mark.parametrize(
    "A", [grassmannian_set(2, 5).vectors, vector_set(_RNG_ROWS)], ids=["G(2,5)", "complex"]
)
def test_reduced_system_arrays_match_the_stored_shift_vectors(A):
    for B in enumerate_bases(A):
        R = model.ReducedSystem(B)
        L = _old_l_coeffs(B)
        ipos = np.asarray(B.I) - 1
        assert _same_bits(R.off_base_coords, -L[:, ipos])  # layout and bits
        assert _same_bits(-R.off_base_coords, L[:, ipos])
        assert np.array_equal(R.l_coeffs, L)
        a = np.linspace(0.5, 2.0, A.N) + 0.1j
        x = a[np.asarray(B.J) - 1] * np.exp(L[:, ipos] @ np.log(a[ipos]))
        assert R.x_from_a(a).tobytes() == x.tobytes()


def test_reduced_system_holds_its_base_and_derives_the_rest_once():
    assert [f.name for f in dataclasses.fields(model.ReducedSystem)] == ["base"]
    R = model.ReducedSystem(select_base(vector_set(A_G_ROWS), (1, 2, 3)))
    assert build_reduced_system(R.base).base is R.base
    for name in ("off_base_coords", "integer_off_base_coords"):
        array = getattr(R, name)
        assert getattr(R, name) is array
        with pytest.raises(ValueError):
            array[0, 0] = 5
    np.testing.assert_array_equal(R.integer_off_base_coords, [[1, 1, -1]])


def test_value_types_compare_and_hash_by_identity():
    # equal but distinct sets: comparing their omega arrays with == would have no truth value
    one, two = (model.ReducedSystem(select_base(vector_set(A_G_ROWS), (1, 2, 3))) for _ in range(2))
    for left, right in ((one, two), (one.base, two.base), (one.base.parent, two.base.parent)):
        assert left == left and left != right
        assert len({left, right}) == 2


def _old_reducibility(A):
    """reducibility_check as it tested span membership one vector at a time:
    e_i and e_i - e_j projected onto the relation space, and each vector
    projected onto the row span of the others."""
    tol = model._REDUCIBILITY_TOL

    def in_row_span(rows, w):
        if rows.shape[0] == 0:
            return bool(np.linalg.norm(w) <= tol)
        proj = rows.T @ (rows.conj() @ w)
        return bool(np.linalg.norm(w - proj) <= tol * max(1.0, float(np.linalg.norm(w))))

    Lrows = kernel_space(A)
    eye = np.eye(A.N, dtype=np.complex128)
    cond1 = any(in_row_span(Lrows, eye[i]) for i in range(A.N))
    cond2 = bool(Lrows.shape[0] > 0) and bool(np.any(np.max(np.abs(Lrows), axis=0) <= tol))
    cond3 = any(in_row_span(Lrows, eye[i] - eye[j]) for i, j in itertools.combinations(range(A.N), 2))
    scale = float(np.max(np.abs(A.omega))) or 1.0
    zero_vec = bool(np.any(np.linalg.norm(A.omega, axis=1) <= tol * scale))
    repeated = bool(np.any(np.triu(model._close(A.omega, A.omega, tol * scale), k=1)))
    outside = False
    for i in range(A.N):
        rank, Vh = model._svd_rank(np.delete(A.omega, i, axis=0))
        if not in_row_span(Vh[:rank], A.omega[i]):
            outside = True
            break
    return model.ReducibilityReport(
        cond1, cond2, cond3, not (cond1 or cond2 or cond3),
        model.SetSideDiagnostics(zero_vec, repeated, outside),
    )


@st.composite
def _reducibility_sets(draw):
    """Integer sets with repeated and zero vectors, or scaled Gaussian ones."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(n, n + 3))
    if draw(st.booleans()):
        pool = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=N))
        rows = [draw(st.sampled_from(pool + [[0] * n])) for _ in range(N)]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        rows = (scale * rng.normal(size=(N, n, 2)) @ np.array([1, 1j])).tolist()
    try:
        return vector_set(rows)
    except InvalidInputError:
        return vector_set(np.eye(n).tolist() + rows)


@given(_reducibility_sets())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_reducibility_by_one_projector_matches_the_span_tests(A):
    assert reducibility_check(A) == _old_reducibility(A)


@pytest.mark.parametrize(
    "rows",
    [A_G_ROWS, [(1, 0), (0, 1), (0, 0)], [(1, 0), (0, 1), (0, 1)], [(1, 0), (0, 1), (0, 2)], [(2,)], [(1,), (1,)]],
)
def test_reducibility_by_one_projector_on_the_named_sets(rows):
    A = vector_set(rows)
    assert reducibility_check(A) == _old_reducibility(A)
    assert not hasattr(model, "_in_row_span")
