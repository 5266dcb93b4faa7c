import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ggsys.errors import DomainError, InvalidInputError
from ggsys.lattice import (
    candidate_family,
    hermite_normal_form,
    integer_kernel,
    lattice_quotient,
    orthogonal_lattice,
    project_lattice,
    saturation_index,
    smith_normal_form,
)
from ggsys.model import enumerate_bases, vector_set

A_G = vector_set([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
A_12 = vector_set([(1,), (2,)])


def _det_int(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # parity by counting inversions
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def _coeffs_in_basis(lat, v):
    v = list(v)
    out = []
    for row in lat.basis_rows:
        c = next(i for i, entry in enumerate(row) if entry)
        q, rem = divmod(v[c], row[c])
        assert rem == 0
        out.append(q)
        v = [a - q * b for a, b in zip(v, row)]
    assert all(entry == 0 for entry in v)
    return out


def test_hnf_of_running_example_rows():
    rows = [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1)]
    assert hermite_normal_form(rows) == [list(r) for r in rows]


def test_hnf_drops_dependent_rows():
    assert hermite_normal_form([(2, 4), (1, 2), (3, 6)]) == [[1, 2]]


def test_snf_divisors_match_minor_gcds():
    import math

    M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    divisors, _ = smith_normal_form(M)
    # independent oracle: d1 = gcd of entries, d1*d2 = gcd of 2x2 minors,
    # d1*d2*d3 = |det|
    g1 = math.gcd(*[v for row in M for v in row])
    minors = [
        M[r1][c1] * M[r2][c2] - M[r1][c2] * M[r2][c1]
        for r1, r2 in itertools.combinations(range(3), 2)
        for c1, c2 in itertools.combinations(range(3), 2)
    ]
    g2 = math.gcd(*minors)
    assert divisors[0] == g1
    assert divisors[0] * divisors[1] == g2
    assert divisors[0] * divisors[1] * divisors[2] == abs(_det_int(M))
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0


def test_integer_kernel_running_example():
    assert integer_kernel(A_G.integer_rows) == [[1, 1, -1, -1]]


def test_orthogonal_lattice_running_example():
    lat = orthogonal_lattice(A_G)
    assert lat.rank == 3
    assert lat.basis_rows == ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1))
    # brute force: every small integer vector orthogonal to the relation
    # space lies in the lattice, and nothing else does
    for nu in itertools.product(range(-3, 4), repeat=4):
        expected = nu[0] + nu[1] - nu[2] - nu[3] == 0
        assert lat.contains(nu) == expected


def test_orthogonal_lattice_identity_is_full():
    lat = orthogonal_lattice(vector_set([(1, 0), (0, 1)]))
    assert lat.basis_rows == ((1, 0), (0, 1))


def test_orthogonal_lattice_one_dimensional():
    lat = orthogonal_lattice(A_12)
    assert lat.basis_rows == ((1, 2),)


def test_orthogonal_lattice_needs_integer_coordinates():
    A = vector_set([(1.5, 0), (0, 1), (1, 1)])
    with pytest.raises(DomainError):
        orthogonal_lattice(A)


def test_saturation_contains_coordinate_rows():
    lat = orthogonal_lattice(A_G)
    for k in range(A_G.n):
        row = [A_G.integer_rows[j][k] for j in range(A_G.N)]
        assert lat.contains(row)


def test_saturation_index_against_exact_determinant():
    for A in (A_G, A_12, vector_set([(2,)]), vector_set([(1, 1), (1, -1)])):
        lat = orthogonal_lattice(A)
        coeff_rows = []
        for k in range(A.n):
            row = [A.integer_rows[j][k] for j in range(A.N)]
            coeff_rows.append(_coeffs_in_basis(lat, row))
        assert abs(_det_int(coeff_rows)) == saturation_index(A)


def test_duality_against_integer_kernel():
    for A in (A_G, A_12):
        lat = orthogonal_lattice(A)
        for ker_row in integer_kernel(A.integer_rows):
            for basis_row in lat.basis_rows:
                assert sum(a * b for a, b in zip(basis_row, ker_row)) == 0


def test_quotient_running_example_base_123():
    q = lattice_quotient(orthogonal_lattice(A_G), (1, 2, 3))
    assert q.elementary_divisors == (1, 1, 1)
    assert q.order == 1
    assert q.representatives == ((0, 0, 0),)


def test_quotient_one_dimensional_bases():
    lat = orthogonal_lattice(A_12)
    q2 = lattice_quotient(lat, (2,))
    assert q2.elementary_divisors == (2,)
    assert q2.order == 2
    assert sorted(q2.representatives) == [(0,), (1,)]
    q1 = lattice_quotient(lat, (1,))
    assert q1.order == 1


def test_quotient_representatives_lie_in_the_hermite_box():
    lat = orthogonal_lattice(vector_set([(-3, -3), (-3, -1), (1, 0), (0, 1)]))
    q = lattice_quotient(lat, (1, 2))
    proj = project_lattice(lat, (1, 2))
    h_diag = [proj.basis_rows[i][i] for i in range(2)]
    assert h_diag == [3, 2]
    assert q.order == 6 and len(q.representatives) == 6
    for rep in q.representatives:
        assert all(0 <= c < h for c, h in zip(rep, h_diag))


def test_quotient_rejects_rank_deficient_projection():
    # the zero vector contributes a zero column, so projecting onto its
    # position collapses the lattice
    lat = orthogonal_lattice(vector_set([(1, 0), (0, 1), (0, 0)]))
    with pytest.raises(InvalidInputError):
        lattice_quotient(lat, (3,))


def _brute_force_cosets(lat, labels):
    proj = project_lattice(lat, labels)
    n = len(tuple(labels))
    H = [list(r) for r in proj.basis_rows]
    assert len(H) == n

    def reduce_point(x):
        # H is upper triangular, so fixing coordinates left to right leaves
        # the already-reduced ones untouched
        x = list(x)
        for i in range(n):
            q = x[i] // H[i][i]
            x = [a - q * b for a, b in zip(x, H[i])]
        return tuple(x)

    side = 2 * max(max(r) for r in H) + 1
    return {reduce_point(p) for p in itertools.product(range(side), repeat=n)}


def test_quotient_order_matches_brute_force():
    lat = orthogonal_lattice(A_12)
    assert len(_brute_force_cosets(lat, (2,))) == 2
    latg = orthogonal_lattice(A_G)
    assert len(_brute_force_cosets(latg, (1, 2, 3))) == 1
    assert len(_brute_force_cosets(latg, (1, 2, 4))) == 1


def test_candidate_family_examples():
    assert candidate_family(A_G, [(1, 2, 3)]) == (((1, 2, 3), (0, 0, 0)),)
    fam = candidate_family(A_12, [(2,)])
    assert sorted(fam) == [((2,), (0,)), ((2,), (1,))]
    assert candidate_family(A_G, []) == ()


small_configs = arrays(
    np.int64,
    st.tuples(st.integers(2, 5), st.integers(1, 3)).filter(lambda s: s[0] > s[1]),
    elements=st.integers(-3, 3),
)


@given(small_configs)
@settings(max_examples=120, deadline=None)
def test_lattice_annihilates_kernel_exactly(rows):
    try:
        A = vector_set(rows.tolist())
    except InvalidInputError:
        return
    lat = orthogonal_lattice(A)
    assert lat.rank == A.n
    for ker_row in integer_kernel(A.integer_rows):
        for basis_row in lat.basis_rows:
            assert sum(a * b for a, b in zip(basis_row, ker_row)) == 0


@given(small_configs)
@settings(max_examples=60, deadline=None)
def test_quotient_representatives_cover_all_cosets(rows):
    try:
        A = vector_set(rows.tolist())
    except InvalidInputError:
        return
    lat = orthogonal_lattice(A)
    for base in enumerate_bases(A):
        try:
            q = lattice_quotient(lat, base.I)
        except InvalidInputError:
            continue
        if q.order > 64:
            continue
        assert len(q.representatives) == q.order
        assert len(_brute_force_cosets(lat, base.I)) == q.order
        # pairwise non-congruent modulo the projection
        proj = project_lattice(lat, base.I)
        for r1, r2 in itertools.combinations(q.representatives, 2):
            assert not proj.contains([a - b for a, b in zip(r1, r2)])
