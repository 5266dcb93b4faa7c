"""Integer lattices attached to a vector configuration.

Everything here runs on exact Python integers (arbitrary precision); no
floating point enters the arithmetic.  The central objects are the lattice
of integer vectors orthogonal to the relation space of the configuration,
its coordinate projections onto a base, and the finite quotient groups that
index the distinct series twists.

One Euclid step, ``_eliminate``, does all the elimination.  Hermite form is
that step plus reduction above the pivots; an integer kernel eliminates
only the row part of ``[rows | I]``; elementary divisors alternate Hermite
form on a matrix and its transpose; the orthogonal lattice is the kernel of
the kernel.  No unimodular transform is ever accumulated.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import DomainError, InvalidInputError
from .model import VectorSet, _int_arg, select_base

# the largest quotient order lattice_quotient lists; larger ones are refused
_MAX_REPRESENTATIVES = 2**18


def _as_int_rows(rows) -> list[list[int]]:
    return [[_int_arg(v, "matrix entry") for v in row] for row in rows]


def _transpose(rows, width: int) -> list[list[int]]:
    return [[row[j] for row in rows] for j in range(width)]


def _eliminate(A: list[list[int]], r: int, c: int) -> bool:
    """Euclid step down column c of A, in place, on rows r onward.

    Moves the row with the smallest nonzero |entry| in column c to row r and
    floor-reduces the rows below by it, until row r holds the only nonzero
    entry of column c from row r on.  Returns False when there is none.
    """
    while True:
        live = [i for i in range(r, len(A)) if A[i][c]]
        if not live:
            return False
        piv = min(live, key=lambda i: abs(A[i][c]))
        A[r], A[piv] = A[piv], A[r]
        if len(live) == 1:
            return True
        for i in range(r + 1, len(A)):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]


def hermite_normal_form(rows) -> list[list[int]]:
    """Row-style Hermite normal form; returns the nonzero rows.

    Positive pivots, entries above each pivot reduced into [0, pivot).
    Unimodular row operations only, so the row lattice is unchanged.
    """
    A = _as_int_rows(rows)
    r = 0
    for c in range(len(A[0]) if A else 0):
        if r == len(A):
            break
        if not _eliminate(A, r, c):
            continue
        if A[r][c] < 0:
            A[r] = [-v for v in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
        r += 1
    return A[:r]


def elementary_divisors(rows) -> tuple[int, ...]:
    """Nonzero Smith invariants d_1 | d_2 | ... of an integer matrix.

    Hermite form on the rows and then on the columns, alternately, until the
    matrix is diagonal (Kannan-Bachem); gcd/lcm exchanges then order the
    diagonal into a divisor chain.  One divisor per unit of rank.
    """
    A = hermite_normal_form(rows)
    while any(v for i, row in enumerate(A) for j, v in enumerate(row) if i != j):
        A = hermite_normal_form(_transpose(A, len(A[0])))
    d = [A[i][i] for i in range(len(A))]
    for i, j in itertools.combinations(range(len(d)), 2):
        g = math.gcd(d[i], d[j])
        d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


def integer_kernel(rows) -> list[list[int]]:
    """Saturated basis of {u in Z^m : sum_i u_i row_i = 0}, in Hermite form.

    Eliminates the row-part columns of the rows augmented with an identity
    block; the identity parts of the rows whose row part vanished span the
    kernel, and their Hermite form is the basis returned.
    """
    A = _as_int_rows(rows)
    m = len(A)
    width = len(A[0]) if m else 0
    A = [row + [int(k == i) for k in range(m)] for i, row in enumerate(A)]
    r = 0
    for c in range(width):
        if r < m and _eliminate(A, r, c):
            r += 1
    return hermite_normal_form([row[width:] for row in A[r:]])


@dataclass(frozen=True)
class IntegerLattice:
    """A full set of independent integer basis rows, kept in Hermite form."""

    rank: int
    basis_rows: tuple[tuple[int, ...], ...]

    @property
    def ambient_dim(self) -> int:
        return len(self.basis_rows[0]) if self.basis_rows else 0

    def contains(self, vector) -> bool:
        """Exact membership test by echelon reduction."""
        v = [_int_arg(c, "vector entry") for c in vector]
        if len(v) != self.ambient_dim:
            raise InvalidInputError("vector length does not match lattice")
        for row in self.basis_rows:
            c = next(i for i, entry in enumerate(row) if entry)
            q, rem = divmod(v[c], row[c])
            if rem:
                return False
            v = [a - q * b for a, b in zip(v, row)]
        return all(entry == 0 for entry in v)


@dataclass(frozen=True)
class QuotientStructure:
    """The finite group Z^n modulo a full-rank sublattice."""

    elementary_divisors: tuple[int, ...]
    order: int
    representatives: tuple[tuple[int, ...], ...]


def _lattice(hnf_rows) -> IntegerLattice:
    return IntegerLattice(len(hnf_rows), tuple(tuple(r) for r in hnf_rows))


def _integer_rows(A: VectorSet) -> tuple:
    if A.integer_rows is None:
        raise DomainError("lattice operations need integer vector coordinates")
    return A.integer_rows


def orthogonal_lattice(A: VectorSet) -> IntegerLattice:
    """Integer vectors orthogonal to every relation among the vectors.

    Equals the saturation of the row lattice of the coordinate matrix,
    computed as the integer kernel of the transpose of the relation lattice
    (itself the integer kernel of the vectors); both kernels come out in
    Hermite form.
    """
    relations = integer_kernel(_integer_rows(A))
    rows = integer_kernel(_transpose(relations, A.N))
    if len(rows) != A.n:
        raise InvalidInputError("vectors do not span over the rationals")
    return _lattice(rows)


def saturation_index(A: VectorSet) -> int:
    """Index of the coordinate row lattice inside its saturation."""
    return math.prod(elementary_divisors(_integer_rows(A)))


def project_lattice(lat: IntegerLattice, labels) -> IntegerLattice:
    """Forget all coordinates outside the 1-based positions ``labels``."""
    cols = [_int_arg(i, "projection label", 1, lat.ambient_dim) - 1 for i in labels]
    rows = [[row[c] for c in cols] for row in lat.basis_rows]
    return _lattice(hermite_normal_form(rows))


def lattice_quotient(lat: IntegerLattice, I) -> QuotientStructure:
    """Quotient of the integer coordinate space of a base by the projection
    of ``lat`` onto the base positions.

    The projection is kept in Hermite form, upper triangular with positive
    diagonal h, so the box prod [0, h_i) holds exactly one point of every
    coset: fixing coordinates left to right with rows i = 1, 2, ... leaves
    the already-fixed ones untouched.  The order is prod h_i; the group's
    invariant factors are the elementary divisors of the projection.
    """
    I = tuple(I)  # read twice: an iterator would leave n = 0 and a quotient of order 1
    proj, n = project_lattice(lat, I), len(I)
    if proj.rank < n:
        raise InvalidInputError(
            "projection onto the chosen positions is not full-rank"
        )
    h_diag = [proj.basis_rows[i][i] for i in range(n)]
    order = math.prod(h_diag)
    if order > _MAX_REPRESENTATIVES:
        raise InvalidInputError(f"quotient order {order} is above the {_MAX_REPRESENTATIVES} cap")
    reps = tuple(itertools.product(*(range(h) for h in h_diag)))
    return QuotientStructure(elementary_divisors(proj.basis_rows), order, reps)


def candidate_family(A: VectorSet, bases) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All (base, twist) pairs spanning the candidate solution family.

    For every base in ``bases`` (validated against A) the twist vectors run
    through one representative per coset of the finite quotient attached to
    that base.
    """
    base_list = [select_base(A, labels).I for labels in bases]
    if not base_list:
        return ()
    lat = orthogonal_lattice(A)
    return tuple((I, rep) for I in base_list for rep in lattice_quotient(lat, I).representatives)
