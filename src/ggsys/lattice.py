"""Integer lattices attached to a vector configuration.

Everything here runs on exact Python integers (arbitrary precision); no
floating point enters the arithmetic.  The central objects are the lattice
of integer vectors orthogonal to the relation space of the configuration,
its coordinate projections onto a base, and the finite quotient groups that
index the distinct series twists.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import DomainError, InvalidInputError
from .model import VectorSet, select_base


def _as_int_rows(rows) -> list[list[int]]:
    return [[int(v) for v in row] for row in rows]


def hermite_normal_form(rows) -> list[list[int]]:
    """Row-style Hermite normal form; returns the nonzero rows.

    Positive pivots, entries above each pivot reduced into [0, pivot).
    Unimodular row operations only, so the row lattice is unchanged.
    """
    A = _as_int_rows(rows)
    m = len(A)
    if m == 0:
        return []
    width = len(A[0])
    r = 0
    for c in range(width):
        piv = None
        for i in range(r, m):
            if A[i][c] != 0 and (piv is None or abs(A[i][c]) < abs(A[piv][c])):
                piv = i
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        while True:
            done = True
            for i in range(r + 1, m):
                if A[i][c]:
                    q = A[i][c] // A[r][c]
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    if A[i][c]:
                        A[r], A[i] = A[i], A[r]
                        done = False
            if done:
                break
        if A[r][c] < 0:
            A[r] = [-v for v in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
        r += 1
        if r == m:
            break
    return A[:r]


def smith_normal_form(rows) -> tuple[list[int], list[list[int]]]:
    """Elementary divisors of an integer matrix plus column tracking.

    Returns (divisors, W) where W is the inverse of the accumulated column
    transform: with U m V = diag(divisors) padded to shape, W = V^(-1).
    Row i of diag(d) @ W is d_i times row i of W, so the first rank rows
    of W span the saturation of the input's row lattice.
    """
    A = _as_int_rows(rows)
    m = len(A)
    width = len(A[0]) if m else 0
    W = [[int(i == j) for j in range(width)] for i in range(width)]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        W[i], W[j] = W[j], W[i]

    def add_col(src, dst, q):
        # column dst += q * column src, mirrored on W = V^(-1)
        for row in A:
            row[dst] += q * row[src]
        W[src] = [a - q * b for a, b in zip(W[src], W[dst])]

    t = 0
    while t < min(m, width):
        piv = None
        for i in range(t, m):
            for j in range(t, width):
                if A[i][j] != 0 and (
                    piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])
                ):
                    piv = (i, j)
        if piv is None:
            break
        A[t], A[piv[0]] = A[piv[0]], A[t]
        if piv[1] != t:
            swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        dirty = True
            for j in range(t + 1, width):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # divisibility fixup: the pivot must divide the remaining block
        offender = None
        for i in range(t + 1, m):
            if any(v % A[t][t] for v in A[i][t + 1 :]):
                offender = i
                break
        if offender is not None:
            A[t] = [a + b for a, b in zip(A[t], A[offender])]
            continue
        if A[t][t] < 0:
            A[t] = [-v for v in A[t]]
        t += 1

    divisors = [A[i][i] for i in range(min(m, width)) if A[i][i] != 0]
    return divisors, W


def integer_kernel(rows) -> list[list[int]]:
    """Saturated basis of {u in Z^m : sum_i u_i row_i = 0}.

    Works by Hermite-reducing the rows augmented with an identity block;
    combination vectors whose row part cancels form the kernel basis.
    """
    A = _as_int_rows(rows)
    m = len(A)
    if m == 0:
        return []
    width = len(A[0])
    augmented = [A[i] + [int(k == i) for k in range(m)] for i in range(m)]
    reduced = hermite_normal_form(augmented)
    return [row[width:] for row in reduced if all(v == 0 for v in row[:width])]


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
        v = [int(c) for c in vector]
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


def _lattice_from_rows(rows) -> IntegerLattice:
    hnf = hermite_normal_form(rows)
    return IntegerLattice(len(hnf), tuple(tuple(r) for r in hnf))


def _coordinate_matrix(A: VectorSet) -> list[list[int]]:
    if A.integer_rows is None:
        raise DomainError("lattice operations need integer vector coordinates")
    # row k lists the k-th coordinate of every vector
    return [[A.integer_rows[j][k] for j in range(A.N)] for k in range(A.n)]


def orthogonal_lattice(A: VectorSet) -> IntegerLattice:
    """Integer vectors orthogonal to every relation among the vectors.

    Equals the saturation of the row lattice of the coordinate matrix:
    Smith reduction exposes the elementary divisors, and dividing them out
    leaves the first rank rows of the tracked column-inverse transform.
    """
    M = _coordinate_matrix(A)
    divisors, W = smith_normal_form(M)
    if len(divisors) != A.n:
        raise InvalidInputError("vectors do not span over the rationals")
    return _lattice_from_rows(W[: A.n])


def saturation_index(A: VectorSet) -> int:
    """Index of the coordinate row lattice inside its saturation."""
    divisors, _ = smith_normal_form(_coordinate_matrix(A))
    out = 1
    for d in divisors:
        out *= d
    return out


def project_lattice(lat: IntegerLattice, labels) -> IntegerLattice:
    """Forget all coordinates outside the 1-based positions ``labels``."""
    cols = [int(i) - 1 for i in labels]
    if any(c < 0 or c >= lat.ambient_dim for c in cols):
        raise InvalidInputError("projection labels out of range")
    rows = [[row[c] for c in cols] for row in lat.basis_rows]
    return _lattice_from_rows(rows)


def lattice_quotient(lat: IntegerLattice, I) -> QuotientStructure:
    """Quotient of the integer coordinate space of a base by the projection
    of ``lat`` onto the base positions.

    The projection is kept in Hermite form, upper triangular with positive
    diagonal h, so the box prod [0, h_i) holds exactly one point of every
    coset: fixing coordinates left to right with rows i = 1, 2, ... leaves
    the already-fixed ones untouched.  The order is prod h_i; Smith
    reduction supplies the elementary divisors.
    """
    proj = project_lattice(lat, I)
    n = len(tuple(I))
    if proj.rank < n:
        raise InvalidInputError(
            "projection onto the chosen positions is not full-rank"
        )
    divisors, _ = smith_normal_form([list(r) for r in proj.basis_rows])
    h_diag = [proj.basis_rows[i][i] for i in range(n)]
    reps = tuple(itertools.product(*(range(h) for h in h_diag)))
    return QuotientStructure(tuple(divisors), math.prod(h_diag), reps)


def candidate_family(A: VectorSet, bases) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All (base, twist) pairs spanning the candidate solution family.

    For every base in ``bases`` (validated against A) the twist vectors run
    through one representative per coset of the finite quotient attached to
    that base.
    """
    base_list = [tuple(sorted(int(i) for i in labels)) for labels in bases]
    if not base_list:
        return ()
    lat = orthogonal_lattice(A)
    out = []
    for I in base_list:
        select_base(A, I)  # raises if not a base
        quotient = lattice_quotient(lat, I)
        for rep in quotient.representatives:
            out.append((I, rep))
    return tuple(out)
