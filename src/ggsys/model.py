"""Vector sets, bases, coordinate maps, reduced systems, reducibility.

Index conventions used across the package: the N generating vectors carry
1-based labels (matching the usual set-theoretic notation [1, N]); base
subsets, twist vectors, and lattice projections all speak that labelling.
numpy arrays are addressed 0-based internally, converted at the boundary.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError

# the package's one rank rule: singular values <= _RANK_TOL * max(1, largest)
# do not count toward the rank, so an n-subset is a base iff all n count
_RANK_TOL = 1e-10
# membership and equal-vector tolerance of reducibility_check
_REDUCIBILITY_TOL = 1e-9
# most n-subsets _iter_bases tests with one batched LU
_BASE_BLOCK = 2048
# most n-subsets enumerate_bases will test
_MAX_SUBSETS = 2**20


def _rank_count(s: np.ndarray) -> np.ndarray:
    """Ranks from singular values sorted descending along the last axis."""
    return np.sum(s > _RANK_TOL * np.maximum(1.0, s[..., :1]), axis=-1)


def _svd_rank(matrix) -> tuple[int, np.ndarray]:
    """Numerical rank of ``matrix`` and its full right singular vectors.

    Vh[:rank] spans the row space and the conjugates of Vh[rank:] span the
    null space.
    """
    _, s, Vh = np.linalg.svd(matrix, full_matrices=True)
    return int(_rank_count(s)), Vh


def _close(P: np.ndarray, Q: np.ndarray, tol: float) -> np.ndarray:
    """(len(P), len(Q)) table of ``||P_i - Q_j|| <= tol`` over rows."""
    return np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=-1) <= tol


def _positions(labels) -> np.ndarray:
    return np.asarray([int(i) - 1 for i in labels], dtype=np.intp)


def _int_arg(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """An integer a caller passes in, as a Python int: an int or a numpy
    integer in [low, high]; a bool, a float (2.0 too) or anything else raises
    InvalidInputError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{what} must be an integer")
    if low is not None and value < low:
        raise InvalidInputError(f"{what} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise InvalidInputError(f"{what} must be <= {high}, got {value}")
    return int(value)


def _integers(values: np.ndarray) -> np.ndarray | None:
    """``values`` as a read-only int64 array when every entry is exactly an
    integer (real part equal to its rounding, imaginary part 0) below 2**31
    in magnitude, else None."""
    real = values.real
    if np.any(values.imag != 0) or np.any(real != np.round(real)) or np.any(np.abs(real) >= 2**31):
        return None
    out = real.astype(np.int64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class VectorSet:
    """A finite spanning family of complex n-vectors.

    ``omega`` is an (N, n) complex array whose rows are the vectors.
    """

    omega: np.ndarray

    @cached_property
    def integer_rows(self) -> tuple | None:
        """The rows as tuples of Python ints when ``_integers`` reads every
        coordinate as an integer, else None; the lattice machinery works on
        these without floating error."""
        ints = _integers(self.omega)
        return None if ints is None else tuple(map(tuple, ints.tolist()))

    @property
    def n(self) -> int:
        return self.omega.shape[1]

    @property
    def N(self) -> int:
        return self.omega.shape[0]

    def row(self, label: int) -> np.ndarray:
        """Vector with 1-based label, not checked with ``_int_arg``: the
        residual checks call this on every sample, with labels of a base."""
        return self.omega[label - 1]

    def rows(self, labels) -> np.ndarray:
        """Vectors with 1-based labels, unchecked as in ``row``."""
        return self.omega[_positions(labels)]


def vector_set(rows) -> VectorSet:
    """Validate and wrap a sequence of N vectors of length n.

    Raises InvalidInputError when the vectors fail to span their ambient
    space at the package rank tolerance.
    """
    raw = [list(row) for row in rows]
    if not raw:
        raise InvalidInputError("empty vector set")
    if len({len(row) for row in raw}) != 1:
        raise InvalidInputError("rows of unequal length")
    omega = np.asarray([[complex(e) for e in row] for row in raw], dtype=np.complex128)
    N, n = omega.shape
    if n < 1 or N < n:
        raise InvalidInputError(f"need N >= n >= 1, got N={N}, n={n}")
    if _svd_rank(omega)[0] < n:
        raise InvalidInputError("vectors do not span the ambient space")
    omega.setflags(write=False)
    return VectorSet(omega)


@dataclass(frozen=True, eq=False)
class BaseSelection:
    """An n-subset of labels whose vectors form a basis, plus the
    coordinate map it induces.

    ``J`` lists the other labels in increasing order.  ``gamma_matrix`` is
    the read-only inverse of the matrix with the selected vectors as columns,
    so ``gamma_matrix @ v`` gives the coordinates of ``v`` with respect to
    that basis.  Both are computed on first use.
    """

    parent: VectorSet
    I: tuple[int, ...]

    @cached_property
    def J(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.parent.N + 1) if j not in self.I)

    @cached_property
    def gamma_matrix(self) -> np.ndarray:
        gamma = np.linalg.inv(self.parent.rows(self.I).T)
        gamma.setflags(write=False)
        return gamma

    def coords(self, v) -> np.ndarray:
        return self.gamma_matrix @ np.asarray(v, dtype=np.complex128)


def select_base(A: VectorSet, labels) -> BaseSelection:
    I = tuple(sorted(_int_arg(i, "base label", 1, A.N) for i in labels))
    if len(I) != A.n or len(set(I)) != A.n:
        raise InvalidInputError(f"base must have {A.n} distinct labels")
    if _rank_count(np.linalg.svd(A.rows(I).T, compute_uv=False)) < A.n:
        raise InvalidInputError(f"vectors {I} are linearly dependent")
    return BaseSelection(A, I)


def _full_rank(cols: np.ndarray) -> np.ndarray:
    """``_rank_count(np.linalg.svd(cols, compute_uv=False)) == n`` for a stack
    of n x n matrices M, most of them decided by one batched LU (slogdet).

    Partial pivoting gives LU = PM + E, |E| <= gamma_n |L||U| (Higham, Accuracy
    and Stability of Numerical Algorithms, Thm 9.3), |l_ij| <= l = 1 (sqrt 2 if
    complex: LAPACK pivots on |Re| + |Im|), |u_ij| <= (1 + l)^(n-1) max|m_ij|, so
    ||E|| <= slack = g F, g = (n+2) eps l n(n+1)/2 (1+l)^(n-1), F = max(||M||_F,
    1e-10) (a smaller ||M||_F may have underflowed, and the rule reads M dependent).
    M is dependent if a pivot is exactly 0 (sigma_min <= slack) and slack <= 1e-10
    max(1, F / sqrt(n)) <= 1e-10 max(1, sigma_max); independent if |det| / (F +
    slack)^(n-1) - slack > 1e-10 max(1, F), as sigma_min(LU) >= |det| /
    sigma_max(LU)^(n-1) (the ratio taken in logs).  Growth far below its bound
    leaves the verdict room to spare.  No bound decides once g >= 1e-10 (n >= 11
    real, 9 complex) or when not finite; the rest go through the SVD.
    """
    n, l = cols.shape[-1], 2**0.5 if np.any(cols.imag) else 1.0
    M = cols.real if l == 1 else cols
    g = (n + 2) * np.finfo(float).eps * l * n * (n + 1) / 2 * (1 + l) ** (n - 1)
    full, dependent = np.zeros((2, len(cols)), dtype=bool)
    if g < _RANK_TOL:
        with np.errstate(all="ignore"):
            sign, logdet = np.linalg.slogdet(M)
            F = np.maximum(np.linalg.norm(M, axis=(-2, -1)), _RANK_TOL)
            dependent = (sign == 0) & np.isfinite(F) & (g * F <= _RANK_TOL * np.maximum(1.0, F / np.sqrt(n)))
            full = np.exp(logdet - (n - 1) * np.log(F + g * F)) - g * F > _RANK_TOL * np.maximum(1.0, F)
    undecided = ~(dependent | full)
    if undecided.any():
        full[undecided] = _rank_count(np.linalg.svd(cols[undecided], compute_uv=False)) == n
    return full


def _iter_bases(A: VectorSet):
    """Bases one at a time, in lexicographic label order.

    The n-subsets are tested in blocks of index rows, each through
    ``_full_rank``; the blocks double in size up to _BASE_BLOCK, so the first
    base costs one LU when the first subset is independent.
    """
    subsets = itertools.chain.from_iterable(itertools.combinations(range(A.N), A.n))
    size = 1
    while len(block := np.fromiter(itertools.islice(subsets, size * A.n), dtype=np.intp).reshape(-1, A.n)):
        for I in (block[_full_rank(np.swapaxes(A.omega[block], 1, 2))] + 1).tolist():
            yield BaseSelection(A, tuple(I))
        size = min(2 * size, _BASE_BLOCK)


def enumerate_bases(A: VectorSet) -> list[BaseSelection]:
    """All bases, in lexicographic label order; a set with more than
    _MAX_SUBSETS n-subsets is refused before any is tested."""
    if (count := math.comb(A.N, A.n)) > _MAX_SUBSETS:
        raise InvalidInputError(f"{count} subsets of {A.n} vectors to test, above the {_MAX_SUBSETS} cap")
    return list(_iter_bases(A))


def first_base(A: VectorSet) -> BaseSelection | None:
    """The first base in lexicographic label order, found without
    enumerating the rest; None when no subset is independent."""
    return next(_iter_bases(A), None)


def kernel_space(A: VectorSet) -> np.ndarray:
    """Orthonormal rows spanning the relation space of the family.

    The relation space collects the coefficient vectors ``c`` with
    ``sum_j c_j omega^j = 0``; its dimension is N - n for a spanning family.
    """
    W = A.omega.T  # (n, N), columns are the vectors
    rank, Vh = _svd_rank(W)
    if rank < A.n:
        raise InvalidInputError("vectors do not span the ambient space")
    null_rows = Vh[rank:].conj()
    null_rows.setflags(write=False)
    return null_rows


@dataclass(frozen=True, eq=False)
class ReducedSystem:
    """A base together with the difference-equation data it induces.

    The shift vector l^j of an off-base label j (ordered like ``base.J``) has
    entry 1 at position j, minus the base coordinates of omega^j at the base
    positions, and zero elsewhere.  The torus-invariant variables are
    x_j = a_j * prod_i a_i^(l^j_i) over the base labels i.  The arrays below
    are read-only and computed once, on first use.
    """

    base: BaseSelection

    @property
    def r(self) -> int:
        return len(self.base.J)

    @cached_property
    def off_base_coords(self) -> np.ndarray:
        """(r, n) base coordinates of the off-base vectors omega^j."""
        base = self.base
        # Fortran order: matrix products with a C-ordered copy round
        # differently in the last digit (x_from_a, the series tables)
        coords = np.array(
            [base.coords(base.parent.row(j)) for j in base.J], dtype=np.complex128, order="F"
        ).reshape(self.r, base.parent.n)
        coords.setflags(write=False)
        return coords

    @property
    def l_coeffs(self) -> np.ndarray:
        """(r, N) shift vectors l^j, one row per off-base label."""
        L = np.zeros((self.r, self.base.parent.N), dtype=np.complex128)
        L[np.arange(self.r), _positions(self.base.J)] = 1.0
        L[:, _positions(self.base.I)] = -self.off_base_coords
        return L

    @cached_property
    def integer_off_base_coords(self) -> np.ndarray | None:
        """``off_base_coords`` through ``_integers``."""
        return _integers(self.off_base_coords)

    def x_from_a(self, a) -> np.ndarray:
        """Torus-invariant variables from an argument vector (principal powers)."""
        a = np.asarray(a, dtype=np.complex128)
        ipos = _positions(self.base.I)
        jpos = _positions(self.base.J)
        log_base = np.log(a[ipos])
        return a[jpos] * np.exp(-self.off_base_coords @ log_base)


def _invariant_point(system: ReducedSystem, x) -> np.ndarray:
    """``x`` as a complex vector with one value per off-base label."""
    x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if x.shape != (system.r,):
        raise InvalidInputError("x must list one value per off-base label")
    return x


def build_reduced_system(B: BaseSelection) -> ReducedSystem:
    """The reduced system of base ``B``; the same as ``ReducedSystem(B)``."""
    return ReducedSystem(B)


@dataclass(frozen=True)
class SetSideDiagnostics:
    """Reducibility heuristics phrased on the vectors themselves.

    Reported alongside the relation-space tests without asserting that the
    two views coincide; see ReducibilityReport.
    """

    has_zero_vector: bool
    has_repeated_vector: bool
    has_vector_outside_others_span: bool


@dataclass(frozen=True)
class ReducibilityReport:
    """Classification of the three reduction conditions on the relation space.

    ``is_reduced`` is the conjunction of the negations of the three flags.
    ``set_side`` carries the vector-level counterparts, reported separately.
    """

    contains_coordinate_subspace: bool
    inside_proper_coordinate_subspace: bool
    contains_difference_vector: bool
    is_reduced: bool
    set_side: SetSideDiagnostics


def reducibility_check(A: VectorSet) -> ReducibilityReport:
    tol = _REDUCIBILITY_TOL
    Lrows = kernel_space(A)
    # row i of R is e_i minus its projection onto the relation space (the
    # rows of Lrows are orthonormal under the Hermitian inner product)
    R = (np.eye(A.N) - Lrows.T @ Lrows.conj()).T

    cond1 = bool(np.any(np.linalg.norm(R, axis=1) <= tol))
    # a coordinate functional vanishes on the relation space iff that
    # coordinate is zero across any basis of it
    cond2 = bool(Lrows.shape[0] > 0) and bool(
        np.any(np.max(np.abs(Lrows), axis=0) <= tol)
    )
    # e_i - e_j has norm sqrt(2)
    cond3 = bool(np.any(np.triu(_close(R, R, tol * np.sqrt(2.0)), k=1)))

    scale = float(np.max(np.abs(A.omega))) or 1.0
    zero_vec = bool(np.any(np.linalg.norm(A.omega, axis=1) <= tol * scale))
    repeated = bool(np.any(np.triu(_close(A.omega, A.omega, tol * scale), k=1)))
    # omega^i lies outside the others' span iff dropping it lowers the rank
    others = np.stack([np.delete(A.omega, i, axis=0) for i in range(A.N)])
    outside = bool(np.any(_rank_count(np.linalg.svd(others, compute_uv=False)) < A.n))

    return ReducibilityReport(
        contains_coordinate_subspace=cond1,
        inside_proper_coordinate_subspace=cond2,
        contains_difference_vector=cond3,
        is_reduced=not (cond1 or cond2 or cond3),
        set_side=SetSideDiagnostics(zero_vec, repeated, outside),
    )
