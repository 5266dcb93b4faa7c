"""Vector sets, bases, coordinate maps, reduced systems, reducibility.

Index conventions used across the package: the N generating vectors carry
1-based labels (matching the usual set-theoretic notation [1, N]); base
subsets, twist vectors, and lattice projections all speak that labelling.
numpy arrays are addressed 0-based internally, converted at the boundary.
"""
from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidInputError

# the package's one rank rule: singular values <= _RANK_TOL * max(1, largest)
# do not count toward the rank, so an n-subset is a base iff all n count
_RANK_TOL = 1e-10
# span-membership and equal-vector tolerance of reducibility_check
_REDUCIBILITY_TOL = 1e-9
# most n-subsets _iter_bases tests with one batched SVD
_BASE_BLOCK = 256


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


def _try_exact_int(entry):
    """Exact integer content of ``entry``, or None when it has none."""
    if isinstance(entry, bool):
        return None
    if isinstance(entry, (int, np.integer)):
        return int(entry)
    if isinstance(entry, Fraction):
        return int(entry) if entry.denominator == 1 else None
    value = complex(entry)
    if value.imag != 0.0:
        return None
    if float(value.real).is_integer():
        return int(value.real)
    return None


@dataclass(frozen=True)
class VectorSet:
    """A finite spanning family of complex n-vectors.

    ``omega`` is an (N, n) complex array whose rows are the vectors.  When
    every coordinate is an integer an exact copy is kept in ``integer_rows``
    so the lattice machinery can work without floating error.
    """

    omega: np.ndarray
    integer_rows: tuple | None

    @property
    def n(self) -> int:
        return self.omega.shape[1]

    @property
    def N(self) -> int:
        return self.omega.shape[0]

    def row(self, label: int) -> np.ndarray:
        """Vector with 1-based label."""
        return self.omega[label - 1]

    def rows(self, labels) -> np.ndarray:
        return self.omega[_positions(labels)]


def vector_set(rows) -> VectorSet:
    """Validate and wrap a sequence of N vectors of length n.

    Raises InvalidInputError when the vectors fail to span their ambient
    space at the package rank tolerance.
    """
    raw = list(rows)
    if not raw:
        raise InvalidInputError("empty vector set")
    exact: list[tuple[int, ...]] | None = []
    data = []
    width = None
    for row in raw:
        entries = list(row)
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise InvalidInputError("rows of unequal length")
        ints = [_try_exact_int(e) for e in entries]
        if exact is not None and all(v is not None for v in ints):
            exact.append(tuple(ints))  # type: ignore[arg-type]
        else:
            exact = None
        data.append([complex(e) for e in entries])
    omega = np.asarray(data, dtype=np.complex128)
    N, n = omega.shape
    if n < 1 or N < n:
        raise InvalidInputError(f"need N >= n >= 1, got N={N}, n={n}")
    if _svd_rank(omega)[0] < n:
        raise InvalidInputError("vectors do not span the ambient space")
    omega.setflags(write=False)
    return VectorSet(omega, tuple(exact) if exact is not None else None)


@dataclass(frozen=True)
class BaseSelection:
    """An n-subset of labels whose vectors form a basis, plus the
    coordinate map it induces.

    ``gamma_matrix`` is the inverse of the matrix with the selected vectors
    as columns, so ``gamma_matrix @ v`` gives the coordinates of ``v`` with
    respect to that basis.
    """

    parent: VectorSet
    I: tuple[int, ...]
    J: tuple[int, ...]
    gamma_matrix: np.ndarray

    def coords(self, v) -> np.ndarray:
        return self.gamma_matrix @ np.asarray(v, dtype=np.complex128)


def _base(A: VectorSet, I: tuple[int, ...], gamma: np.ndarray) -> BaseSelection:
    gamma.setflags(write=False)
    return BaseSelection(A, I, tuple(j for j in range(1, A.N + 1) if j not in I), gamma)


def select_base(A: VectorSet, labels) -> BaseSelection:
    I = tuple(sorted(int(i) for i in labels))
    if len(I) != A.n or len(set(I)) != A.n:
        raise InvalidInputError(f"base must have {A.n} distinct labels")
    if I[0] < 1 or I[-1] > A.N:
        raise InvalidInputError("base labels out of range")
    cols = A.rows(I).T
    if _rank_count(np.linalg.svd(cols, compute_uv=False)) < A.n:
        raise InvalidInputError(f"vectors {I} are linearly dependent")
    return _base(A, I, np.linalg.inv(cols))


def _iter_bases(A: VectorSet):
    """Bases one at a time, in lexicographic label order.

    The n-subsets are tested in blocks of one batched SVD each; the blocks
    double in size up to _BASE_BLOCK, so the first base costs one SVD when
    the first subset is independent.
    """
    subsets = itertools.combinations(range(1, A.N + 1), A.n)
    size = 1
    while block := list(itertools.islice(subsets, size)):
        cols = np.swapaxes(A.omega[np.asarray(block) - 1], 1, 2)
        independent = _rank_count(np.linalg.svd(cols, compute_uv=False)) == A.n
        gammas = np.linalg.inv(cols[independent])
        for I, gamma in zip(itertools.compress(block, independent), gammas):
            yield _base(A, I, gamma)
        size = min(2 * size, _BASE_BLOCK)


def enumerate_bases(A: VectorSet) -> list[BaseSelection]:
    """All bases, in lexicographic label order (exhaustive; desk scale)."""
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


class _TableMemo:
    """Tables computed from one reduced system, bounded by their total size.

    Each entry is stored with its size (its number of coefficients); the
    sizes held never sum past ``budget``.  The least recently used entries
    are dropped first, and an entry larger than the budget is not kept.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.size = 0
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, value, size: int) -> None:
        if size > self.budget:
            return
        while self.size + size > self.budget:
            _, (_, dropped) = self._entries.popitem(last=False)
            self.size -= dropped
        self._entries[key] = (value, size)
        self.size += size


# coefficients a system's table memo may hold: enough for the repeated
# small tables of a residual check, and small enough that the peak RSS of
# the eval-grid benchmark (tables of 5k-53k terms) does not move
_TABLE_BUDGET = 1 << 15


@dataclass(frozen=True)
class ReducedSystem:
    """A base together with the difference-equation data it induces.

    ``l_coeffs`` holds one N-vector per off-base label j (ordered like
    ``base.J``): entry 1 at position j, minus the base coordinates of
    omega^j at the base positions, zero elsewhere.  The torus-invariant
    variables are x_j = a_j * prod_i a_i^(l^j_i) over the base labels i.
    """

    base: BaseSelection
    l_coeffs: np.ndarray  # (r, N)
    # tables the series layer computed for this instance; not part of its value
    tables: _TableMemo = field(
        default_factory=lambda: _TableMemo(_TABLE_BUDGET), init=False, repr=False, compare=False
    )

    @property
    def r(self) -> int:
        return len(self.base.J)

    @property
    def l_on_base(self) -> np.ndarray:
        """(r, n) block of l^j at the base positions (= -coords of omega^j)."""
        return self.l_coeffs[:, _positions(self.base.I)]

    @property
    def off_base_coords(self) -> np.ndarray:
        """(r, n) base coordinates of the off-base vectors omega^j."""
        return -self.l_on_base

    @cached_property
    def integer_off_base_coords(self) -> np.ndarray | None:
        """``off_base_coords`` as an int64 array when every entry is exactly
        an integer (real part equal to its rounding, imaginary part 0) below
        2**31 in magnitude, else None."""
        coords = self.off_base_coords
        real = coords.real
        if np.any(coords.imag != 0) or np.any(real != np.round(real)) or np.any(np.abs(real) >= 2**31):
            return None
        out = real.astype(np.int64)
        out.setflags(write=False)
        return out

    def x_from_a(self, a) -> np.ndarray:
        """Torus-invariant variables from an argument vector (principal powers)."""
        a = np.asarray(a, dtype=np.complex128)
        ipos = _positions(self.base.I)
        jpos = _positions(self.base.J)
        if self.r == 0:
            return np.zeros(0, dtype=np.complex128)
        log_base = np.log(a[ipos])
        return a[jpos] * np.exp(self.l_on_base @ log_base)


def build_reduced_system(B: BaseSelection) -> ReducedSystem:
    A = B.parent
    r = A.N - A.n
    L = np.zeros((r, A.N), dtype=np.complex128)
    ipos = _positions(B.I)
    for row, j in enumerate(B.J):
        L[row, j - 1] = 1.0
        L[row, ipos] = -B.coords(A.row(j))
    L.setflags(write=False)
    return ReducedSystem(B, L)


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


def _in_row_span(rows: np.ndarray, w: np.ndarray, tol: float) -> bool:
    if rows.shape[0] == 0:
        return bool(np.linalg.norm(w) <= tol)
    # rows are orthonormal under the Hermitian inner product
    proj = rows.T @ (rows.conj() @ w)
    return bool(np.linalg.norm(w - proj) <= tol * max(1.0, float(np.linalg.norm(w))))


def reducibility_check(A: VectorSet) -> ReducibilityReport:
    tol = _REDUCIBILITY_TOL
    Lrows = kernel_space(A)
    N = A.N
    eye = np.eye(N, dtype=np.complex128)

    cond1 = any(_in_row_span(Lrows, eye[i], tol) for i in range(N))
    # a coordinate functional vanishes on the relation space iff that
    # coordinate is zero across any basis of it
    cond2 = bool(Lrows.shape[0] > 0) and bool(
        np.any(np.max(np.abs(Lrows), axis=0) <= tol)
    )
    cond3 = any(
        _in_row_span(Lrows, eye[i] - eye[j], tol)
        for i in range(N)
        for j in range(N)
        if i < j
    )

    scale = float(np.max(np.abs(A.omega))) or 1.0
    zero_vec = bool(np.any(np.linalg.norm(A.omega, axis=1) <= tol * scale))
    repeated = bool(np.any(np.triu(_close(A.omega, A.omega, tol * scale), k=1)))
    outside = False
    for i in range(N):
        others = np.delete(A.omega, i, axis=0)
        rank, Vh = _svd_rank(others)
        span_rows = Vh[:rank]
        if not _in_row_span(span_rows, A.omega[i], tol):
            outside = True
            break

    return ReducibilityReport(
        contains_coordinate_subspace=cond1,
        inside_proper_coordinate_subspace=cond2,
        contains_difference_vector=cond3,
        is_reduced=not (cond1 or cond2 or cond3),
        set_side=SetSideDiagnostics(zero_vec, repeated, outside),
    )
