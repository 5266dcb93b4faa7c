"""Resonance structure of a vector configuration.

A direction v splits the set into the labels whose v-shift stays inside
(``a_indices``) and the rest (``b_indices``).  When the latter fail to span,
v is consistent: the configuration falls apart into v-chains, and every
solution regular on the affine hyperplane span(B) + v satisfies one extra
first-order relation there, with coefficients from the annihilator of the
span.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .model import VectorSet, _close, _svd_rank
from .verify import ResidualReport, residual_report

_REL_TOL = 1e-9


def _match_tolerance(A: VectorSet) -> float:
    return _REL_TOL * float(np.max(np.linalg.norm(A.omega, axis=1)))


@dataclass(frozen=True)
class ChainDecomposition:
    """v-chains covering the whole configuration, each top first."""

    chains: tuple[tuple[int, ...], ...]
    zero_chain: tuple[int, ...]

    @property
    def counts(self) -> tuple[int, ...]:
        # zero-chain count first; it is one longer than its member list
        # because the chain conceptually ends at the origin
        return (len(self.zero_chain) + 1,) + tuple(len(c) for c in self.chains)


@dataclass(frozen=True)
class ResonanceAnalysis:
    v: np.ndarray
    consistent: bool
    a_indices: tuple[int, ...]
    b_indices: tuple[int, ...]
    span_basis: np.ndarray  # orthonormal rows spanning the B-span
    codim: int
    normal: np.ndarray | None  # unit annihilator of the span, codim 1 only
    offset: complex | None  # plain pairing <normal, v>
    decomposition: ChainDecomposition | None

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.complex128)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        basis = np.asarray(self.span_basis, dtype=np.complex128)
        basis.setflags(write=False)
        object.__setattr__(self, "span_basis", basis)
        if self.normal is not None:
            lam = np.asarray(self.normal, dtype=np.complex128)
            lam.setflags(write=False)
            object.__setattr__(self, "normal", lam)

    def on_hyperplane(self, beta, tol: float = 1e-10) -> bool:
        if self.normal is None:
            raise InvalidInputError("hyperplane needs codimension one")
        gap = np.dot(self.normal, np.asarray(beta, dtype=np.complex128)) - self.offset
        return abs(gap) <= tol * max(1.0, abs(self.offset))


def _build_chains(A: VectorSet, v, b_indices, tol) -> ChainDecomposition:
    available = np.ones(A.N, dtype=bool)

    def take(hits) -> int | None:
        # lowest available label among the hits, marked as taken
        found = np.flatnonzero(hits & available)
        if not found.size:
            return None
        available[found[0]] = False
        return int(found[0]) + 1

    steps = _close(A.omega - v, A.omega, tol)  # [a, b]: omega_a - v ~ omega_b
    chains = []
    for top in b_indices:
        if not available[top - 1]:
            raise DomainError("chain tops overlap; direction is not consistent")
        available[top - 1] = False
        chain = [top]
        while (label := take(steps[chain[-1] - 1])) is not None:
            chain.append(label)
        chains.append(tuple(chain))
    # the zero chain holds -v, -2v, ... in turn
    multiples = _close(-np.arange(1, A.N + 1)[:, None] * v, A.omega, tol)
    zero = []
    for hits in multiples:
        if (label := take(hits)) is None:
            break
        zero.append(label)
    if available.any():
        raise DomainError("chain decomposition does not cover the configuration")
    return ChainDecomposition(tuple(chains), tuple(zero))


def analyze_vector(A: VectorSet, v) -> ResonanceAnalysis:
    """Full shift analysis of one direction: membership split, span of the
    leftovers, annihilator, and (for consistent nonzero v) the chains."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (A.n,):
        raise InvalidInputError("direction has the wrong length")
    tol = _match_tolerance(A)
    shifted = A.omega + v
    in_a = (np.linalg.norm(shifted, axis=1) <= tol) | _close(shifted, A.omega, tol).any(axis=1)
    a_idx = tuple(int(i) + 1 for i in np.flatnonzero(in_a))
    b_idx = tuple(int(i) + 1 for i in np.flatnonzero(~in_a))
    rows = A.omega[~in_a]
    if rows.shape[0]:
        rank, vh = _svd_rank(rows)
        basis = vh[:rank]
    else:
        rank = 0
        vh = np.eye(A.n, dtype=np.complex128)
        basis = vh[:0]
    codim = A.n - rank
    consistent = codim >= 1
    normal = offset = None
    if codim == 1:
        normal = np.conj(vh[rank])  # plain pairing kills every spanning row
        offset = complex(np.dot(normal, v))
    decomposition = None
    if consistent and np.linalg.norm(v) > tol:
        decomposition = _build_chains(A, v, b_idx, tol)
    return ResonanceAnalysis(
        v, consistent, a_idx, b_idx, basis, codim, normal,
        offset, decomposition,
    )


def candidate_consistent_vectors(A: VectorSet) -> tuple[ResonanceAnalysis, ...]:
    """Analyses of every consistent candidate direction.

    Only differences of members and negated members can be consistent, so
    those are the candidates; they are deduplicated within the matching
    tolerance and the inconsistent ones are dropped.
    """
    tol = _match_tolerance(A)
    a, b = np.nonzero(~np.eye(A.N, dtype=bool))  # ordered pairs a != b, a first
    candidates = np.concatenate([A.omega[b] - A.omega[a], -A.omega])
    kept = np.empty_like(candidates)
    count = 0
    for cand, norm in zip(candidates, np.linalg.norm(candidates, axis=1)):
        if norm > tol and not _close(cand[None], kept[:count], tol).any():
            kept[count] = cand
            count += 1
    analyses = (analyze_vector(A, v) for v in kept[:count])
    return tuple(an for an in analyses if an.consistent)


def decompose_structure(A: VectorSet, v) -> ChainDecomposition:
    """Chain decomposition along a consistent nonzero direction."""
    analysis = analyze_vector(A, v)
    if np.linalg.norm(analysis.v) <= _match_tolerance(A):
        raise DomainError("direction must be nonzero")
    if not analysis.consistent:
        raise DomainError("direction is not consistent with the configuration")
    return analysis.decomposition


def check_extra_relation(
    f,
    A: VectorSet,
    analysis: ResonanceAnalysis,
    samples: int = 6,
    seed: int = 0,
    tolerance: float = 1e-8,
    points=None,
    plane_offset: complex = 0.0,
    argument_sampler=None,
) -> ResidualReport:
    """Residual of the extra relation carried by a consistent direction.

    Sum over the shift-invariant labels of <normal, omega> a_omega times the
    solution at beta - omega - v (the derivative in the variable of
    omega + v, rewritten through the shift equation; the term with
    omega + v = 0 contributes the undifferentiated value).  Holds on the
    hyperplane only, which is where parameters are sampled; ``plane_offset``
    moves the samples off it along the pairing-dual of the normal, as a
    negative control.  Explicit ``points`` (beta, a) pairs must lie on the
    hyperplane.
    """
    tol_match = _match_tolerance(A)
    if np.linalg.norm(analysis.v) <= tol_match or not analysis.consistent:
        raise InvalidInputError("need a nonzero consistent direction")
    if analysis.normal is None:
        raise InvalidInputError("extra relation needs codimension one")
    lam, v = analysis.normal, analysis.v
    rng = np.random.default_rng(seed)
    if points is not None:
        pairs = [
            (np.asarray(b, dtype=np.complex128), np.asarray(a, dtype=np.complex128))
            for b, a in points
        ]
        for beta, _ in pairs:
            if not analysis.on_hyperplane(beta):
                raise InvalidInputError("parameter point off the resonance hyperplane")
    else:
        pairs = []
        dual = np.conj(lam)  # <lam, conj(lam)> = 1, so this leaves the plane
        for _ in range(samples):
            coeff = rng.uniform(-1, 1, analysis.span_basis.shape[0]) + 1j * rng.uniform(
                -1, 1, analysis.span_basis.shape[0]
            )
            beta = v + coeff @ analysis.span_basis + plane_offset * dual
            if argument_sampler is not None:
                a = np.asarray(argument_sampler(rng), dtype=np.complex128)
            else:
                a = rng.uniform(0.5, 1.5, A.N).astype(np.complex128)
            pairs.append((beta, a))

    residuals, scales = [], []
    for beta, a in pairs:
        terms = []
        for label in analysis.a_indices:
            omega = A.row(label)
            target = omega + v
            if np.linalg.norm(target) <= tol_match:
                value = f(beta, a)
            else:
                value = f(beta - target, a)
            terms.append(np.dot(lam, omega) * a[label - 1] * value)
        residuals.append(abs(sum(terms)))
        scales += [abs(t) for t in terms]
    return residual_report("extra-resonance-relation", residuals, scales, tolerance)


@dataclass(frozen=True)
class GrassmannianSet:
    """Row-plus-column configuration for p x n matrix variables.

    Vectors e_j + d_i live in the hyperplane "sum of column part equals sum
    of row part" of the (n+p)-dimensional ambient space; coordinates here
    are intrinsic to that hyperplane (the first row coefficient is dropped
    and reconstructed from the constraint).
    """

    p: int
    n: int
    vectors: VectorSet

    def label(self, i: int, j: int) -> int:
        if not (1 <= i <= self.p and 1 <= j <= self.n):
            raise InvalidInputError("matrix position out of range")
        return (i - 1) * self.n + j

    def pair(self, label: int) -> tuple[int, int]:
        if not (1 <= label <= self.p * self.n):
            raise InvalidInputError("label out of range")
        return (label - 1) // self.n + 1, (label - 1) % self.n + 1

    def to_ambient(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.complex128)
        if w.shape != (self.n + self.p - 1,):
            raise InvalidInputError("intrinsic vector has the wrong length")
        col, row_tail = w[: self.n], w[self.n :]
        first = col.sum() - row_tail.sum()
        return np.concatenate([col, [first], row_tail])

    def from_ambient(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.complex128)
        if u.shape != (self.n + self.p,):
            raise InvalidInputError("ambient vector has the wrong length")
        gap = u[: self.n].sum() - u[self.n :].sum()
        if abs(gap) > 1e-10 * max(1.0, float(np.max(np.abs(u)))):
            raise InvalidInputError(
                "vector violates the column-sum = row-sum constraint"
            )
        return np.concatenate([u[: self.n], u[self.n + 1 :]])


def grassmannian_set(p: int, n: int) -> GrassmannianSet:
    from .model import vector_set

    if p >= n:
        raise DomainError("need p < n")
    rows = []
    for i in range(1, p + 1):
        for j in range(1, n + 1):
            col = [0] * n
            col[j - 1] = 1
            row_tail = [0] * (p - 1)
            if i > 1:
                row_tail[i - 2] = 1
            rows.append(tuple(col + row_tail))
    return GrassmannianSet(p, n, vector_set(rows))
