"""Seeded workload generator for the ggsys benchmark.

Every workload is a fixed round of (class, size) slots (``ROUNDS``).  Round
k of a workload is drawn from its own generator seeded by (seed, workload,
k), so the same seed always gives the same ops, and a longer pool only
appends rounds.  Every round holds the same slots, so the size mix of a run
does not depend on the seed.

An op is a CLI config (``kind == "cli"``) or, where the CLI cannot reach a
layer, a direct library call: ``"kernel"`` (lattice.integer_kernel) and
``"mixed"`` (series.mixed_gamma_series_eval, which the eval task lacks).
Each op carries its expected outcome: the exit code and, where an
independent value exists, the value or the oracle the checker recomputes it
with.  The generator never imports ggsys; its filters and expected values
come from closed forms.
"""
from __future__ import annotations

import copy
from fractions import Fraction

import numpy as np
import scipy.special as sp

DEFAULT_SEED = 20240917

# The bundled verify config (src/ggsys/configs/gauss.json), restated so the
# benchmark needs no file from the program to build its inputs.
GAUSS = {
    "task": "verify",
    "omega": [
        [[1, 0], [0, 0], [0, 0]],
        [[0, 0], [1, 0], [0, 0]],
        [[0, 0], [0, 0], [1, 0]],
        [[1, 0], [1, 0], [-1, 0]],
    ],
    "n": 3,
    "N": 4,
    "base": [1, 2, 3],
    "k": [0, 0, 0],
    "seed": 0,
    "samples": 10,
    "tolerance": 1e-8,
    "truncation": 24,
    "x_bound": 0.3,
}

# Input sizes of each workload, recorded with every result next to the
# round's slot list.
SIZES = {
    "verify-int": (
        "integer sets with unit base vectors, off-base entries in [-2,2] and "
        "coordinate sums <= -1 (infinite radius); (n, r, truncation, samples) "
        "from (2,1,20,4) to (3,3,20,1); x_bound 0.3; gauss.json, a perturbed "
        "gauss copy and a perturbed integer set (exit 1); a two-member family "
        "on a unimodular image of the gauss set"
    ),
    "eval-grid": (
        "real non-integer sets, n=2-3, r=3-5, 5,456-53,130 terms; reduced, "
        "full and mixed mode; 1-2 parameter vectors per config, over 2-3 "
        "points each"
    ),
    "structure": (
        "Grassmannian sets G(2,5)-G(3,6) with shuffled labels and random "
        "spanning-tree bases; bases up to G(3,5) (2,025 bases); lattice "
        "quotients of order 1e3-2e4; integer_kernel on 8x4 and 9x5 matrices "
        "with entries in [-9,9] and 10x5 with entries in [-4,4]"
    ),
    "quadrature": (
        "hankel-loop and 1-D shifted-plane; 2-D shifted-plane adaptive from "
        "64 nodes per axis (about 0.34M nodes) and on a fixed 769x769 grid "
        "plus its half-rate sum (0.74M nodes); euler-segment; delta-comb "
        "pairings with q=1-2; the Fourier check and a perturbed control"
    ),
}


def _rng(seed: int, workload: str, round_no: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), round_no])


def _pairs(vec) -> list:
    return [[float(complex(v).real), float(complex(v).imag)] for v in vec]


def _off_integer(rng, low, high, gap=0.08) -> float:
    while True:
        v = float(rng.uniform(low, high))
        if abs(v - round(v)) >= gap:
            return v


def _exact_solve(B, v) -> list[Fraction]:
    """Solve B y = v over the rationals (B square, integer entries)."""
    n = len(B)
    M = [[Fraction(B[i][j]) for j in range(n)] + [Fraction(v[i])] for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if M[i][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        for i in range(n):
            if i != c and M[i][c] != 0:
                f = M[i][c] / M[c][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return [M[i][n] / M[i][i] for i in range(n)]


def _exact_det(B) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    M = [list(map(int, row)) for row in B]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _unimodular(rng, n: int) -> np.ndarray:
    """A small random unimodular integer matrix (two elementary row moves)."""
    U = np.eye(n, dtype=np.int64)
    for _ in range(2):
        i, j = rng.choice(n, size=2, replace=False)
        U[i] += int(rng.choice([-1, 1])) * U[j]
    return U


def _shuffled(rng, rows, base_positions):
    """Shuffle vector labels; return (rows, 1-based labels of the base)."""
    perm = rng.permutation(len(rows))
    new_rows = [rows[p] for p in perm]
    where = {int(p): new for new, p in enumerate(perm)}
    return new_rows, sorted(where[b] + 1 for b in base_positions)


# ---------------------------------------------------------------------------
# verify-int
# ---------------------------------------------------------------------------


def _integer_off_base(rng, n: int, r: int) -> list[list[int]]:
    """r distinct integer coordinate vectors with entries in [-2, 2] and
    coordinate sum <= -1.  The coefficients then fall like (m!)^(sum - 1), so
    every direction has an infinite radius, and the ratio test in
    ``convergence_condition`` reads "infinite" (at sum 0 it reads "positive")."""
    out: list[list[int]] = []
    while len(out) < r:
        g = rng.integers(-2, 3, size=n).tolist()
        if sum(g) > -1 or g in out:
            continue
        if sum(1 for v in g if v) == 1 and min(g) == -1:
            continue  # -e_i: the set would hold a vector and its negation
        out.append(g)
    return out


def _integer_verify(rng, n, r, truncation, samples, perturbation=None) -> dict:
    # Unit base vectors keep the entries small: the finite-difference noise
    # of the residual checks grows with the vector entries.
    coords = _integer_off_base(rng, n, r)
    base_rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows, base = _shuffled(rng, base_rows + coords, range(n))
    cfg = {
        "task": "verify",
        "omega": rows,
        "base": base,
        "k": rng.integers(-1, 2, size=n).tolist(),
        "seed": int(rng.integers(0, 10_000)),
        "samples": samples,
        "truncation": truncation,
    }
    if perturbation is not None:
        cfg["perturbation"] = perturbation
    return cfg


def _verify_op(rng, cls: str, size) -> dict:
    if cls == "verify":
        cfg = _integer_verify(rng, *size)
    elif cls == "gauss":
        cfg = copy.deepcopy(GAUSS)
        cfg["seed"] = int(rng.integers(0, 10_000))
    elif cls == "gauss-perturbed":
        cfg = copy.deepcopy(GAUSS)
        cfg["samples"] = 4
        cfg["perturbation"] = [float(rng.uniform(1e-3, 1e-2)), float(rng.uniform(-1e-3, 1e-3))]
        return {"kind": "cli", "config": cfg, "expect": {"exit": 1}}
    elif cls == "int-perturbed":
        cfg = _integer_verify(rng, *size, perturbation=float(rng.uniform(2e-3, 2e-2)))
        return {"kind": "cli", "config": cfg, "expect": {"exit": 1}}
    elif cls == "family":
        return _family_op(rng, size)
    else:
        raise ValueError(cls)
    return {"kind": "cli", "config": cfg, "expect": {"exit": 0}}


def _family_op(rng, truncation: int) -> dict:
    """Two-member family on a unimodular image of the gauss set: the members
    on bases {1,2,3} and {1,2,4} are independent, so the rank is 2."""
    gauss = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]
    U = _unimodular(rng, 3)
    rows = [(U @ np.asarray(v)).tolist() for v in gauss]
    cfg = {
        "task": "family",
        "omega": rows,
        "bases": [[1, 2, 3], [1, 2, 4]],
        "seed": int(rng.integers(0, 10_000)),
        "samples": 3,
        "truncation": truncation,
    }
    return {"kind": "cli", "config": cfg, "expect": {"exit": 0, "rank": 2}}


# ---------------------------------------------------------------------------
# eval-grid
# ---------------------------------------------------------------------------


def _real_coords(rng, n: int, r: int, nonpositive_col: int | None) -> list[list[float]]:
    """r real, non-integer coordinate vectors with sum <= -0.2."""
    out = []
    while len(out) < r:
        g = [_off_integer(rng, -1.6, 0.6) for _ in range(n)]
        if nonpositive_col is not None:
            g[nonpositive_col] = -abs(g[nonpositive_col])
        if sum(g) <= -0.2:
            out.append(g)
    return out


def _eval_op(rng, cls: str, n: int) -> dict:
    # class -> (r, truncation, mode, parameter vectors, points per vector)
    r, M, mode, n_beta, n_pts = {
        "r3-reduced": (3, 30, "reduced", 2, 2),
        "r3-mixed": (3, 30, "mixed", 2, 2),
        "r4-full": (4, 20, "full", 1, 3),
        "r5-reduced": (5, 15, "reduced", 1, 2),
        "r4-big": (4, 30, "reduced", 1, 2),
        "r5-big-full": (5, 20, "full", 1, 2),
    }[cls]
    coords = _real_coords(rng, n, r, 0 if mode == "mixed" else None)
    B = np.eye(n) + np.triu(rng.uniform(-0.5, 0.5, size=(n, n)), 1)
    base_rows = [B[:, i].tolist() for i in range(n)]
    off_rows = [(B @ np.asarray(g)).tolist() for g in coords]
    rows = base_rows + off_rows
    labels = list(range(1, n + 1))
    cfg = {
        "task": "eval",
        "omega": rows,
        "base": labels,
        "k": rng.integers(-1, 2, size=n).tolist(),
        "mode": mode,
        "truncation": M,
        "beta": [],
        "x" if mode != "full" else "a": [],
    }
    if mode == "mixed":
        cfg["partition"] = [[1], labels[1:]]
    angles = np.linspace(0.0, 2 * np.pi, n_pts, endpoint=False)
    for _ in range(n_beta):
        beta_I = [_off_integer(rng, -0.8, 1.8) + 1j * float(rng.uniform(-0.3, 0.3)) for _ in range(n)]
        beta = B @ np.asarray(beta_I)
        radius = float(rng.uniform(0.15, 0.45))
        for t, ang in enumerate(angles):
            x = [radius * np.exp(1j * (ang + 0.7 * j + 0.3 * t)) for j in range(r)]
            cfg["beta"].append(_pairs(beta))
            if mode == "full":
                a_I = rng.uniform(0.5, 1.5, size=n)
                a_J = [x[j] * np.prod(a_I ** np.asarray(coords[j])) for j in range(r)]
                cfg["a"].append(_pairs(list(a_I) + a_J))
            else:
                cfg["x"].append(_pairs(x))
    # The CLI eval task has no mixed mode, so mixed configs go straight to
    # series.mixed_gamma_series_eval.
    kind = "mixed" if mode == "mixed" else "cli"
    return {"kind": kind, "config": cfg, "expect": {"exit": 0, "oracle": "series"}}


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def grassmannian_rows(p: int, n: int) -> list[list[int]]:
    """e_j + d_i for the p x n matrix positions, in the intrinsic coordinates
    of the hyperplane (first row coefficient dropped); label (i-1)*n + j."""
    rows = []
    for i in range(1, p + 1):
        for j in range(1, n + 1):
            col = [0] * n
            col[j - 1] = 1
            tail = [0] * (p - 1)
            if i > 1:
                tail[i - 2] = 1
            rows.append(col + tail)
    return rows


def _spanning_tree(rng, p: int, n: int) -> list[int]:
    """0-based positions of a random spanning tree of K_{p,n}; the matching
    vectors form a base of the Grassmannian set."""
    parent = list(range(p + n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = []
    for e in rng.permutation(p * n):
        i, j = divmod(int(e), n)
        a, b = find(j), find(n + i)
        if a != b:
            parent[a] = b
            tree.append(int(e))
    return tree


def _structure_op(rng, cls: str, size) -> dict:
    if cls in ("bases", "reduce", "lattice", "resonance"):
        p, n = size
        grass = grassmannian_rows(p, n)
        tree = _spanning_tree(rng, p, n)
        rows, base = _shuffled(rng, grass, tree)
        task = cls
        cfg = {"task": task, "omega": rows}
        expect: dict = {"exit": 0}
        if task == "bases":
            # bases are the spanning trees of K_{p,n}
            expect["base_count"] = p ** (n - 1) * n ** (p - 1)
        elif task == "reduce":
            cfg["base"] = base
            expect["off_base_coordinates"] = _exact_coords(rows, base)
        elif task == "lattice":
            cfg["base"] = base
            expect.update(order=1, saturation_index=1)
        return {"kind": "cli", "config": cfg, "expect": expect}
    if cls == "lattice-quotient":
        n = size
        while True:
            B = rng.integers(-40 if n == 2 else -18, 41 if n == 2 else 19, size=(n, n))
            det = abs(_exact_det(B.tolist()))
            if 1_000 <= det <= 20_000:
                break
        base_rows = [B[:, i].tolist() for i in range(n)]
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        rows, base = _shuffled(rng, base_rows + units, range(n))
        cfg = {"task": "lattice", "omega": rows, "base": base}
        return {"kind": "cli", "config": cfg, "expect": {"exit": 0, "order": det, "saturation_index": 1}}
    if cls == "kernel":
        m, k, lim = size
        mat = rng.integers(-lim, lim + 1, size=(m, k)).tolist()
        return {"kind": "kernel", "matrix": mat, "expect": {"exit": 0}}
    raise ValueError(cls)


def _exact_coords(rows, base) -> list[list[float]]:
    B = [[rows[b - 1][i] for b in base] for i in range(len(rows[0]))]
    off = [j for j in range(1, len(rows) + 1) if j not in base]
    return [[float(c) for c in _exact_solve(B, rows[j - 1])] for j in off]


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def _bessel_k_plane(beta: float, x: float, k: int) -> complex:
    """Plane integral for omega = (1), (-1): the substitution t = e^sigma
    turns it into 2 x^(-beta/2) K_beta(2 sqrt x) times the branch phase."""
    return complex(np.exp(-1j * np.pi * (2 * k + 1) * beta) * 2 * x ** (-beta / 2) * sp.kv(beta, 2 * np.sqrt(x)))


def _quadrature_op(rng, cls: str, nodes) -> dict:
    tol_oracle = 1e-8
    if cls == "hankel":
        beta = _off_integer(rng, -0.9, 2.5)
        x = 0.0 if rng.uniform() < 0.5 else float(rng.uniform(0.05, 1.0))
        # Schlaefli: the loop integral of exp(t + x/t) t^(-beta-1)
        ref = 2j * np.pi * (sp.rgamma(beta + 1) if x == 0 else x ** (-beta / 2) * sp.iv(beta, 2 * np.sqrt(x)))
        cfg = {
            "task": "integral",
            "omega": [[1], [-1]],
            "integral": {"kind": "hankel-loop", "base": 1, "beta": beta, "x": [x], "tolerance": 1e-10},
        }
    elif cls == "plane-1d":
        beta, x, k = float(rng.uniform(0.2, 1.8)), float(rng.uniform(0.05, 1.0)), int(rng.integers(0, 2))
        ref = _bessel_k_plane(beta, x, k)
        cfg = {
            "task": "integral",
            "omega": [[1], [-1]],
            "integral": {"kind": "shifted-plane", "base": [1], "branch": [k], "beta": [beta], "x": [x], "tolerance": 1e-10},
        }
    elif cls in ("plane-2d", "plane-2d-coupled", "plane-2d-fixed"):
        b1, b2 = (float(v) for v in rng.uniform(0.3, 1.5, size=2))
        x1, x2 = (float(v) for v in rng.uniform(0.15, 1.0, size=2))
        omega = [[1, 0], [0, 1], [-1, 0], [0, -1]]
        xs = [x1, x2]
        ref = _bessel_k_plane(b1, x1, 0) * _bessel_k_plane(b2, x2, 0)
        if cls == "plane-2d-coupled":
            omega.append([-1, -2])  # w = x e^(-3 pi i) keeps the decaying half-plane
            xs.append(float(rng.uniform(0.02, 0.2)))
            ref = None
        cfg = {
            "task": "integral",
            "omega": omega,
            "integral": {
                "kind": "shifted-plane", "base": [1, 2], "beta": [b1, b2], "x": xs,
                "tolerance": 1e-9, "nodes": nodes,
            },
        }
        if cls == "plane-2d-fixed":
            # one fixed grid plus its half-rate sum: the same work every time
            cfg["integral"].update(adaptive=False, cutoff=32.0)
    elif cls == "segment":
        # endpoint powers s^(-beta-1) stay mild enough to settle at 1e-10
        b1, b2 = (float(v) for v in rng.uniform(-0.95, -0.55, size=2))
        x = 0.0 if rng.uniform() < 0.5 else float(rng.uniform(-0.3, 0.3))
        ref = sp.beta(-b1, -b2) * sp.rgamma(b1 + b2 + 1) if x == 0 else None
        cfg = {
            "task": "integral",
            "omega": [[1, 0], [0, 1], [0.5, 0.5]],
            "integral": {"kind": "euler-segment", "base": [1, 2], "beta": [b1, b2], "x": [x], "tolerance": 1e-10, "max_refinements": 14},
        }
    elif cls in ("pair-const", "pair-exp", "pair-const-q1"):
        q = 1 if cls.endswith("q1") else 2
        ell = [[float(round(rng.uniform(0.5, 2.0), 2))] for _ in range(q)]
        x = [float(rng.uniform(-0.4, 0.4)) for _ in range(q)]
        if cls != "pair-exp":
            phi = {"kind": "constant"}
            ref = np.exp(1.0 + sum(x))
            M, R = (25, 40) if q == 1 else (20, 30)
        else:
            c = float(rng.uniform(-0.4, 0.2))
            phi = {"kind": "exponential", "rate": c}
            ref = np.exp(np.exp(c) + sum(xj * np.exp(c * lj[0]) for xj, lj in zip(x, ell)))
            M, R = (25, 40) if q == 1 else (20, 30)
        cfg = {
            "task": "distribution",
            "omega": [[1]],
            "distribution": {"ell": ell, "x": x, "phi": phi, "m_truncation": M, "r_truncation": R},
        }
    elif cls in ("fourier", "fourier-perturbed"):
        x = float(rng.uniform(-0.4, 0.6))
        four = {"ell": 1.0, "x": x}
        if cls == "fourier-perturbed":
            # the defect scales with x, so keep x clear of 0
            x = float(rng.uniform(0.3, 0.6))
            four = {"ell": 1.0, "x": x, "perturbation": float(rng.uniform(0.05, 0.1))}
        cfg = {
            "task": "distribution",
            "omega": [[1]],
            "distribution": {"ell": [[1.0]], "x": [x], "m_truncation": 15, "r_truncation": 25, "fourier": four},
        }
        return {"kind": "cli", "config": cfg, "expect": {"exit": 1 if "perturbed" in cls else 0}}
    else:
        raise ValueError(cls)
    expect: dict = {"exit": 0}
    if ref is not None:
        expect["reference"] = [float(complex(ref).real), float(complex(ref).imag)]
        expect["reference_tolerance"] = tol_oracle
    return {"kind": "cli", "config": cfg, "expect": expect}


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

# One round per workload: (class, size) slots in the order they run.  Sizes
# are fixed per slot, so every round costs about the same and only the drawn
# vectors, parameters and points change with the seed.  Sorted by cost, a
# round has a block of like-sized slots around its middle and another at its
# top fifth, so the median and p90 fall inside a block rather than on the
# edge between two sizes (listed here cheapest first).
ROUNDS = {
    "verify-int": (  # verify sizes are (n, r, truncation, samples)
        ("verify", (2, 1, 20, 4)), ("verify", (3, 1, 26, 3)), ("family", 22),
        ("gauss-perturbed", None), ("verify", (3, 2, 20, 2)),
        ("verify", (2, 2, 25, 3)), ("int-perturbed", (2, 2, 25, 3)), ("verify", (2, 2, 25, 3)),
        ("verify", (2, 2, 30, 3)), ("verify", (2, 2, 25, 3)),
        ("verify", (2, 3, 22, 1)), ("gauss", None),
        ("verify", (3, 3, 20, 1)), ("verify", (3, 3, 20, 1)), ("verify", (3, 3, 20, 1)),
    ),
    "eval-grid": (  # size is the dimension n
        ("r3-mixed", 2), ("r3-reduced", 2), ("r3-reduced", 3), ("r3-mixed", 3), ("r3-mixed", 2),
        ("r4-full", 2), ("r4-full", 2), ("r4-full", 2), ("r4-full", 2), ("r4-full", 2),
        ("r5-reduced", 3), ("r4-full", 3), ("r4-big", 2),
        ("r5-big-full", 2), ("r5-big-full", 2), ("r5-big-full", 2),
    ),
    "structure": (  # Grassmannian (p, n), kernel (rows, columns, entry bound), quotient n
        ("kernel", (8, 4, 9)), ("kernel", (9, 5, 9)), ("kernel", (10, 5, 4)), ("lattice", (3, 6)),
        ("lattice-quotient", 2), ("lattice-quotient", 3),
        ("reduce", (2, 5)), ("bases", (2, 6)), ("reduce", (2, 5)), ("bases", (2, 6)),
        ("resonance", (2, 5)), ("reduce", (3, 6)), ("resonance", (2, 6)),
        ("resonance", (3, 5)), ("bases", (3, 5)), ("bases", (3, 5)),
    ),
    "quadrature": (  # size is the starting node count of 2-D plane integrals
        ("hankel", None), ("plane-1d", None), ("segment", None), ("pair-const-q1", None),
        ("fourier", None), ("fourier-perturbed", None),
        ("pair-const", None), ("plane-2d", 64), ("pair-const", None), ("plane-2d", 64), ("pair-const", None),
        ("pair-exp", None), ("plane-2d-coupled", 64),
        ("plane-2d-fixed", 769), ("plane-2d-fixed", 769), ("plane-2d-fixed", 769),
    ),
}

WORKLOADS = tuple(ROUNDS)

_MAKERS = {
    "verify-int": _verify_op,
    "eval-grid": _eval_op,
    "structure": _structure_op,
    "quadrature": _quadrature_op,
}


def slot_name(cls: str, size) -> str:
    if size is None:
        return cls
    if isinstance(size, tuple):
        return f"{cls}{list(size)}".replace(" ", "")
    return f"{cls}[{size}]"


def make_round(workload: str, seed: int, round_no: int) -> list[dict]:
    rng = _rng(seed, workload, round_no)
    ops = []
    for cls, size in ROUNDS[workload]:
        op = _MAKERS[workload](rng, cls, size)
        op["class"] = slot_name(cls, size)
        ops.append(op)
    return ops


def make_pool(workload: str, seed: int, rounds: int) -> list[dict]:
    """Rounds 1..rounds of the workload; round 0 is kept for warm-up."""
    ops = []
    for k in range(1, rounds + 1):
        ops.extend(make_round(workload, seed, k))
    return ops


def make_warmup(workload: str, seed: int) -> list[dict]:
    return make_round(workload, seed, 0)
