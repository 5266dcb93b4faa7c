"""Acceptance suite: thirteen go/no-go criteria, one verdict line each.

Every criterion records a [PASS]/[FAIL] line (echoed in the terminal
summary by conftest) and then asserts.  Tolerances here are contract
values; do not tighten or loosen them to match behaviour.
"""

import itertools
import json
import math

import numpy as np
import scipy.special as sp

import conftest

from ggsys.cli import main
from ggsys.contour import (
    ContourSpec,
    euler_segment_integral,
    hankel_integral,
    shifted_plane_integral,
)
from ggsys.distributions import (
    fourier_consistency_check,
    gamma_minus_pair,
    gamma_plus_pair,
    gg_distribution_pair,
    smooth_bump,
)
from ggsys.lattice import (
    elementary_divisors,
    hermite_normal_form,
    lattice_quotient,
    orthogonal_lattice,
    project_lattice,
)
from ggsys.model import build_reduced_system, enumerate_bases, select_base, vector_set
from ggsys.resonance import analyze_vector, candidate_consistent_vectors, check_extra_relation, grassmannian_set
from ggsys.series import (
    SeriesSpec,
    convergence_condition,
    elementary_solution_full,
    gauss_series_eval,
    gg_series_eval,
    monomial_solution_zero,
    reduced_series_eval,
    twist_scaling,
)
from ggsys.verify import (
    check_def2_system,
    check_gauss_ode,
    check_gauss_relations,
    check_reduced_system,
    solution_family_rank,
)

A_G = vector_set([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
R_G = build_reduced_system(select_base(A_G, (1, 2, 3)))
A_PM = vector_set([(1,), (-1,)])
R_PM = build_reduced_system(select_base(A_PM, (1,)))
TWO_PI_I = 2j * np.pi


def _verdict(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] acceptance {num:02d} {name}: {detail}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


def test_01_gauss_closed_form():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        radius = 0.05 + 0.45 * rng.uniform()
        x = radius * np.exp(2j * np.pi * rng.uniform())
        got = gauss_series_eval(1, 1, 2, x, M=60).value
        want = -np.log(1 - x) / x
        worst = max(worst, abs(got - want) / abs(want))
    _verdict(1, "gauss closed form", worst <= 1e-10,
             f"max rel err {worst:.3e} over 50 points (tol 1e-10)")


def test_02_gauss_relations_and_ode():
    reports = check_gauss_relations(samples=100, seed=0, tolerance=1e-9)
    rel_worst = max(rep.max_rel_residual for rep in reports)
    rel_ok = all(rep.passed for rep in reports)

    rng = np.random.default_rng(0)
    ode_worst = 0.0
    for i in range(10):
        a, b, c = rng.uniform(0.5, 1.5, 3)
        rep = check_gauss_ode(a, b, c, samples=10, seed=i, tolerance=1e-8)
        ode_worst = max(ode_worst, rep.max_rel_residual)
    ok = rel_ok and ode_worst <= 1e-8
    _verdict(2, "gauss relations and ode", ok,
             f"relations worst {rel_worst:.3e} (tol 1e-9), ode worst {ode_worst:.3e} (tol 1e-8)")


def _random_spanning_system(rng):
    n = int(rng.integers(1, 4))
    N = int(rng.integers(n, 7))
    A = vector_set(rng.uniform(-1.5, 1.5, size=(N, n)))
    bases = enumerate_bases(A)
    if not bases:
        return None
    system = build_reduced_system(bases[0])
    if not all(convergence_condition(system).holds):
        return None
    return system


def test_03_reduced_exactness_random_sets():
    rng = np.random.default_rng(0)
    found, worst = 0, 0.0
    for _ in range(400):
        if found == 10:
            break
        system = _random_spanning_system(rng)
        if system is None:
            continue

        spec = SeriesSpec(system, (0,) * len(system.base.I), 18)
        r1, r2 = check_reduced_system(spec, system, samples=20, seed=found, tolerance=1e-10, x_bound=0.3)
        worst = max(worst, r1.max_rel_residual, r2.max_rel_residual)
        found += 1
    ok = found == 10 and worst <= 1e-10
    _verdict(3, "reduced-system exactness", ok,
             f"{found}/10 sets, worst term-wise rel residual {worst:.3e} (tol 1e-10)")


def test_04_linking_and_twist_identities():
    rng = np.random.default_rng(0)
    worst_link = 0.0
    for _ in range(10):
        a = rng.uniform(0.5, 1.5, 4)
        a[3] *= 0.15
        beta = rng.uniform(-0.9, 0.9, 3)
        spec_full = SeriesSpec(R_G, (0, 0, 0), 30)
        full = gg_series_eval(spec_full, beta, a).value
        red = reduced_series_eval(SeriesSpec(R_G, (0, 0, 0), 30), beta, R_G.x_from_a(a)).value
        prefactor = np.prod(a[:3] ** R_G.base.coords(beta))
        worst_link = max(worst_link, abs(full - prefactor * red) / abs(full))

    beta = np.array([0.37, -0.21, 0.83])
    x = np.array([0.3])
    worst_twist = 0.0
    twists = [(0, 0, 0)] + [
        tuple(s * row) for s in (1, -1) for row in np.eye(3, dtype=int)
    ]
    for k in twists:
        twisted = reduced_series_eval(SeriesSpec(R_G, k, 30), beta, x).value
        plain = reduced_series_eval(SeriesSpec(R_G, (0, 0, 0), 30), beta, twist_scaling(R_G, k) * x).value
        phase = np.exp(2j * np.pi * np.dot(k, R_G.base.coords(beta)))
        worst_twist = max(worst_twist, abs(twisted - phase * plain) / abs(twisted))
    ok = worst_link <= 1e-12 and worst_twist <= 1e-12
    _verdict(4, "linking and twist identities", ok,
             f"linking worst {worst_link:.3e}, twist worst {worst_twist:.3e} (tol 1e-12)")


def test_05_hankel_loop_integral():
    spec = ContourSpec(tolerance=1e-10)
    series_spec = SeriesSpec(R_PM, (0,), 60)
    worst_series = 0.0
    for beta in (0.0, 0.5, 1 + 0.3j):
        for x in (0.5, -0.3, 0.35j, 0.2 - 0.4j):
            got = hankel_integral(A_PM, 1, beta, [x], spec).value
            want = TWO_PI_I * reduced_series_eval(series_spec, [beta], [x]).value
            worst_series = max(worst_series, abs(got - want) / abs(want))
    worst_origin = 0.0
    for beta in (0.0, 0.5, 1 + 0.3j):
        got = hankel_integral(A_PM, 1, beta, [0.0], spec).value
        want = TWO_PI_I * sp.rgamma(beta + 1)
        worst_origin = max(worst_origin, abs(got - want) / abs(want))
    ok = worst_series <= 1e-6 and worst_origin <= 1e-8
    _verdict(5, "hankel loop integral", ok,
             f"series worst {worst_series:.3e} (tol 1e-6), origin worst {worst_origin:.3e} (tol 1e-8)")


def test_06_shifted_plane_integral():
    coarse = ContourSpec(nodes=257, cutoff=24.0, adaptive=False)
    fine = ContourSpec(nodes=513, cutoff=48.0, adaptive=False)
    a = shifted_plane_integral(A_PM, (1,), (0,), [0.7], [0.3], coarse)
    b = shifted_plane_integral(A_PM, (1,), (0,), [0.7], [0.3], fine)
    refine_rel = abs(a.value - b.value) / abs(b.value)

    spec = ContourSpec(tolerance=1e-12)

    def F(beta, x):
        return shifted_plane_integral(A_PM, (1,), (0,), [beta], [x], spec).value

    beta, x, h = 0.7, 0.3, 1e-5
    deriv = (F(beta, x + h) - F(beta, x - h)) / (2 * h)
    shifted = F(beta + 1.0, x)  # the off-base shift: beta - omega^2 = beta + 1
    fd_rel = abs(deriv - shifted) / max(abs(shifted), 1.0)
    ok = refine_rel <= 1e-6 and fd_rel <= 1e-6
    _verdict(6, "shifted plane integral", ok,
             f"refinement {refine_rel:.3e}, shift-equation fd {fd_rel:.3e} (tol 1e-6)")


def test_07_euler_segment_integral():
    A = vector_set([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)])
    spec = ContourSpec(tolerance=1e-12, max_refinements=14)
    got = euler_segment_integral(A, (1, 2), [-0.5, -0.7], [0.0], spec).value
    want = sp.beta(0.5, 0.7) * sp.rgamma(-0.2)
    beta_rel = abs(got - want) / abs(want)

    system = build_reduced_system(select_base(A, (1, 2)))
    tight = ContourSpec(tolerance=1e-13, max_refinements=14)

    def F(beta, x):
        return euler_segment_integral(A, (1, 2), beta, x, tight).value

    beta = np.array([-0.6, -0.8])
    points = [(beta, [0.1]), (beta, [0.1j]), (beta, [-0.06 + 0.08j])]
    base_rep, off_rep = check_reduced_system(F, system, tolerance=1e-6, points=points)
    worst = max(base_rep.max_rel_residual, off_rep.max_rel_residual)
    ok = beta_rel <= 1e-7 and base_rep.passed and off_rep.passed
    _verdict(7, "euler segment integral", ok,
             f"beta oracle {beta_rel:.3e} (tol 1e-7), reduced residual {worst:.3e} (tol 1e-6)")


def _coset_reducer(H):
    def reduce_point(x):
        x = list(x)
        for i in range(len(H)):
            q = x[i] // H[i][i]
            x = [a - q * b for a, b in zip(x, H[i])]
        return tuple(x)

    return reduce_point


def test_08_lattice_quotients_and_snf():
    latg = orthogonal_lattice(A_G)
    q1 = lattice_quotient(latg, (1, 2, 3))
    lat12 = orthogonal_lattice(vector_set([(1,), (2,)]))
    q2 = lattice_quotient(lat12, (2,))

    def brute_count(lat, labels):
        proj = project_lattice(lat, labels)
        H = [list(r) for r in proj.basis_rows]
        reduce_point = _coset_reducer(H)
        side = 2 * max(max(r) for r in H) + 1
        return len({reduce_point(p) for p in itertools.product(range(side), repeat=len(H))})

    orders_ok = (
        q1.order == 1 == brute_count(latg, (1, 2, 3))
        and q2.order == 2 == brute_count(lat12, (2,))
    )

    rng = np.random.default_rng(0)
    checked = 0
    snf_ok = True
    while checked < 20:
        n = int(rng.integers(1, 4))
        M = rng.integers(-4, 5, size=(n, n)).tolist()
        det = round(np.linalg.det(np.array(M, dtype=float)))
        if det == 0 or abs(det) > 64:
            continue
        divisors = elementary_divisors(M)
        H = hermite_normal_form(M)
        reduce_point = _coset_reducer(H)
        reps = [
            p for p in itertools.product(*[range(H[i][i]) for i in range(n)])
        ]
        order = 1
        for d in divisors:
            order *= d
        snf_ok &= order == abs(det) == len(reps)
        snf_ok &= all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
        # box enumeration of the torsion profile: the number of cosets
        # killed by d must be the product of gcd(d_i, d)
        for d in divisors:
            killed = sum(
                1 for g in reps
                if all(v == 0 for v in reduce_point([d * c for c in g]))
            )
            expected = 1
            for di in divisors:
                expected *= math.gcd(di, d)
            snf_ok &= killed == expected
        checked += 1
    ok = orders_ok and snf_ok
    _verdict(8, "lattice quotients and snf", ok,
             f"orders {q1.order}/{q2.order}, 20 random matrices vs box enumeration")


def test_09_solution_family_rank():
    family = [((1, 2, 3), (0, 0, 0)), ((1, 2, 4), (0, 0, 0))]
    result = solution_family_rank(A_G, family, samples=10, seed=17, tolerance=1e-8)
    ok = result.rank == 2 and result.report.passed
    _verdict(9, "solution family rank", ok,
             f"rank {result.rank} (want 2), member residual {result.report.max_rel_residual:.3e} (tol 1e-8)")


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


def test_10_resonance_extra_relation():
    G = grassmannian_set(2, 3)
    v12 = G.from_ambient(np.array([0, 0, 0, -1.0, 1.0]))
    an = analyze_vector(G.vectors, v12)
    f = _grassmann_evaluator(G)
    on_plane = check_extra_relation(
        f, G.vectors, an, samples=4, seed=3, tolerance=1e-8,
        argument_sampler=_small_tail_sampler,
    )
    off_plane = check_extra_relation(
        f, G.vectors, an, samples=4, seed=3, tolerance=1e-8,
        plane_offset=0.5, argument_sampler=_small_tail_sampler,
    )

    rng = np.random.default_rng(0)
    generic_clean = 0
    for _ in range(10):
        n = int(rng.integers(2, 4))
        N = n + int(rng.integers(1, 4))
        A = vector_set(rng.normal(size=(N, n)))
        if not candidate_consistent_vectors(A):
            generic_clean += 1
    ok = on_plane.passed and off_plane.max_rel_residual >= 1e-3 and generic_clean == 10
    _verdict(10, "resonance extra relation", ok,
             f"on-plane {on_plane.max_rel_residual:.3e} (tol 1e-8), "
             f"control {off_plane.max_rel_residual:.3e} (>= 1e-3), generic clean {generic_clean}/10")


def test_11_distribution_pairings():
    minus = gamma_minus_pair(lambda s: 1.0).value
    plus = gamma_plus_pair(lambda s: 1.0).value
    const_err = max(abs(minus - np.e), abs(plus - np.exp(-1)))

    exp_err = 0.0
    for x in (1.0, 0.3, -0.2 + 0.1j):
        got = gg_distribution_pair([[1.0]], [x], lambda s: 1.0).value
        want = np.exp(x + 1)
        exp_err = max(exp_err, abs(got - want) / abs(want))

    func_err = 0.0
    for k in range(5):
        for c in (0.3, -0.4, 0.8j, 1.1):
            phi = lambda s, k=k, c=c: s**k * np.exp(c * s)
            p_shift = gamma_plus_pair(lambda s, f=phi: f(s - 1)).value
            p_mult = gamma_plus_pair(lambda s, f=phi: s * f(s)).value
            m_shift = gamma_minus_pair(lambda s, f=phi: f(s + 1)).value
            m_mult = gamma_minus_pair(lambda s, f=phi: s * f(s)).value
            func_err = max(
                func_err,
                abs(p_shift - p_mult) / max(1.0, abs(p_mult)),
                abs(m_shift - m_mult) / max(1.0, abs(m_mult)),
            )

    fourier_ok = all(
        fourier_consistency_check(1.0, x, smooth_bump(3.0), tolerance=1e-4).passed
        for x in (0.0, 0.3)
    )
    ok = const_err <= 1e-12 and exp_err <= 1e-10 and func_err <= 1e-10 and fourier_ok
    _verdict(11, "distribution pairings", ok,
             f"constants {const_err:.3e} (tol 1e-12), exp {exp_err:.3e} (tol 1e-10), "
             f"relations {func_err:.3e} (tol 1e-10), fourier {'ok' if fourier_ok else 'failed'} (tol 1e-4)")


def test_12_trivial_solutions():
    def F1(gamma, a):
        return elementary_solution_full(a)

    def dF1(gamma, a, i):
        return elementary_solution_full(a)

    reports1 = check_def2_system(F1, 4, np.eye(4), samples=15, seed=2, derivative=dF1)

    def F2(gamma, a):
        return monomial_solution_zero(gamma, a)

    def dF2(gamma, a, i):
        return gamma[i - 1] / a[i - 1] * monomial_solution_zero(gamma, a)

    reports2 = check_def2_system(F2, 3, [], samples=15, seed=2, derivative=dF2)
    worst = max(rep.max_rel_residual for rep in reports1 + reports2)
    _verdict(12, "trivial solutions", worst <= 1e-12,
             f"worst residual {worst:.3e} over both families (tol 1e-12)")


def test_13_cli_determinism(tmp_path):
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    code1 = main(["--config", "gauss.json", "--quiet", "--out", str(first)])
    code2 = main(["--config", "gauss.json", "--quiet", "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    passed = json.loads(first.read_text())["passed"]
    ok = code1 == 0 and code2 == 0 and identical and passed
    _verdict(13, "cli determinism", ok,
             f"exit codes {code1}/{code2}, byte-identical {identical}, verify passed {passed}")
