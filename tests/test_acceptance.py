"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Heavy solves are shared
between criteria through module-scoped fixtures that record their own
build time, so the per-criterion runtime bounds include solve time.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    bivalent_family, brute_force_oracle, exact_exponent_fixture, make_measure, random_suitable_pair,
    vector_lemma_margin, warp,
)
import sphere_cost as sc
from sphere_ot import geometry as g
from sphere_ot import maps as mp
from sphere_ot import measures as me
from sphere_ot import pipeline as pipe
from sphere_ot import regularity as rg
from sphere_ot import solver as so

TOL_COST = 1e-9
TOL_CYCLICAL = 1e-9


def report(criterion, passed, detail):
    line = f"[criterion {criterion:>2}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def extract(mu, nu, coupling):
    merge_tol, zero_tol, _ = pipe.run_scales(mu, nu)
    mm = mp.extract_multimap(coupling, mu, nu, merge_tol, zero_tol)
    inv = mp.invert_maps(coupling, mu, nu, merge_tol, zero_tol)
    return mm, inv


@pytest.fixture(scope="module")
def identity_500():
    t0 = time.monotonic()
    mesh = me.quasi_uniform_mesh(2, 500, 0)
    mu = me.sample_density(lambda p: 1.0, mesh)
    nu = me.sample_density(lambda p: 1.0, mesh)
    coupling, duals = so.solve_exact(mu, nu)
    mm, inv = extract(mu, nu, coupling)
    return {"mesh": mesh, "mu": mu, "nu": nu, "coupling": coupling,
            "mm": mm, "inv": inv, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def bivalent_1000():
    t0 = time.monotonic()
    mesh = me.quasi_uniform_mesh(2, 1000, 0)
    mu = me.sample_density(pipe.builtin_density("cap:0.98", 2), mesh)
    nu = me.sample_density(lambda p: 1.0, mesh)
    coupling, duals = so.solve_exact(mu, nu)
    mm, inv = extract(mu, nu, coupling)
    return {"mesh": mesh, "mu": mu, "nu": nu, "coupling": coupling,
            "mm": mm, "inv": inv, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def suitable_solves():
    """20 random suitable pairs over n in {1, 2, 3}, sizes up to 200x200."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    plan = [(1, 200), (2, 200), (3, 150)]
    plan += [(1, int(rng.integers(80, 200))) for _ in range(6)]
    plan += [(2, int(rng.integers(100, 200))) for _ in range(6)]
    plan += [(3, int(rng.integers(60, 150))) for _ in range(5)]
    instances = []
    for n, count in plan:
        mesh, mu, nu = random_suitable_pair(n, count, rng)
        eps = 0.01 / me.sphere_area(n)
        for cert in (me.check_suitable(mu, nu, eps), me.check_suitable(nu, mu, eps)):
            assert cert.upper_ok and cert.lower_ok
        coupling, duals = so.solve_exact(mu, nu)
        mm, inv = extract(mu, nu, coupling)
        instances.append({"n": n, "mesh": mesh, "mu": mu, "nu": nu,
                          "coupling": coupling, "mm": mm, "inv": inv})
    return {"instances": instances, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def warped_2000():
    """Uniform atoms against their push-forward under a gradient map.

    The target atoms are the mesh points moved by T(x) = (x+se)/|x+se|,
    the gradient of the convex function |y + se|, so the identity pairing
    is optimal and the solved outer map is smooth and fully univalent.
    """
    t0 = time.monotonic()
    mesh = me.quasi_uniform_mesh(2, 2000, 0)
    mu, nu = make_measure(mesh.points), make_measure(warp(mesh.points))
    coupling, duals = so.solve_exact(mu, nu)
    mm, inv = extract(mu, nu, coupling)
    return {"mesh": mesh, "mu": mu, "nu": nu, "coupling": coupling,
            "mm": mm, "inv": inv, "elapsed": time.monotonic() - t0}


def all_extracted(identity_500, bivalent_1000, warped_2000, suitable_solves):
    yield identity_500
    yield bivalent_1000
    yield warped_2000
    yield from suitable_solves["instances"]


def test_criterion_01_oracle_equivalence(rng):
    t0 = time.monotonic()
    worst = 0.0
    for k in range(50):
        n_atoms = 2 + k % 7
        mu = make_measure(g.random_sphere_points(2, n_atoms, rng))
        nu = make_measure(g.random_sphere_points(2, n_atoms, rng))
        exact_cost = so.solve_exact(mu, nu)[0].total_cost
        oracle_cost = brute_force_oracle(mu, nu).total_cost
        worst = max(worst, abs(exact_cost - oracle_cost))
    elapsed = time.monotonic() - t0
    report(1, worst <= TOL_COST and elapsed < 10.0,
           f"exact vs enumeration cost gap {worst:.2e} <= 1e-9 over 50 instances "
           f"({elapsed:.1f}s < 10s)")


def test_criterion_02_cyclical_monotonicity(suitable_solves):
    worst = 0.0
    for inst in suitable_solves["instances"]:
        v = so.cyclical_monotonicity_violation(inst["coupling"], inst["mu"], inst["nu"])
        worst = max(worst, v)
    elapsed = suitable_solves["elapsed"]
    report(2, worst <= TOL_CYCLICAL and elapsed < 120.0,
           f"worst improving-swap gain {worst:.2e} <= 1e-9 over "
           f"{len(suitable_solves['instances'])} suitable instances ({elapsed:.1f}s < 120s)")


def test_criterion_03_identity_case(identity_500):
    coupling = identity_500["coupling"]
    mm = identity_500["mm"]
    diagonal = np.array_equal(coupling.rows, coupling.cols)
    cost_ok = coupling.total_cost <= 1e-10
    all_s1 = bool(np.all(mm.region == "S1"))
    dots = np.einsum("ij,ij->i", mm.points, mm.plus)
    aligned = bool(np.allclose(dots, 1.0, atol=1e-12))
    report(3, diagonal and cost_ok and all_s1 and aligned,
           f"diagonal coupling, cost {coupling.total_cost:.2e} <= 1e-10, "
           f"{int((mm.region == 'S1').sum())}/500 atoms S1 with unit alignment")


def test_criterion_04_bivalence_geometry(bivalent_1000):
    mm = bivalent_1000["mm"]
    inv = bivalent_1000["inv"]
    s2 = mm.indices_in("S2")
    assert len(s2) > 0, "instance must exhibit bivalent atoms"
    dots_plus = np.einsum("ij,ij->i", mm.points[s2], mm.plus[s2])
    dots_minus = np.einsum("ij,ij->i", mm.points[s2], mm.minus[s2])
    lam_ok = bool(np.all(mm.jump[s2] > 0))
    signs_ok = bool(np.all(dots_plus > 0) and np.all(dots_minus < 0))
    collin = float(np.max(mm.residual[s2] / mm.jump[s2]))
    in_s2 = mm.region[mm.own] == "S2"
    outer = sorted(set(mm.other[in_s2 & ~mm.inner].tolist()))
    inner = set(mm.other[in_s2 & mm.inner].tolist())
    landing_t1 = all(inv.region[j] == "T1" for j in outer)
    disjoint = not (set(outer) & inner)
    report(4, lam_ok and signs_ok and collin <= 0.1 and landing_t1 and disjoint,
           f"{len(s2)} bivalent atoms: jumps positive, signs correct, "
           f"worst collinearity ratio {collin:.3f} <= 0.1, all {len(outer)} outer "
           f"images in T1, outer/inner image sets disjoint")


def test_criterion_05_lambda_bound(identity_500, bivalent_1000, warped_2000, suitable_solves):
    worst = -np.inf
    total = 0
    for inst in all_extracted(identity_500, bivalent_1000, warped_2000, suitable_solves):
        worst = max(worst, float(inst["mm"].jump.max()))
        total += inst["mm"].count
    report(5, worst <= 2.0 + 1e-9,
           f"max normal jump {worst:.6f} <= 2 + 1e-9 over {total} atoms in "
           f"{3 + len(suitable_solves['instances'])} instances")


def test_criterion_06_inverse_monotonicity(identity_500, bivalent_1000, warped_2000,
                                           suitable_solves):
    worst = np.inf
    regions = 0
    for inst in all_extracted(identity_500, bivalent_1000, warped_2000, suitable_solves):
        t2 = inst["inv"].indices_in("T2")
        if len(t2) < 2:
            continue
        worst = min(worst, rg.monotonicity_check(inst["inv"], t2))
        regions += 1
    assert regions > 0, "at least one instance must have a bivalent target region"
    report(6, worst >= -1e-9,
           f"min inverse-map monotonicity dot {worst:.2e} >= -1e-9 over "
           f"{regions} bivalent target regions")


def test_criterion_07_vector_margin_suite(rng):
    worst = np.inf
    for dim in (2, 3, 4):
        us = rng.normal(size=(100_000, dim))
        vs = rng.normal(size=(100_000, dim))
        keep = np.linalg.norm(us, axis=1) > 1e-9
        _, margins = vector_lemma_margin(us[keep], vs[keep])
        worst = min(worst, float(margins.min()))
    report(7, worst >= -1e-12,
           f"min excess-angle margin {worst:.2e} >= -1e-12 over 3x100000 random pairs")


def test_criterion_08_angle_bound(bivalent_1000, suitable_solves):
    checked = 0
    ok = True
    for inst in [bivalent_1000] + suitable_solves["instances"]:
        inv = inst["inv"]
        t2 = inv.indices_in("T2")
        for center in t2:
            rep = rg.dichotomy_probe(inv, int(center))
            ok = ok and rep.gamma_bound_ok
            checked += len(rep.others)
    assert checked > 0
    report(8, ok,
           f"weighted-normal angle stays below (pi - gamma)/2 + 1e-9 on "
           f"{checked} bivalent target pairs")


def test_criterion_09_exponent_consistency(warped_2000):
    mm = warped_2000["mm"]
    s1 = mm.interior_s1()
    window = rg.scale_window(me.median_spacing(mm.points[s1]))
    fit = rg.holder_fit(mm.points[s1], mm.plus[s1], window, region="S1")
    target = 1.0 / 7.0 - 0.05
    elapsed = warped_2000["elapsed"]
    report(9, fit.alpha_hat >= target and elapsed < 300.0,
           f"outer-map exponent estimate {fit.alpha_hat:.3f} >= 1/7 - 0.05 on "
           f"{len(s1)} interior univalent atoms at mesh 2000 ({elapsed:.1f}s < 300s)")


def test_criterion_10_constant_formulas(bivalent_1000):
    consts = rg.RegionConstants.from_holder(0.5, 3.0, rg.holder_exponent(2))
    formulas_ok = consts.C_minus_statement == 15.0 and consts.C_minus_proof == 25.0

    ratios = []
    family = bivalent_family(40)
    consts = rg.region_constants(family, np.arange(40), (0.01, 0.5))
    ratios.append(rg.t_minus_bound_check(family, np.arange(40), (0.01, 0.5), consts))
    mm = bivalent_1000["mm"]
    usable = mm.usable_s2()
    window = rg.scale_window(me.median_spacing(mm.points))
    consts = rg.region_constants(mm, usable, window)
    ratios.append(rg.t_minus_bound_check(mm, usable, window, consts))
    worst = max(ratios)
    report(10, formulas_ok and worst <= 1.0,
           f"constants (k=0.5, C=3) -> 15 and 25 exactly; inner-map bound ratio "
           f"{worst:.3f} <= 1 on {len(ratios)} bivalent fixtures")


def test_criterion_11_mtw_suite(rng):
    t0 = time.monotonic()
    x = g.random_sphere_points(2, 1, rng)[0]
    chart = sc.Chart(x)
    ys = np.array([sc.chart_lift(chart, 0.8 * rng.uniform(-1, 1, 2) / math.sqrt(2))
                   for _ in range(10)])
    twist_ok = abs(sc.twist_margin(x, ys) - 2.0) <= 1e-10

    coincidence_ok = True
    decay_ok = True
    for n in (1, 2, 3):
        xn = g.random_sphere_points(n, 1, rng)[0]
        det0 = abs(np.linalg.det(sc.cross_derivative_frame(xn, xn)))
        coincidence_ok = coincidence_ok and abs(det0 - 2.0**n) <= 0.01 * 2.0**n
        profile = sc.nondegeneracy_profile(xn, np.deg2rad([10, 30, 50, 70, 85]))
        dets = [d for _, d in profile]
        decay_ok = decay_ok and all(a > b for a, b in zip(dets, dets[1:]))

    worst_curv = np.inf
    count = 0
    while count < 1000:
        xc = g.random_sphere_points(2, 1, rng)[0]
        d = sc.tangent_frame(xc)[0]
        dot = float(rng.uniform(0.3, 0.999))
        yc = sc.geodesic_step(xc, d, math.acos(dot))
        p, pbar = sc.random_null_pair(xc, yc, rng)
        worst_curv = min(worst_curv, sc.cross_curvature(xc, yc, p, pbar, h=1e-3))
        count += 1
    curv_ok = worst_curv > 0

    witness_ok = True
    for _ in range(20):
        x0 = g.random_sphere_points(2, 1, rng)[0]
        ch = sc.Chart(x0)
        c0 = 0.8 * rng.uniform(-1, 1, 2) / math.sqrt(2)
        c1 = 0.8 * rng.uniform(-1, 1, 2) / math.sqrt(2)
        theta = float(rng.uniform(0, 1))
        w = sc.biconvexity_witness(x0, sc.chart_lift(ch, c0), sc.chart_lift(ch, c1), theta)
        image = sc.cost_gradient_image(x0, w)
        witness_ok = witness_ok and np.max(
            np.abs(image - (theta * 2 * c1 + (1 - theta) * 2 * c0))
        ) <= 1e-10
    elapsed = time.monotonic() - t0
    report(11, twist_ok and coincidence_ok and decay_ok and curv_ok and witness_ok
           and elapsed < 120.0,
           f"twist ratio 2 +- 1e-10; determinant 2^n +-1% at coincidence with strict "
           f"decay (n=1,2,3); min cross-curvature {worst_curv:.3f} > 0 on 1000 null "
           f"pairs; witness linearity <= 1e-10 ({elapsed:.1f}s < 120s)")


def test_criterion_12_synthetic_exponents():
    from scipy.spatial.distance import pdist

    worst = 0.0
    for alpha in (0.25, 0.5, 1.0):
        points, values = exact_exponent_fixture(alpha, 80, seed=7)
        r = pdist(points)
        window = (float(np.quantile(r, 0.05)), float(np.quantile(r, 0.95)))
        fit = rg.holder_fit(points, values, window=window)
        worst = max(worst, abs(fit.alpha_hat - alpha))
    report(12, worst <= 0.02,
           f"synthetic exponents 0.25/0.5/1.0 recovered within {worst:.2e} <= 0.02")
