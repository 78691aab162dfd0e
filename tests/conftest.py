import itertools

import numpy as np
import pytest

from sphere_ot import maps as maps_mod
from sphere_ot import measures as measures_mod
from sphere_ot import pipeline as pipe
from sphere_ot import solver as solver_mod
from sphere_ot.errors import ConfigError, DomainError
from sphere_ot.geometry import cost_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_measure(points, weights=None):
    """Measure on explicit atoms with unit cell areas (test convenience)."""
    points = np.asarray(points, dtype=float)
    count = len(points)
    if weights is None:
        weights = np.full(count, 1.0 / count)
    return measures_mod.DiscreteMeasure(
        points.shape[1] - 1, points, np.asarray(weights, dtype=float), np.ones(count)
    )


def warp(pts, shift=0.35):
    """Push-forward by the gradient of the convex function |y + shift e|:
    the identity pairing is provably optimal."""
    moved = pts + shift * np.eye(pts.shape[1])[-1]
    return moved / np.linalg.norm(moved, axis=1, keepdims=True)


def brute_force_oracle(mu, nu):
    """Exact optimum by enumerating all permutations (equal weights, N <= 8)."""
    n = mu.count
    if nu.count != n or n > 8:
        raise ConfigError("oracle requires equal atom counts with N <= 8")
    if not (
        np.allclose(mu.weights, 1.0 / n, rtol=0, atol=1e-12)
        and np.allclose(nu.weights, 1.0 / n, rtol=0, atol=1e-12)
    ):
        raise ConfigError("oracle requires equal weights 1/N on both sides")
    c = cost_matrix(mu.points, nu.points)
    perms = np.array(list(itertools.permutations(range(n))))
    costs = c[np.arange(n)[None, :], perms].sum(axis=1) / n
    best = perms[np.argmin(costs)]
    mass = np.full(n, 1.0 / n)
    return solver_mod.Coupling(np.arange(n), best, mass, float(costs.min()))


def vector_lemma_margin(us: np.ndarray, vs: np.ndarray):
    """Excess angle over a right angle and slack in |u + v| >= |u| cos(excess).

    Works over the rows u, v of us, vs and returns (alphas, margins), with
    alpha = max(0, angle(u, v) - pi/2), and 0 where v is zero; each margin
    is nonnegative up to roundoff whenever alpha < pi/2.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    nu_ = np.linalg.norm(us, axis=1)
    nv = np.linalg.norm(vs, axis=1)
    if np.any(nu_ == 0):
        raise DomainError("u rows must be nonzero")
    dots = np.einsum("ij,ij->i", us, vs)
    denom = np.where(nv > 0, nu_ * nv, 1.0)
    cosang = np.clip(dots / denom, -1.0, 1.0)
    angles = np.arccos(cosang)
    alphas = np.where(nv > 0, np.maximum(0.0, angles - np.pi / 2.0), 0.0)
    if np.any(alphas >= np.pi / 2.0):
        raise DomainError("antiparallel pair: excess angle reaches a right angle")
    margins = np.linalg.norm(us + vs, axis=1) - nu_ * np.cos(alphas)
    return alphas, margins


def brenier_potential(duals, nu, x, tie_tol=1e-8):
    """Correlation-form convex potential and its discrete subdifferential at x.

    Returns (value, argmax indices): value = max_j (x . y_j - phi_corr_j)
    with the correlation-form dual phi_corr_j = -phi_j / 2 (from
    c = 2 - 2 x.y), and every j within tie_tol of the maximum. For sources
    of a solved instance the argmax set contains all targets carrying
    coupling mass, and the value equals 1 - psi_i / 2 there.
    """
    scores = nu.points @ np.asarray(x, dtype=float) + duals.phi / 2.0
    value = float(scores.max())
    argmax = np.nonzero(scores >= value - tie_tol)[0]
    return value, argmax


def exact_exponent_fixture(alpha, count, seed=0):
    """Synthetic samples whose displacements obey |df| = |dx|^alpha exactly.

    Sample positions sit on a line, and values are the classical-MDS
    embedding of the alpha-snowflake metric |t_i - t_j|^alpha, which is of
    negative type for alpha <= 1, so every pairwise displacement matches
    the prescribed power law to machine precision. Oracle data for
    exponent-recovery tests.
    """
    if not 0 < alpha <= 1:
        raise ConfigError("exact power-law embeddings exist for 0 < alpha <= 1")
    rng = np.random.default_rng(seed)
    t = np.sort(rng.random(count))
    points = np.zeros((count, 3))
    points[:, 0] = t
    dmat = np.abs(t[:, None] - t[None, :]) ** alpha
    sq = dmat**2
    j = np.eye(count) - np.ones((count, count)) / count
    gram = -0.5 * j @ sq @ j
    w, v = np.linalg.eigh(gram)
    keep = w > 1e-12 * w.max()
    values = v[:, keep] * np.sqrt(w[keep])
    return points, values


def bivalent_family(count=40, seed=0):
    """Exact synthetic bivalent map data along a polar cap.

    Sources x(u) run down a meridian; inner images t_minus(u) vary smoothly
    on the far side, and the construction lam = -2 x . t_minus makes
    t_plus = t_minus + lam x a unit vector automatically, with zero
    collinearity residual. Returns a classified MultiMap.
    """
    us = np.linspace(0.05, 0.45, count)
    xs = np.column_stack([np.sin(us), np.zeros(count), np.cos(us)])
    base = np.column_stack([
        0.55 + 0.1 * np.sin(3 * us),
        0.1 * us,
        -0.8 * np.ones(count),
    ])
    tms = base / np.linalg.norm(base, axis=1, keepdims=True)
    lam = -2.0 * np.einsum("ij,ij->i", xs, tms)
    assert np.all(lam > 0)
    tps = tms + lam[:, None] * xs
    mm = maps_mod.MultiMap(
        side="source",
        n=2,
        points=xs,
        plus=tps,
        minus=tms,
        jump=lam,
        residual=np.zeros(count),
        bivalent=np.ones(count, dtype=bool),
        region=np.full(count, "S2", dtype="<U2"),
        own=np.repeat(np.arange(count), 2),
        other=np.repeat(np.arange(count), 2),
        inner=np.tile([False, True], count),
    )
    return mm


def images_of(coupling, i):
    """Indices and masses of the targets fed by source atom i."""
    sel = coupling.rows == i
    return coupling.cols[sel], coupling.mass[sel]


def sources_of(coupling, j):
    """Indices and masses of the sources feeding target atom j."""
    sel = coupling.cols == j
    return coupling.rows[sel], coupling.mass[sel]


def support_images(coupling, mu, nu, i):
    """Targets fed by source atom i as (index, point, mass), best aligned first."""
    cols, mass = images_of(coupling, i)
    order = np.argsort(-(nu.points[cols] @ mu.points[i]))
    return [(int(cols[k]), nu.points[cols[k]], float(mass[k])) for k in order]


def random_suitable_pair(n, count, rng, floor=0.3):
    """Random smooth positive densities sampled on a shared mesh."""
    mesh = measures_mod.quasi_uniform_mesh(n, count, int(rng.integers(1 << 30)))

    def bumps():
        centers = rng.normal(size=(3, n + 1))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        amps = rng.uniform(0.5, 2.0, size=3)
        powers = rng.integers(2, 6, size=3)

        def density(p):
            u = (1.0 + centers @ p) / 2.0
            return floor + float(amps @ u**powers)

        return density

    mu = measures_mod.sample_density(bumps(), mesh)
    nu = measures_mod.sample_density(bumps(), mesh)
    return mesh, mu, nu


@pytest.fixture(scope="session")
def bivalent_instance():
    """Solved sharp-cap vs uniform instance at test scale, with extraction."""
    mesh = measures_mod.quasi_uniform_mesh(2, 220, 0)
    mu = measures_mod.sample_density(pipe.builtin_density("cap:0.98", 2), mesh)
    nu = measures_mod.sample_density(lambda p: 1.0, mesh)
    coupling, duals = solver_mod.solve_exact(mu, nu)
    merge_tol, zero_tol, _ = pipe.run_scales(mu, nu)
    mm = maps_mod.extract_multimap(coupling, mu, nu, merge_tol, zero_tol)
    inv = maps_mod.invert_maps(coupling, mu, nu, merge_tol, zero_tol)
    return {
        "mesh": mesh, "mu": mu, "nu": nu,
        "coupling": coupling, "duals": duals, "mm": mm, "inv": inv,
    }
