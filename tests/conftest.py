import numpy as np
import pytest

from sphere_ot import maps as maps_mod
from sphere_ot import measures as measures_mod
from sphere_ot import pipeline as pipe
from sphere_ot import solver as solver_mod


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
        plus_members=[np.array([i]) for i in range(count)],
        minus_members=[np.array([i]) for i in range(count)],
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
    nu = measures_mod.uniform_measure(mesh)
    coupling, duals = solver_mod.solve_exact(mu, nu)
    mm = maps_mod.extract_multimap(coupling, mu, nu, 2.0 * mesh.spacing, mesh.spacing)
    inv = maps_mod.invert_maps(coupling, mu, nu, 2.0 * mesh.spacing, mesh.spacing)
    return {
        "mesh": mesh, "mu": mu, "nu": nu,
        "coupling": coupling, "duals": duals, "mm": mm, "inv": inv,
    }
