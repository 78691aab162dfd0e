"""Quasi-uniform sphere meshes and discrete probability measures on them.

A mesh carries one quadrature cell area per point, so a weighted atom list
has a discrete density estimate weight/area that can be checked against
two-sided bounds: the source bounded above and the target bounded below by
a multiple of the surface measure. That check is what "suitable at this
resolution" means here.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import SphericalVoronoi, cKDTree

from .errors import ConfigError, DomainError
from .geometry import normalize, sphere_area

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_MC_AREA_SAMPLES = 200_000


def median_spacing(points: np.ndarray) -> float:
    """Median distance from each point to its nearest neighbour."""
    dists, _ = cKDTree(points).query(points, k=2)
    return float(np.median(dists[:, 1]))


@dataclass
class SphereMesh:
    """Point set on S^n with per-point quadrature cell areas."""

    n: int
    points: np.ndarray        # (count, n+1) unit vectors
    cell_areas: np.ndarray    # (count,) positive, summing to area(S^n)

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def spacing(self) -> float:
        """Median nearest-neighbour distance; the resolution scale of the mesh."""
        return median_spacing(self.points)

    def validate(self) -> None:
        # written as not (err <= tol) so that a NaN fails each test
        norms = np.linalg.norm(self.points, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= 1e-10:
            raise DomainError("mesh points must be unit vectors")
        if not np.all(self.cell_areas > 0):
            raise DomainError("cell areas must be positive")
        total = float(self.cell_areas.sum())
        if not abs(total - sphere_area(self.n)) <= 0.01 * sphere_area(self.n):
            raise DomainError(f"cell areas sum to {total}, expected {sphere_area(self.n)}")


def _circle_mesh(count: int, seed: int) -> SphereMesh:
    offset = (seed % 997) * 2.0 * math.pi / 997.0
    theta = offset + 2.0 * math.pi * np.arange(count) / count
    points = np.column_stack([np.cos(theta), np.sin(theta)])
    areas = np.full(count, 2.0 * math.pi / count)
    return SphereMesh(1, points, areas)


def _fibonacci_mesh(count: int, seed: int) -> SphereMesh:
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = GOLDEN_ANGLE * i
    r = np.sqrt(1.0 - z * z)
    points = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    # Seeded random rotation so different seeds give genuinely different meshes.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    points = points @ q.T
    sv = SphericalVoronoi(points, radius=1.0)
    areas = sv.calculate_areas()
    return SphereMesh(2, points, areas)


def _relaxed_random_mesh(n: int, count: int, seed: int) -> SphereMesh:
    rng = np.random.default_rng(seed)
    points = normalize(rng.normal(size=(count, n + 1)))
    # Short repulsion relaxation: push each point away from its nearest
    # neighbours, renormalize. Enough to remove clumps, not to optimize.
    for _ in range(40):
        tree = cKDTree(points)
        k = min(4, count)
        dists, idx = tree.query(points, k=k)
        step = np.zeros_like(points)
        for j in range(1, k):
            diff = points - points[idx[:, j]]
            d = np.maximum(dists[:, j], 1e-9)[:, None]
            step += diff / d**3
        scale = 0.02 * (count ** (-1.0 / n))
        norms = np.maximum(np.linalg.norm(step, axis=1, keepdims=True), 1e-12)
        points = normalize(points + scale * step / norms)
    # Monte-Carlo cell areas: fraction of uniform samples nearest to each point.
    samples = normalize(rng.normal(size=(_MC_AREA_SAMPLES, n + 1)))
    tree = cKDTree(points)
    _, owner = tree.query(samples, k=1)
    counts = np.bincount(owner, minlength=count).astype(float)
    if np.any(counts == 0):
        counts += 0.5  # keep every cell area positive
    areas = counts / counts.sum() * sphere_area(n)
    return SphereMesh(n, points, areas)


def quasi_uniform_mesh(n: int, count: int, seed: int = 0) -> SphereMesh:
    """Deterministic seeded point set on S^n with near-equal cell areas.

    n=1 uses equal spacing on the circle, n=2 a rotated Fibonacci spiral
    with spherical-Voronoi cell areas, and n>=3 repulsion-relaxed random
    points with Monte-Carlo cell areas.
    """
    if n < 1:
        raise ConfigError("sphere dimension must be >= 1")
    if count < n + 2:
        raise ConfigError(f"need at least {n + 2} mesh points on S^{n}, got {count}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n == 1:
        return _circle_mesh(count, seed)
    if n == 2:
        return _fibonacci_mesh(count, seed)
    return _relaxed_random_mesh(n, count, seed)


@dataclass
class DiscreteMeasure:
    """Weighted atoms on S^n; probability measures have mass 1.

    Restrictions produced by region splits keep their unnormalized weights,
    with the remaining mass available as .mass.
    """

    n: int
    points: np.ndarray       # (count, n+1)
    weights: np.ndarray      # (count,) nonnegative
    cell_areas: np.ndarray   # (count,) positive

    @property
    def count(self) -> int:
        return len(self.weights)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def density_estimates(self) -> np.ndarray:
        """Discrete density against the surface measure: weight / cell area."""
        return self.weights / self.cell_areas

    def validate(self) -> None:
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0)):
            raise DomainError("weights must be finite and nonnegative")
        if not np.all(np.isfinite(self.cell_areas) & (self.cell_areas > 0)):
            raise DomainError("cell areas must be finite and positive")
        if not abs(self.mass - 1.0) <= 1e-10:
            raise DomainError(f"total mass is {self.mass}, expected 1")

    def restrict(self, indices: np.ndarray) -> "DiscreteMeasure":
        """Sub-measure carried by the given atoms (weights not renormalized)."""
        return DiscreteMeasure(
            self.n, self.points[indices], self.weights[indices], self.cell_areas[indices]
        )


def sample_density(density, mesh: SphereMesh) -> DiscreteMeasure:
    """Discretize a positive density: weight_i ~ density(p_i) * cell_area_i.

    Weights are normalized to total mass 1, so positive rescalings of the
    density give the identical measure.
    """
    values = np.array([float(density(p)) for p in mesh.points])
    if np.any(values <= 0):
        bad = int(np.argmin(values))
        raise DomainError(f"density must be strictly positive on mesh points (atom {bad})")
    w = values * mesh.cell_areas
    w = w / w.sum()
    return DiscreteMeasure(mesh.n, mesh.points.copy(), w, mesh.cell_areas.copy())


@dataclass
class SuitabilityCertificate:
    """Result of the two-sided density-bound check at a given epsilon."""

    epsilon: float
    upper_ok: bool
    lower_ok: bool


def default_epsilon(n: int) -> float:
    """Loose default bound level: 5% of the uniform density on S^n."""
    return 0.05 / sphere_area(n)


def check_suitable(mu: DiscreteMeasure, nu: DiscreteMeasure,
                   epsilon: float) -> SuitabilityCertificate:
    """Certify the density bounds: mu below 1/epsilon, nu above epsilon.

    The certificate reports failures instead of raising. Both bounds on
    both measures take a second call with the sides swapped.
    """
    if mu.n != nu.n:
        raise ConfigError("measures must live on the same sphere dimension")
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    d_mu = mu.density_estimates()
    d_nu = nu.density_estimates()
    upper_ok = bool(d_mu.max() <= 1.0 / epsilon)
    lower_ok = bool(d_nu.min() >= epsilon)
    return SuitabilityCertificate(epsilon, upper_ok, lower_ok)


def save_measure(measure: DiscreteMeasure, path) -> None:
    """Write the measure as JSON: {"n": ..., "atoms": [{"p": ..., "w": ..., "a": ...}]}."""
    columns = (measure.points, measure.weights, measure.cell_areas)
    atoms = [{"p": p, "w": w, "a": a} for p, w, a in zip(*(c.tolist() for c in columns))]
    with open(path, "w") as fh:
        fh.write(json.dumps({"n": measure.n, "atoms": atoms}, sort_keys=True))


def load_measure(path) -> DiscreteMeasure:
    """Read a measure JSON file and validate its invariants; a file that
    does not parse, or lacks a key, raises DomainError naming it."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        n = int(data["n"])
        points = np.array([a["p"] for a in data["atoms"]], dtype=float)
        weights = np.array([a["w"] for a in data["atoms"]], dtype=float)
        areas = np.array([a["a"] for a in data["atoms"]], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"{path}: not a measure file: {exc!r}") from None
    if points.ndim != 2 or points.shape[1] != n + 1:
        raise DomainError("atom coordinates do not match the declared dimension")
    norms = np.linalg.norm(points, axis=1)
    if not np.max(np.abs(norms - 1.0)) <= 1e-10:
        raise DomainError("atoms must be unit vectors")
    m = DiscreteMeasure(n, points, weights, areas)
    m.validate()
    return m
