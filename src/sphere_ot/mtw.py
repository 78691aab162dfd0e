"""Structural condition checks for the squared-distance cost on spheres.

The quadratic cost restricted to positively aligned pairs is smooth,
twisted (the chart image of the cost gradient is injective), non-
degenerate (the mixed derivative matrix is invertible, degenerating only
as the alignment vanishes), and strictly regular: the mixed fourth
derivative of the cost along the straight chart lines through a pair, in
null direction pairs, stays positive. Derivative magnitudes here are
chart quantities; only signs and determinant magnitudes are invariant.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, NullityError
from .geometry import (
    BOUNDARY_GUARD,
    Chart,
    chart_lift,
    chart_project,
    check_unit,
    cost_extrinsic,
    cross_derivative_frame,
    grad_cost_local,
    tangent_frame,
)

NULL_TOL = 1e-8
CURVATURE_STEP = 1e-3  # centred-difference step of cross_curvature


@dataclass
class ConditionReport:
    """Outcome of one structural-condition sweep."""

    condition: str
    sample_count: int
    min_margin: float
    samples: list = field(default_factory=list)


def cost_gradient_image(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Negative cost gradient at x in the chart at x: exactly twice the
    chart coordinates of y."""
    chart = Chart(x)
    return -grad_cost_local(np.zeros(chart.n), chart_project(chart, y))


def twist_margin(x: np.ndarray, ys: np.ndarray) -> ConditionReport:
    """Injectivity margin of the gradient image map over target samples.

    min_margin is the ratio of the smallest pairwise image distance to the
    smallest pairwise preimage (chart coordinate) distance; the map doubles
    chart coordinates, so the ratio is 2 for distinct samples and drops to
    0 exactly on duplicates.
    """
    x = check_unit(x)
    ys = np.asarray(ys, dtype=float)
    if len(ys) < 2:
        raise ConfigError("need at least two target samples")
    chart = Chart(x)
    pre = np.array([chart_project(chart, y) for y in ys])
    img = np.array([cost_gradient_image(x, y) for y in ys])
    dpre = np.linalg.norm(pre[:, None, :] - pre[None, :, :], axis=2)
    dimg = np.linalg.norm(img[:, None, :] - img[None, :, :], axis=2)
    iu = np.triu_indices(len(ys), k=1)
    worst = int(np.argmin(dpre[iu]))
    if dpre[iu][worst] < 1e-15:
        return ConditionReport("twist", len(ys), 0.0)
    return ConditionReport("twist", len(ys), float(dimg[iu][worst] / dpre[iu][worst]))


def nondegeneracy_profile(x: np.ndarray, angles) -> list:
    """|det| of the mixed derivative matrix at increasing separation angles.

    Returns (alignment, |det|) pairs for targets along the great circle
    from x in the direction tangent_frame(x)[0]; the determinant magnitude
    is 2^n at coincidence and decays to zero as the alignment drops toward
    the boundary.
    """
    x = check_unit(x)
    direction = tangent_frame(x)[0]
    out = []
    for ang in angles:
        if not 0.0 <= ang < math.pi / 2.0:
            raise DomainError("profile angles must lie in [0, pi/2)")
        y = math.cos(ang) * x + math.sin(ang) * direction
        det = float(np.linalg.det(cross_derivative_frame(x, y)))
        out.append((float(x @ y), abs(det)))
    return out


def mixed_bilinear(p: np.ndarray, pbar: np.ndarray) -> float:
    """Mixed-derivative pairing of tangent directions: exactly -2 p . pbar."""
    return -2.0 * float(np.dot(p, pbar))


def random_null_pairs(x, y, count, rng):
    """Unit tangent pairs (p at x, pbar at y) with vanishing mixed pairing.

    The pairing of tangents is proportional to their ambient dot product,
    so null partners at y are drawn from the tangent directions orthogonal
    to the projection of p. Requires n >= 2: on the circle the tangent
    lines are never orthogonal inside the positive-alignment region.
    """
    fx = tangent_frame(x)
    fy = tangent_frame(y)
    n = fx.shape[0]
    if n < 2:
        raise ConfigError("null direction pairs require sphere dimension >= 2")
    pairs = []
    while len(pairs) < count:
        p = fx.T @ rng.normal(size=n)
        norm = np.linalg.norm(p)
        if norm < 1e-12:
            continue
        p /= norm
        # coefficients c of pbar = fy.T c with p . pbar = (fy p) . c = 0
        w = fy @ p
        basis = _nullspace(w[None, :])
        if basis.shape[1] == 0:
            continue
        c = basis @ rng.normal(size=basis.shape[1])
        norm = np.linalg.norm(c)
        if norm < 1e-12:
            continue
        pbar = fy.T @ (c / norm)
        pairs.append((p, pbar))
    return pairs


def _nullspace(a: np.ndarray) -> np.ndarray:
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > 1e-12))
    return vt[rank:].T


def cross_curvature(
    x: np.ndarray,
    y: np.ndarray,
    p: np.ndarray,
    pbar: np.ndarray,
    h: float = CURVATURE_STEP,
) -> float:
    """Mixed fourth difference -d^2/ds^2 d^2/dt^2 c(x(s), y(t)) at (x, y).

    x moves along the straight line through its chart coordinates in the
    chart at y (the curve whose cost gradient at y is affine), and y along
    the straight line in the chart at x; both second derivatives are
    centred differences with step h. Positive on null pairs of tangent
    directions throughout the interior of the positive-alignment region;
    a pair whose mixed pairing exceeds NULL_TOL raises NullityError.
    """
    x = check_unit(x)
    y = check_unit(y)
    if float(x @ y) <= 0.1:
        raise DomainError("cross-curvature sampling requires alignment above 0.1")
    p = np.asarray(p, dtype=float)
    pbar = np.asarray(pbar, dtype=float)
    if np.linalg.norm(p) < 1e-15 or np.linalg.norm(pbar) < 1e-15:
        return 0.0
    if abs(float(p @ x)) > 1e-8 or abs(float(pbar @ y)) > 1e-8:
        raise DomainError("directions must be tangent at their base points")
    if abs(mixed_bilinear(p, pbar)) > NULL_TOL:
        raise NullityError(f"direction pair has mixed pairing {mixed_bilinear(p, pbar):.2e}")
    chart_x = Chart(x)
    chart_y = Chart(y)
    x0 = chart_project(chart_y, x)
    y0 = chart_project(chart_x, y)
    pc = chart_y.frame @ p
    pbc = chart_x.frame @ pbar
    w = np.array([1.0, -2.0, 1.0])
    total = 0.0
    for a, wa in zip((-1, 0, 1), w):
        xs = chart_lift(chart_y, x0 + a * h * pc)
        for b, wb in zip((-1, 0, 1), w):
            yt = chart_lift(chart_x, y0 + b * h * pbc)
            total += wa * wb * cost_extrinsic(xs, yt)
    return -total / h**4


def biconvexity_witness(
    x0: np.ndarray, y0: np.ndarray, y1: np.ndarray, theta: float
) -> np.ndarray:
    """Target whose cost-gradient image is the convex combination of two others.

    Lifts theta Y1 + (1 - theta) Y0 in the chart at x0; because the
    gradient image is linear in chart coordinates, the witness's image
    matches the combination to machine precision, certifying convexity of
    the gradient image of the half-sphere.
    """
    if not 0.0 <= theta <= 1.0:
        raise DomainError("theta must lie in [0, 1]")
    x0 = check_unit(x0)
    chart = Chart(x0)
    cy0 = chart_project(chart, y0)
    cy1 = chart_project(chart, y1)
    combo = theta * cy1 + (1.0 - theta) * cy0
    witness = chart_lift(chart, combo)
    if float(witness @ x0) <= BOUNDARY_GUARD:
        raise DomainError("witness left the positive half-sphere")
    image = cost_gradient_image(x0, witness)
    target = theta * (2.0 * cy1) + (1.0 - theta) * (2.0 * cy0)
    if np.max(np.abs(image - target)) > 1e-10:
        raise DomainError("witness image failed to match the convex combination")
    return witness


def cross_curvature_suite(n: int, samples: int = 100, seed: int = 0) -> ConditionReport:
    """Positivity sweep of the cross-curvature over random null pairs, at
    alignments x . y drawn uniformly from [0.3, 1). The minimum is NaN if
    any sample is, so a NaN sample fails a positivity check."""
    if n < 2:
        raise ConfigError("the cross-curvature sweep requires sphere dimension >= 2")
    rng = np.random.default_rng(seed)
    values = []
    count = 0
    while count < samples:
        x = rng.normal(size=n + 1)
        x /= np.linalg.norm(x)
        frame = tangent_frame(x)
        d = frame.T @ rng.normal(size=n)
        d /= np.linalg.norm(d)
        dot = rng.uniform(0.3, 1.0 - 1e-6)
        ang = math.acos(dot)
        y = math.cos(ang) * x + math.sin(ang) * d
        for p, pbar in random_null_pairs(x, y, 1, rng):
            val = cross_curvature(x, y, p, pbar)
            values.append((dot, val))
            count += 1
    worst = float(np.min([v for _, v in values]))
    return ConditionReport("cross-curvature", samples, worst, values)
