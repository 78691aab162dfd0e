"""Finite-difference confirmations of the closed forms of the sphere cost.

The cost 2 - 2 x.y is twisted on the open half-sphere x.y > 0 (its chart
gradient image doubles chart coordinates), its mixed-derivative matrix
has |det| = 2^n x.y, and its cross-curvature on null direction pairs is
2/(x.y). The tests confirm these closed forms numerically with the charts,
frames and stencils below; the package computes none of them.

A chart at a base point projects onto the hyperplane perpendicular to it,
so a point of the open half-sphere around the base is represented by its
n components along an orthonormal tangent frame. Derivative magnitudes
here are chart quantities; only signs and determinant magnitudes are
invariant.
"""

import math

import numpy as np

from sphere_ot.errors import ConfigError, DomainError, SphereOTError
from sphere_ot.geometry import UNIT_TOL

FRAME_TOL = 1e-10
# Pairs with alignment below this are treated as outside the positive-
# alignment neighbourhood; avoids chart blow-up at the exact boundary.
BOUNDARY_GUARD = 1e-10
DERIVATIVE_STEP = 1e-3  # central-difference step of cross_derivative_frame
NULL_TOL = 1e-8
CURVATURE_STEP = 1e-3  # centred-difference step of cross_curvature


class NullityError(SphereOTError):
    """A direction pair fails the nullity constraint it was required to satisfy."""


def check_unit(p: np.ndarray) -> np.ndarray:
    """Validate that p is a unit vector to within UNIT_TOL; returns p as a float array."""
    p = np.asarray(p, dtype=float)
    if abs(np.linalg.norm(p) - 1.0) > UNIT_TOL:
        raise DomainError(f"point is not on the unit sphere: |p| = {np.linalg.norm(p)!r}")
    return p


def tangent_frame(base: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal frame of the tangent space at base.

    Gram-Schmidt on the standard basis with the axis of largest |component|
    of base dropped, so the construction is reproducible and never degenerate.
    Returns an (n, n+1) array whose rows are the frame vectors.
    """
    base = np.asarray(base, dtype=float)
    d = base.shape[0]
    drop = int(np.argmax(np.abs(base)))
    frame = []
    for k in range(d):
        if k == drop:
            continue
        v = np.zeros(d)
        v[k] = 1.0
        v = v - np.dot(v, base) * base
        for f in frame:
            v = v - np.dot(v, f) * f
        frame.append(v / np.linalg.norm(v))
    return np.array(frame)


class Chart:
    """Local coordinates at a base point: projection onto the tangent hyperplane."""

    def __init__(self, base: np.ndarray):
        self.base = check_unit(base)
        self.frame = tangent_frame(self.base)

    @property
    def n(self) -> int:
        return self.frame.shape[0]

    def validate(self) -> None:
        gram = self.frame @ self.frame.T
        if np.max(np.abs(gram - np.eye(self.n))) > FRAME_TOL:
            raise DomainError("tangent frame is not orthonormal")
        if np.max(np.abs(self.frame @ self.base)) > FRAME_TOL:
            raise DomainError("tangent frame is not orthogonal to the base point")


def chart_project(chart: Chart, p: np.ndarray) -> np.ndarray:
    """Frame components of a point of the open half-sphere around chart.base."""
    p = np.asarray(p, dtype=float)
    if float(np.dot(chart.base, p)) <= BOUNDARY_GUARD:
        raise DomainError("point is not in the positive half-sphere of the chart base")
    return chart.frame @ p


def chart_lift(chart: Chart, coords: np.ndarray) -> np.ndarray:
    """Inverse of chart_project: the half-sphere point with the given coordinates."""
    coords = np.asarray(coords, dtype=float)
    sq = float(coords @ coords)
    if sq >= 1.0:
        raise DomainError("local coordinates must lie in the open unit ball")
    return coords @ chart.frame + math.sqrt(1.0 - sq) * chart.base


def cost_extrinsic(x: np.ndarray, y: np.ndarray) -> float:
    """Squared chordal distance |x - y|^2 = 2 - 2 x . y, in [0, 4]."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(d @ d)


def _check_ball(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if float(v @ v) >= 1.0:
        raise DomainError(f"{name} must lie in the open unit ball")
    return v


def grad_cost_local(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gradient in X of the squared-distance cost in shared local
    coordinates, |X - Y|^2 + (h_X - h_Y)^2 with heights h = sqrt(1 - |.|^2)
    of the half-sphere lifts; equals -2Y at X = 0."""
    X = _check_ball(X, "X")
    Y = _check_ball(Y, "Y")
    hx = math.sqrt(1.0 - float(X @ X))
    hy = math.sqrt(1.0 - float(Y @ Y))
    return 2.0 * (X - Y) - 2.0 * (hx - hy) * X / hx


def geodesic_step(x: np.ndarray, direction: np.ndarray, s: float) -> np.ndarray:
    """Great-circle point cos(s) x + sin(s) d for a unit tangent direction d."""
    return math.cos(s) * x + math.sin(s) * direction


def cross_derivative_frame(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mixed second derivatives of the cost in orthonormal tangent frames.

    Entry (i, j) is d^2 c / ds dt of c(x(s), y(t)) along great circles
    through x and y in the i-th / j-th frame directions, by central
    differences with step DERIVATIVE_STEP. The matrix depends on the frames
    but its determinant magnitude does not.
    """
    x = check_unit(x)
    y = check_unit(y)
    if float(np.dot(x, y)) <= BOUNDARY_GUARD:
        raise DomainError("cross derivative is only defined for positively aligned pairs")
    ex = tangent_frame(x)
    fy = tangent_frame(y)
    n, h = ex.shape[0], DERIVATIVE_STEP
    out = np.empty((n, n))
    for i in range(n):
        xp = geodesic_step(x, ex[i], h)
        xm = geodesic_step(x, ex[i], -h)
        for j in range(n):
            yp = geodesic_step(y, fy[j], h)
            ym = geodesic_step(y, fy[j], -h)
            out[i, j] = (
                cost_extrinsic(xp, yp)
                - cost_extrinsic(xp, ym)
                - cost_extrinsic(xm, yp)
                + cost_extrinsic(xm, ym)
            ) / (4.0 * h * h)
    return out


def cost_gradient_image(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Negative cost gradient at x in the chart at x: exactly twice the
    chart coordinates of y."""
    chart = Chart(x)
    return -grad_cost_local(np.zeros(chart.n), chart_project(chart, y))


def twist_margin(x: np.ndarray, ys: np.ndarray) -> float:
    """Injectivity margin of the gradient image map over target samples.

    The margin is the ratio of the smallest pairwise image distance to the
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
        return 0.0
    return float(dimg[iu][worst] / dpre[iu][worst])


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


def random_null_pair(x, y, rng):
    """A unit tangent pair (p at x, pbar at y) with vanishing mixed pairing.

    The pairing of tangents is proportional to their ambient dot product,
    so the null partner at y is drawn from the tangent directions orthogonal
    to the projection of p. Requires n >= 2: on the circle the tangent
    lines are never orthogonal inside the positive-alignment region.
    """
    fx = tangent_frame(x)
    fy = tangent_frame(y)
    n = fx.shape[0]
    if n < 2:
        raise ConfigError("null direction pairs require sphere dimension >= 2")
    while True:
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
        return p, fy.T @ (c / norm)


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
