"""Sphere points, tangent-plane charts, and the squared-distance cost.

Points of the unit sphere S^n are plain numpy vectors of length n+1.
A chart at a base point projects onto the hyperplane perpendicular to it,
so a point of the open half-sphere around the base is represented by its
n components along an orthonormal tangent frame.
"""

import math

import numpy as np

from .errors import DomainError

UNIT_TOL = 1e-12
FRAME_TOL = 1e-10
# Pairs with alignment below this are treated as outside the positive-
# alignment neighbourhood; avoids chart blow-up at the exact boundary.
BOUNDARY_GUARD = 1e-10
DERIVATIVE_STEP = 1e-3  # central-difference step of cross_derivative_frame


def sphere_area(n: int) -> float:
    """Surface measure of S^n embedded in R^{n+1} (2*pi, 4*pi, 2*pi^2, ...)."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def normalize(v: np.ndarray) -> np.ndarray:
    """Rescale v (or each row of v) to unit length."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norm < UNIT_TOL):
        raise DomainError("cannot normalize a (near-)zero vector")
    return v / norm


def check_unit(p: np.ndarray) -> np.ndarray:
    """Validate that p is a unit vector to within UNIT_TOL; returns p as a float array."""
    p = np.asarray(p, dtype=float)
    if abs(np.linalg.norm(p) - 1.0) > UNIT_TOL:
        raise DomainError(f"point is not on the unit sphere: |p| = {np.linalg.norm(p)!r}")
    return p


def random_sphere_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count independent uniform points on S^n, shape (count, n+1)."""
    return normalize(rng.normal(size=(count, n + 1)))


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


def rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row, as stacked (1, d) @ (d, 1) products: the
    bits of a vector dot and of np.linalg.norm, which einsum does not keep.
    b may be one row, broadcast against every row of a."""
    return (a[:, None, :] @ b[..., :, None])[:, 0, 0]


def cost_extrinsic(x: np.ndarray, y: np.ndarray) -> float:
    """Squared chordal distance |x - y|^2 = 2 - 2 x . y, in [0, 4]."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(d @ d)


def cost_matrix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Pairwise squared chordal distances, shape (len(xs), len(ys)): the bits of
    sq_x + sq_y - 2 xs @ ys.T, rows finished in place a few at a time (no second n x m array)."""
    sq_x = np.einsum("ij,ij->i", xs, xs)
    sq_y = np.einsum("ij,ij->i", ys, ys)
    c = xs @ ys.T
    c *= 2.0
    step = 1 + 8192 // (len(ys) + 1)
    for lo in range(0, len(c), step):
        np.subtract(sq_x[lo:lo + step, None] + sq_y, c[lo:lo + step], out=c[lo:lo + step])
    np.maximum(c, 0.0, out=c)
    return c


def pair_costs(xs: np.ndarray, ys: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """cost_matrix(xs, ys)[rows, cols] without the full matrix.

    The same expression on the listed pairs only; the cross term is an
    einsum, not a matrix product, so an entry may differ from the matrix's
    in the last ulp.
    """
    sq_x = np.einsum("ij,ij->i", xs, xs)
    sq_y = np.einsum("ij,ij->i", ys, ys)
    c = sq_x[rows] + sq_y[cols] - 2.0 * np.einsum("ij,ij->i", xs[rows], ys[cols])
    np.maximum(c, 0.0, out=c)
    return c


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
