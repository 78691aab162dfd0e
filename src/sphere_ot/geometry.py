"""Sphere points and the squared-distance cost.

Points of the unit sphere S^n are plain numpy vectors of length n+1.
"""

import math

import numpy as np

from .errors import DomainError

UNIT_TOL = 1e-12


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


def random_sphere_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count independent uniform points on S^n, shape (count, n+1)."""
    return normalize(rng.normal(size=(count, n + 1)))


def rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row, as stacked (1, d) @ (d, 1) products: the
    bits of a vector dot and of np.linalg.norm, which einsum does not keep.
    b may be one row, broadcast against every row of a."""
    return (a[:, None, :] @ b[..., :, None])[:, 0, 0]


def cost_factors(xs: np.ndarray, ys: np.ndarray, psi, phi):
    """Factors (left, right) of the reduced costs c - psi - phi of xs against
    ys, left = [x_i, |x_i|^2 - psi_i, 1] and right = [-2 y_j, 1, |y_j|^2 - phi_j]:
    left[rows] @ right.T is those rows of c - psi - phi, and right[cols] @ left.T
    those columns. psi = phi = 0 gives the costs themselves (cost_matrix)."""
    left = np.column_stack([xs, np.einsum("ij,ij->i", xs, xs) - psi, np.ones(len(xs))])
    right = np.column_stack([-2.0 * ys, np.ones(len(ys)), np.einsum("ij,ij->i", ys, ys) - phi])
    return left, right


def cost_matrix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Pairwise squared chordal distances |x - y|^2, shape (len(xs), len(ys)):
    the product of the factors of cost_factors(xs, ys, 0, 0). Not clamped, so
    an entry of a coincident pair can be a few ulp below 0."""
    left, right = cost_factors(xs, ys, 0.0, 0.0)
    return left @ right.T


def pair_costs(xs: np.ndarray, ys: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """|x_i - y_j|^2 on the listed pairs only, clamped at 0: the cost of a
    plan's entries. sq_x + sq_y - 2 x.y with an einsum cross term, so an
    entry may differ from cost_matrix's in the last few ulp."""
    sq_x = np.einsum("ij,ij->i", xs, xs)
    sq_y = np.einsum("ij,ij->i", ys, ys)
    c = sq_x[rows] + sq_y[cols] - 2.0 * np.einsum("ij,ij->i", xs[rows], ys[cols])
    np.maximum(c, 0.0, out=c)
    return c

