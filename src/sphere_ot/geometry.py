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


def cost_matrix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Pairwise squared chordal distances, shape (len(xs), len(ys)): the bits of
    sq_x + sq_y - 2 xs @ ys.T, rows finished in place a few at a time (no second n x m array)."""
    sq_x = np.einsum("ij,ij->i", xs, xs)
    sq_y = np.einsum("ij,ij->i", ys, ys)
    c = xs @ ys.T
    c *= 2.0
    # 8192-entry steps, not _row_step's BLOCK^2: cache-sized, 2.5-3x faster on pricing blocks
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

