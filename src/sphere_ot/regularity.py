"""Empirical regularity diagnostics for extracted transport maps.

Continuity is quantified through log-log envelope fits: within a scale
window, pair displacements are binned by distance decile, the worst
displacement per bin is kept, and a least-squares line through those
envelope points estimates the exponent and constant. Constants for the
inner map follow from the outer map's constant and the alignment margin
k = min(-x . t_minus) over the bivalent patch: the statement-level value
(1 + 1/k)(C + 2) and the proof-level value (1 + 2/k)(C + 2) are both
reported, and the larger proof-level one is used for bound checks.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DomainError, InsufficientDataError
from .geometry import rowwise_dot
from .maps import MultiMap

LOW_CONFIDENCE_PAIRS = 30
# envelope fits bin the window's pairs by distance decile
FIT_BINS = 10


def holder_exponent(n: int) -> float:
    """Exponent 1/(4n - 1) proven for the outer map away from the degenerate set."""
    return 1.0 / (4.0 * n - 1.0)


@dataclass
class HolderReport:
    """Envelope-fit result over a scale window on one region."""

    region: str
    alpha_hat: float
    C_hat: float
    scale_window: tuple
    pair_count: int
    low_confidence: bool
    degenerate: bool
    fit_points: list  # (log r, log displacement) pairs used in the fit


@dataclass
class RegionConstants:
    """Alignment margin and continuity constants on a bivalent patch."""

    k_U: float
    C_plus: float
    C_minus_statement: float
    C_minus_proof: float
    exponent: float

    @classmethod
    def from_holder(cls, k_U: float, C_plus: float, exponent: float):
        """Derive both inner-map constants from the margin and outer constant."""
        if k_U <= 0:
            raise DomainError("alignment margin k must be positive")
        return cls(
            k_U=k_U,
            C_plus=C_plus,
            C_minus_statement=(1.0 + 1.0 / k_U) * (C_plus + 2.0),
            C_minus_proof=(1.0 + 2.0 / k_U) * (C_plus + 2.0),
            exponent=exponent,
        )


def scale_window(spacing: float) -> tuple:
    """Scale window (2x the spacing, 0.5) for a sample set of that spacing.

    Below twice the spacing, discretization noise dominates; above 0.5 the
    fit is no longer local. On coarse sample sets the upper edge widens to
    four spacings so the window never empties.
    """
    return (2.0 * spacing, max(0.5, 4.0 * spacing))


def _pair_table(points: np.ndarray, window: tuple, *values: np.ndarray):
    """Separations r of the pairs of points inside window and the displacements
    of each values array on them: the entries of pdist the window keeps, bit for
    bit and in order. The pairs come from a k-d tree queried a little past the
    upper edge, as its distances round differently; no all-pairs array is made."""
    lo, hi = window
    pairs = cKDTree(points).query_pairs(hi * (1.0 + 1e-9), output_type="ndarray")
    i, j = np.divmod(np.sort(pairs[:, 0] * len(points) + pairs[:, 1]), len(points))
    del pairs
    r = _distances(points, i, j)
    keep = (r >= lo) & (r <= hi)
    i, j = i[keep], j[keep]
    return (r[keep], *(_distances(v, i, j) for v in values))


def _distances(points: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|points[i] - points[j]| as pdist computes it: squares summed in coordinate order."""
    acc = np.zeros(len(i))
    for k in range(points.shape[1]):
        acc += (points[i, k] - points[j, k]) ** 2
    return np.sqrt(acc, out=acc)


def holder_fit(
    points: np.ndarray, values: np.ndarray, window: tuple, region: str = ""
) -> HolderReport:
    """Estimate the continuity exponent of a sampled map by envelope regression.

    Pairs with separation inside the window are binned by distance decile;
    the largest displacement in each bin forms the upper envelope, and the
    fitted slope/intercept of log displacement against log separation give
    (alpha_hat, C_hat). Fewer than 30 usable pairs flags low confidence;
    all-zero displacements flag the report degenerate instead of fitting.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(points) < 2:
        raise InsufficientDataError("need at least two samples")
    r, d = _pair_table(points, window, values)
    if len(r) < 2:
        raise InsufficientDataError(f"fewer than 2 pairs inside window {window}")
    pair_count = int(len(r))
    if np.max(d) <= 0.0:
        return HolderReport(region, float("nan"), float("nan"), window, pair_count,
                            pair_count < LOW_CONFIDENCE_PAIRS, True, [])
    edges = np.quantile(r, np.linspace(0.0, 1.0, FIT_BINS + 1))
    fit_pts = []
    for b in range(FIT_BINS):
        if b < FIT_BINS - 1:
            sel = (r >= edges[b]) & (r < edges[b + 1])
        else:
            sel = (r >= edges[b]) & (r <= edges[b + 1])
        if not np.any(sel):
            continue
        sub_r, sub_d = r[sel], d[sel]
        k = int(np.argmax(sub_d))
        if sub_d[k] > 0:
            fit_pts.append((math.log(sub_r[k]), math.log(sub_d[k])))
    xs = np.array([p[0] for p in fit_pts])
    ys = np.array([p[1] for p in fit_pts])
    if len(fit_pts) < 2 or np.ptp(xs) < 1e-12:
        return HolderReport(region, float("nan"), float("nan"), window, pair_count,
                            pair_count < LOW_CONFIDENCE_PAIRS, True, fit_pts)
    slope, intercept = np.polyfit(xs, ys, 1)
    return HolderReport(
        region=region,
        alpha_hat=float(slope),
        C_hat=float(math.exp(intercept)),
        scale_window=window,
        pair_count=pair_count,
        low_confidence=pair_count < LOW_CONFIDENCE_PAIRS,
        degenerate=False,
        fit_points=fit_pts,
    )


def holder_constant(
    points: np.ndarray, values: np.ndarray, alpha: float, window: tuple
) -> float:
    """Smallest constant C with displacement <= C * separation^alpha on window pairs."""
    r, d = _pair_table(np.asarray(points, float), window, np.asarray(values, float))
    if len(r) == 0:
        raise InsufficientDataError(f"no pairs inside window {window}")
    return float(np.max(d / r**alpha))


def region_constants(mm: MultiMap, region_idx: np.ndarray, window: tuple) -> RegionConstants:
    """Alignment margin and envelope constants on a bivalent atom subset."""
    idx = np.asarray(region_idx, dtype=int)
    if len(idx) == 0:
        raise InsufficientDataError("empty bivalent subset")
    if not np.all(mm.bivalent[idx]):
        raise DomainError("subset must consist of bivalent atoms")
    margins = -np.einsum("ij,ij->i", mm.points[idx], mm.minus[idx])
    if np.any(margins <= 0):
        raise DomainError("inner images must be negatively aligned on the subset")
    k = float(margins.min())
    alpha = holder_exponent(mm.n)
    c_plus = holder_constant(mm.points[idx], mm.plus[idx], alpha, window)
    return RegionConstants.from_holder(k, c_plus, alpha)


def t_minus_bound_check(
    mm: MultiMap, region_idx: np.ndarray, window: tuple, constants: RegionConstants
) -> float:
    """Worst ratio of inner-map displacement to the proof-level bound of constants.

    Ratios <= 1 confirm the inner-map continuity bound at this resolution;
    the constants are region_constants of the subset.
    """
    idx = np.asarray(region_idx, dtype=int)
    if len(idx) < 2:
        raise InsufficientDataError("need at least two atoms in the subset")
    alpha = holder_exponent(mm.n)
    r, d = _pair_table(mm.points[idx], window, mm.minus[idx])
    if len(r) == 0:
        raise InsufficientDataError(f"no pairs inside window {window}")
    bound = constants.C_minus_proof * r**alpha
    return float(np.max(d / bound))


def monotonicity_check(inv: MultiMap, region_idx: np.ndarray) -> float:
    """min over region pairs of (s_minus(y1) - s_minus(y0)) . (y1 - y0)."""
    idx = np.asarray(region_idx, dtype=int)
    if len(idx) < 2:
        raise InsufficientDataError("need at least two atoms for pair monotonicity")
    s = inv.minus[idx]
    y = inv.points[idx]
    g = s @ y.T
    diag = np.diag(g)
    dots = diag[:, None] + diag[None, :] - g - g.T
    iu = np.triu_indices(len(idx), k=1)
    return float(dots[iu].min())


@dataclass
class DichotomyReport:
    """Weighted-normal angles around one bivalent target."""

    center: int
    others: np.ndarray       # all probed T2 indices, aligned with betas
    betas: np.ndarray
    gamma_bound_ok: bool


def dichotomy_probe(inv: MultiMap, center: int) -> DichotomyReport:
    """Angles between target offsets and weighted-normal differences at one target.

    For every other bivalent target y, beta(y, y1) is the angle between
    y1 - y and omega(y1) y1 - omega(y) y. The flag says whether every beta
    of a pair with both weights positive stays below (pi - gamma)/2 for the
    pair separation angle gamma. The dot products keep the bits of scalar
    ones and each angle is math.acos of its cosine, so the betas are those
    of a loop over the targets; the first target, in T2 order, whose
    weighted normal (tested first) or position coincides with the centre's
    raises DomainError.
    """
    t2 = inv.indices_in("T2")
    if center not in t2:
        raise DomainError("probe centre must be a bivalent target")
    others = t2[t2 != center]
    y1 = inv.points[center]
    w1 = inv.jump[center]
    ys, ws = inv.points[others], inv.jump[others]
    diff = y1 - ys
    vec = w1 * y1 - ws[:, None] * ys
    nv = np.sqrt(rowwise_dot(vec, vec))
    nd = np.sqrt(rowwise_dot(diff, diff))
    bad = (nv < 1e-12) | (nd < 1e-12)
    if bad.any():
        k = int(np.argmax(bad))
        if nv[k] < 1e-12:
            raise DomainError(f"weighted normals coincide for targets {center} and {others[k]}")
        raise DomainError(f"duplicate target atoms {center} and {others[k]}")
    cosines = np.clip(rowwise_dot(diff, vec) / (nd * nv), -1.0, 1.0)
    betas = np.array([math.acos(v) for v in cosines.tolist()])
    both = (w1 > 0) & (ws > 0)
    separations = np.clip(rowwise_dot(ys[both], y1), -1.0, 1.0)
    gammas = np.array([math.acos(v) for v in separations.tolist()])
    bound_ok = not np.any(betas[both] >= (math.pi - gammas) / 2.0 + 1e-9)
    return DichotomyReport(int(center), others, betas, bound_ok)


@dataclass
class InjectivityReport:
    """Worst separation ratios certifying quantified injectivity."""

    s_minus_ratio: float
    s_plus_ratio: float
    exponent: float
    pair_count: int


def injectivity_lower_bound(
    inv: MultiMap,
    region_idx: np.ndarray,
    exponent: float,
    window: tuple,
) -> InjectivityReport:
    """min over window pairs of |s(y1) - s(y0)| / |y1 - y0|^exponent, both maps.

    Strictly positive values certify injectivity of the inverse maps at
    this resolution; the reciprocal of the inner ratio compares against
    the inner continuity constant. Pass a window starting at two spacings
    of the region's own atoms: below it, neighbouring targets can share a
    discrete supplier and separations collapse to zero.
    """
    idx = np.asarray(region_idx, dtype=int)
    if len(idx) < 2:
        raise InsufficientDataError("need at least two target atoms")
    r, dm, dp = _pair_table(inv.points[idx], window, inv.minus[idx], inv.plus[idx])
    keep = r > 1e-12  # drop duplicate atoms
    if not np.any(keep):
        raise InsufficientDataError("no usable target pairs after deduplication")
    denom = r[keep] ** exponent
    return InjectivityReport(
        s_minus_ratio=float(np.min(dm[keep] / denom)),
        s_plus_ratio=float(np.min(dp[keep] / denom)),
        exponent=float(exponent),
        pair_count=len(denom),
    )
