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
from scipy.spatial.distance import pdist

from .errors import ConfigError, DomainError, InsufficientDataError
from .maps import MultiMap
from .measures import median_spacing

LOW_CONFIDENCE_PAIRS = 30


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
    def from_holder(cls, k_U: float, C_plus: float, exponent: float = float("nan")):
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


def default_window(points: np.ndarray) -> tuple:
    """The scale window at the median nearest-neighbour spacing of the points."""
    return scale_window(median_spacing(points))


def _pair_table(points: np.ndarray, values: np.ndarray, window: tuple):
    r = pdist(points)
    d = pdist(values)
    lo, hi = window
    mask = (r >= lo) & (r <= hi)
    return r[mask], d[mask]


def holder_fit(
    points: np.ndarray,
    values: np.ndarray,
    window: tuple | None = None,
    region: str = "",
    n_bins: int = 10,
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
    if window is None:
        window = default_window(points)
    r, d = _pair_table(points, values, window)
    if len(r) < 2:
        raise InsufficientDataError(f"fewer than 2 pairs inside window {window}")
    pair_count = int(len(r))
    if np.max(d) <= 0.0:
        return HolderReport(region, float("nan"), float("nan"), window, pair_count,
                            pair_count < LOW_CONFIDENCE_PAIRS, True, [])
    edges = np.quantile(r, np.linspace(0.0, 1.0, n_bins + 1))
    fit_pts = []
    for b in range(n_bins):
        if b < n_bins - 1:
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
    r, d = _pair_table(np.asarray(points, float), np.asarray(values, float), window)
    if len(r) == 0:
        raise InsufficientDataError(f"no pairs inside window {window}")
    return float(np.max(d / r**alpha))


def exact_exponent_fixture(alpha: float, count: int, seed: int = 0):
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


def region_constants(
    mm: MultiMap, region_idx: np.ndarray, window: tuple | None = None
) -> RegionConstants:
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
    if window is None:
        window = default_window(mm.points)
    c_plus = holder_constant(mm.points[idx], mm.plus[idx], alpha, window)
    return RegionConstants.from_holder(k, c_plus, alpha)


def t_minus_bound_check(
    mm: MultiMap,
    region_idx: np.ndarray,
    window: tuple | None = None,
    constants: RegionConstants | None = None,
    converse: bool = False,
) -> float:
    """Worst ratio of inner-map displacement to its proof-level bound.

    Ratios <= 1 confirm the inner-map continuity bound at this resolution.
    With converse=True the roles of the two maps are swapped: the outer
    displacement is tested against the constant derived from the inner
    map's envelope and the positive alignment margin min(x . t_plus).
    """
    idx = np.asarray(region_idx, dtype=int)
    if len(idx) < 2:
        raise InsufficientDataError("need at least two atoms in the subset")
    if window is None:
        window = default_window(mm.points)
    alpha = holder_exponent(mm.n)
    base, tested = (mm.plus, mm.minus) if not converse else (mm.minus, mm.plus)
    if constants is None:
        if converse:
            margins = np.einsum("ij,ij->i", mm.points[idx], mm.plus[idx])
            if np.any(margins <= 0):
                raise DomainError("outer images must be positively aligned on the subset")
            c_base = holder_constant(mm.points[idx], base[idx], alpha, window)
            constants = RegionConstants.from_holder(float(margins.min()), c_base, alpha)
        else:
            constants = region_constants(mm, idx, window)
    r, d = _pair_table(mm.points[idx], tested[idx], window)
    if len(r) == 0:
        raise InsufficientDataError(f"no pairs inside window {window}")
    bound = constants.C_minus_proof * r**alpha
    return float(np.max(d / bound))


def segment_normal_check(
    mm: MultiMap, i0: int, i1: int, k_u: float, samples: int = 100
):
    """Alignment of both sources with the inward normal along the inner segment.

    Samples the segment between the two inner images; at each sample u the
    inward direction is -u/|u|, and the check passes when both sources'
    projections onto it stay above k_u / 2 (up to roundoff).
    """
    z0 = mm.minus[i0]
    z1 = mm.minus[i1]
    diff = z1 - z0
    dd = float(diff @ diff)
    s_star = 0.0 if dd == 0.0 else float(np.clip(-(z0 @ diff) / dd, 0.0, 1.0))
    if np.linalg.norm(z0 + s_star * diff) < 1e-9:
        raise DomainError("segment between inner images passes through the origin")
    ts = np.linspace(0.0, 1.0, samples)
    seg = (1.0 - ts)[:, None] * z0[None, :] + ts[:, None] * z1[None, :]
    norms = np.linalg.norm(seg, axis=1)
    grads = -seg / norms[:, None]
    proj0 = grads @ mm.points[i0]
    proj1 = grads @ mm.points[i1]
    min_proj = float(min(proj0.min(), proj1.min()))
    return min_proj, min_proj > k_u / 2.0 - 1e-9


def vector_lemma_margin(u: np.ndarray, v: np.ndarray):
    """Excess angle over a right angle and slack in |u + v| >= |u| cos(excess).

    Returns (alpha, margin) with alpha = max(0, angle(u, v) - pi/2); the
    margin is nonnegative up to roundoff whenever alpha < pi/2.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu_ = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu_ == 0.0:
        raise DomainError("u must be nonzero")
    if nv == 0.0:
        return 0.0, 0.0
    cosang = float(np.clip(u @ v / (nu_ * nv), -1.0, 1.0))
    angle = math.acos(cosang)
    alpha = max(0.0, angle - math.pi / 2.0)
    if alpha >= math.pi / 2.0:
        raise DomainError("antiparallel pair: excess angle reaches a right angle")
    margin = float(np.linalg.norm(u + v)) - nu_ * math.cos(alpha)
    return alpha, margin


def vector_lemma_margin_batch(us: np.ndarray, vs: np.ndarray):
    """Vectorized vector_lemma_margin over rows; returns (alphas, margins)."""
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
    """Near-right-angle probe around one bivalent target."""

    center: int
    m: int
    members: np.ndarray      # T2 indices with beta in [pi/2 - 1/m, pi/2]
    others: np.ndarray       # all probed T2 indices, aligned with betas
    betas: np.ndarray
    gamma_bound_ok: bool
    K_m: float               # empirical worst |s_plus| / |dy| ratio over members


def dichotomy_probe(inv: MultiMap, center: int, m: int) -> DichotomyReport:
    """Angles between target offsets and weighted-normal differences at one target.

    For every other bivalent target y, beta(y, y1) is the angle between
    y1 - y and omega(y1) y1 - omega(y) y. Members with beta within 1/m of
    a right angle are returned together with the worst inverse-map
    stretch over them, and a flag that every beta stays below (pi - gamma)/2
    for the pair separation angle gamma.
    """
    if m <= 1:
        raise ConfigError("m must exceed 1")
    t2 = inv.indices_in("T2")
    if center not in t2:
        raise DomainError("probe centre must be a bivalent target")
    others = t2[t2 != center]
    y1 = inv.points[center]
    w1 = inv.jump[center]
    betas = np.empty(len(others))
    bound_ok = True
    for k, j in enumerate(others):
        yj = inv.points[j]
        diff = y1 - yj
        vec = w1 * y1 - inv.jump[j] * yj
        nv = np.linalg.norm(vec)
        nd = np.linalg.norm(diff)
        if nv < 1e-12:
            raise DomainError(f"weighted normals coincide for targets {center} and {j}")
        if nd < 1e-12:
            raise DomainError(f"duplicate target atoms {center} and {j}")
        beta = math.acos(float(np.clip(diff @ vec / (nd * nv), -1.0, 1.0)))
        betas[k] = beta
        if w1 > 0 and inv.jump[j] > 0:
            gamma = math.acos(float(np.clip(y1 @ yj, -1.0, 1.0)))
            if beta >= (math.pi - gamma) / 2.0 + 1e-9:
                bound_ok = False
    sel = (betas >= math.pi / 2.0 - 1.0 / m) & (betas <= math.pi / 2.0)
    members = others[sel]
    if len(members):
        dy = np.linalg.norm(inv.points[members] - y1, axis=1)
        ds = np.linalg.norm(inv.plus[members] - inv.plus[center], axis=1)
        k_m = float(np.min(ds / dy))
    else:
        k_m = float("nan")
    return DichotomyReport(int(center), int(m), members, others, betas, bound_ok, k_m)


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
    window: tuple | None = None,
) -> InjectivityReport:
    """min over close pairs of |s(y1) - s(y0)| / |y1 - y0|^exponent, both maps.

    Strictly positive values certify injectivity of the inverse maps at
    this resolution; the reciprocal of the inner ratio compares against
    the inner continuity constant. The window defaults to the region's
    own scale window: below two mesh spacings, neighbouring targets can
    share a discrete supplier and separations collapse to zero.
    """
    idx = np.asarray(region_idx, dtype=int)
    if len(idx) < 2:
        raise InsufficientDataError("need at least two target atoms")
    y = inv.points[idx]
    if window is None:
        window = default_window(y)
    r = pdist(y)
    keep = r > 1e-12  # drop duplicate atoms
    keep &= (r >= window[0]) & (r <= window[1])
    if not np.any(keep):
        raise InsufficientDataError("no usable target pairs after deduplication")
    dm = pdist(inv.minus[idx])[keep]
    dp = pdist(inv.plus[idx])[keep]
    denom = r[keep] ** exponent
    return InjectivityReport(
        s_minus_ratio=float(np.min(dm / denom)),
        s_plus_ratio=float(np.min(dp / denom)),
        exponent=float(exponent),
        pair_count=int(keep.sum()),
    )
