"""Extraction of the two-valued transport map and its inverse from a coupling.

Each atom's coupling images on the other side are merged into clusters
(images within the atom's merge radius belong to one continuum destination
split across neighbouring atoms by discretization). One cluster means the
atom is univalent; two clusters give the outer/inner image pair: the outer
image maximizes its alignment with the atom, the inner image minimizes it,
and their difference is a jump along the atom up to a recorded residual.
On the source side these are t_plus - t_minus = lambda(x) x, on the target
side s_plus - s_minus = omega(y) y; one routine builds both. More than two
clusters means the discretization cannot support a two-image structure and
is an error.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ExtractionError
from .measures import DiscreteMeasure
from .solver import Coupling

REGION_SOURCE = ("S0", "S1", "S2")
_REGIONS = {"source": REGION_SOURCE, "target": ("T0", "T1", "T2")}
# JSON keys of an atom record in the paper's notation: index, outer, inner, jump
_RECORD_KEYS = {
    "source": ("i", "t_plus", "t_minus", "lambda"),
    "target": ("j", "s_plus", "s_minus", "omega"),
}


def _single_linkage_clusters(points: np.ndarray, tol: float) -> list[list[int]]:
    """Cluster row indices by single linkage at Euclidean threshold tol.

    Pairs are joined in row-major order. Each distance is the square root
    of one vector dot product, as np.linalg.norm takes it for one
    difference, so the test is bit for bit the pairwise one.
    """
    k = len(points)
    if k == 1:
        return [[0]]
    diff = points[:, None, :] - points[None, :, :]
    close = np.sqrt(diff[..., None, :] @ diff[..., None])[..., 0, 0] < tol
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rows, cols = np.nonzero(np.triu(close, 1))
    for a, b in zip(rows.tolist(), cols.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for a in range(k):
        groups.setdefault(find(a), []).append(a)
    return list(groups.values())


def _spherical_mean(points: np.ndarray, masses: np.ndarray) -> np.ndarray:
    v = (points * masses[:, None]).sum(axis=0)
    norm = np.linalg.norm(v)
    # relative to the cluster's mass: entropic supports keep clusters far
    # lighter than 1e-8 whose images are well defined
    if norm < 1e-8 * masses.sum():
        raise ExtractionError("cluster mass centre collapsed to the origin")
    return v / norm


@dataclass
class MultiMap:
    """Per-atom record of one side's image pair and its region label.

    On the source side the points are the atoms x, plus and minus are the
    outer and inner images t_plus, t_minus and jump is lambda(x); regions
    are S0/S1/S2. On the target side the points are y, plus and minus are
    s_plus, s_minus and jump is omega(y); regions are T0/T1/T2. Members
    hold the other side's atom indices merged into each image.
    """

    side: str                       # "source" or "target"
    n: int
    points: np.ndarray              # (N, n+1)
    plus: np.ndarray                # (N, n+1) outer image
    minus: np.ndarray               # (N, n+1) inner image
    jump: np.ndarray                # (N,) (plus - minus) . point
    residual: np.ndarray            # (N,) | plus - minus - jump point |
    bivalent: np.ndarray            # (N,) bool
    region: np.ndarray              # (N,) a label of the side, "" before classification
    plus_members: list = field(default_factory=list)
    minus_members: list = field(default_factory=list)
    merge_tol: float = np.nan
    zero_tol: float = np.nan
    anomalies: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.jump)

    def indices_in(self, label: str) -> np.ndarray:
        return np.nonzero(self.region == label)[0]

    def region_counts(self) -> dict:
        return {label: int((self.region == label).sum()) for label in _REGIONS[self.side]}

    def interior_s1(self) -> np.ndarray:
        """S1 atoms away from the degenerate band: |x . t_plus| >= 0.2."""
        dot_plus = np.einsum("ij,ij->i", self.points, self.plus)
        return np.nonzero((self.region == "S1") & (np.abs(dot_plus) >= 0.2))[0]

    def usable_s2(self) -> np.ndarray:
        """S2 atoms with a positive inner alignment margin -x . t_minus."""
        s2 = self.indices_in("S2")
        margins = -np.einsum("ij,ij->i", self.points[s2], self.minus[s2])
        return s2[margins > 0]


def _merge_images(x, points, masses, merge_tol, what, index):
    clusters = _single_linkage_clusters(points, merge_tol)
    if len(clusters) > 2:
        raise ExtractionError(
            f"{what} atom {index} has {len(clusters)} image clusters; "
            "the discretization is too coarse for a two-image structure"
        )
    reps = [_spherical_mean(points[c], masses[c]) for c in clusters]
    if len(reps) == 1:
        return reps[0], reps[0], clusters[0], clusters[0], False
    hi, lo = (0, 1) if float(x @ reps[0]) >= float(x @ reps[1]) else (1, 0)
    return reps[hi], reps[lo], clusters[hi], clusters[lo], True


# Scaled merge radii never exceed this: genuine two-image splits keep the
# images separated by the normal jump (order 1), while within-patch gaps
# stay at mesh scale, so radii near 0.5 separate the two regimes.
MAX_MERGE_RADIUS = 0.5


def _weight_scaled_tols(merge_tol: float, weights: np.ndarray, opposite: np.ndarray) -> np.ndarray:
    """Per-atom merge radii: a heavy atom's single continuum image spreads
    over a patch of opposite-side cells with diameter growing like the
    square root of the weight ratio, so its merge radius grows the same
    way, capped to stay below split separations."""
    ratio = weights / np.median(opposite)
    tols = merge_tol * np.sqrt(np.maximum(1.0, ratio))
    return np.minimum(tols, max(merge_tol, MAX_MERGE_RADIUS))


def _two_images(side, n, coupling, points, opposite, tols, merge_tol) -> MultiMap:
    """Merge every atom's images into its outer and inner image, unlabelled.

    The support is sorted by this side's index; atom a merges the opposite
    points it sends mass to (or receives it from) at radius tols[a].
    """
    pair = (coupling.rows, coupling.cols)
    own, other = pair if side == "source" else pair[::-1]
    count, d = points.shape
    plus, minus = np.empty((2, count, d))
    jump, residual = np.empty((2, count))
    bivalent = np.zeros(count, dtype=bool)
    plus_members, minus_members = [], []
    order = np.argsort(own, kind="stable")
    other = other[order]
    mass = coupling.mass[order]
    bounds = np.searchsorted(own[order], np.arange(count + 1))
    for a in range(count):
        lo, hi = bounds[a], bounds[a + 1]
        if lo == hi:
            raise ExtractionError(f"{side} atom {a} carries no coupling mass")
        idx = other[lo:hi]
        x = points[a]
        p, m, plus_cl, minus_cl, bivalent[a] = _merge_images(
            x, opposite[idx], mass[lo:hi], tols[a], side, a
        )
        plus[a] = p
        minus[a] = m
        jump[a] = float((p - m) @ x)
        residual[a] = float(np.linalg.norm(p - m - jump[a] * x))
        plus_members.append(idx[plus_cl])
        minus_members.append(idx[minus_cl])
    return MultiMap(
        side, n, points.copy(), plus, minus, jump, residual, bivalent,
        np.full(count, "", dtype="<U2"), plus_members, minus_members, merge_tol,
    )


def _label_regions(mm: MultiMap, zero_tol: float) -> np.ndarray:
    """The region rule of both sides; returns x . plus per atom.

    Bivalent atoms get the side's label 2; univalent atoms whose outer image
    is aligned beyond zero_tol get label 1; the rest form the band, label 0.
    """
    mm.zero_tol = zero_tol
    dot_plus = np.einsum("ij,ij->i", mm.points, mm.plus)
    label = np.where(mm.bivalent, 2, np.where(dot_plus > zero_tol, 1, 0))
    mm.region = np.array(_REGIONS[mm.side])[label]
    return dot_plus


def extract_multimap(
    coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure, merge_tol: float
) -> MultiMap:
    """Build the per-source two-image map t_plus, t_minus from the coupling support.

    Each source's merge radius is merge_tol * sqrt(weight ratio against
    the median target weight), so that heavy atoms' locally spread images
    still merge into one cluster; atoms at or below the median weight use
    merge_tol unchanged.
    """
    tols = _weight_scaled_tols(merge_tol, mu.weights, nu.weights)
    return _two_images("source", mu.n, coupling, mu.points, nu.points, tols, merge_tol)


def classify_regions(mm: MultiMap, zero_tol: float) -> MultiMap:
    """Label every source atom S0 / S1 / S2 and return the map.

    Univalent atoms with x . t_plus within zero_tol of zero form the
    degenerate band S0; other univalent atoms with positive alignment are
    S1; bivalent atoms are S2. Bivalent atoms missing the sign structure
    (x . t_plus > 0 > x . t_minus) are recorded as anomalies, as are
    univalent atoms with strongly negative alignment, which stay in S0.
    """
    dot_plus = _label_regions(mm, zero_tol)
    dot_minus = np.einsum("ij,ij->i", mm.points, mm.minus)
    sign = mm.bivalent & ~((dot_plus > 0.0) & (dot_minus < 0.0))
    # S0 atoms outside the band map across the equator
    across = (mm.region == "S0") & ~(np.abs(dot_plus) <= zero_tol)
    mm.anomalies = []
    for i in np.nonzero(sign | across)[0].tolist():
        record = {"atom": i, "kind": "univalent negative alignment", "dot_plus": float(dot_plus[i])}
        if sign[i]:
            record.update(kind="bivalent sign structure", dot_minus=float(dot_minus[i]))
        mm.anomalies.append(record)
    return mm


def invert_maps(mm: MultiMap, coupling: Coupling, nu: DiscreteMeasure) -> MultiMap:
    """Per-target inverse pair s_plus, s_minus by the same extraction, roles swapped.

    s_plus maximizes y . x over the merged source clusters feeding the
    target, s_minus minimizes it, and omega = (s_plus - s_minus) . y.
    Targets with two source clusters form T2; the rest split into T0 / T1
    by the source-side rule. The tolerances are those of the classified
    source map; merge radii scale nu's weights against the support's row
    marginal.
    """
    if not np.isfinite(mm.merge_tol) or not np.isfinite(mm.zero_tol):
        raise ExtractionError("merge_tol / zero_tol unavailable; classify the map first")
    tols = _weight_scaled_tols(mm.merge_tol, nu.weights, coupling.row_marginal(mm.count))
    inv = _two_images("target", mm.n, coupling, nu.points, mm.points, tols, mm.merge_tol)
    _label_regions(inv, mm.zero_tol)
    return inv


def nu1_split(mm: MultiMap, nu: DiscreteMeasure):
    """Split nu into the part outside the inner images of bivalent sources.

    Returns (nu1, nu_rest): nu1 restricted to targets receiving no inner-
    image mass from any S2 atom, nu_rest the complement; weights keep
    their original (unnormalized) values and partition nu atomwise.
    """
    inner = set()
    for i in np.nonzero(mm.bivalent)[0]:
        inner.update(int(j) for j in mm.minus_members[i])
    rest_idx = np.array(sorted(inner), dtype=int)
    keep = np.setdiff1d(np.arange(nu.count), rest_idx)
    return nu.restrict(keep), nu.restrict(rest_idx)


def atom_records(mm: MultiMap) -> list:
    """One JSON record per atom, keyed in the notation of the map's side."""
    index, plus, minus, jump = _RECORD_KEYS[mm.side]
    columns = (mm.plus, mm.minus, mm.jump, mm.residual, mm.region)
    return [
        {index: a, plus: p, minus: m, jump: j, "residual": r, "region": g}
        for a, (p, m, j, r, g) in enumerate(zip(*(c.tolist() for c in columns)))
    ]


def save_multimap_json(mm: MultiMap, path) -> None:
    with open(path, "w") as fh:
        json.dump({"n": mm.n, "atoms": atom_records(mm), "anomalies": mm.anomalies}, fh,
                  sort_keys=True)
