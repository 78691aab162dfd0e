"""Extraction of the two-valued transport map and its inverse from a coupling.

Each atom's coupling images on the other side are merged into clusters
(images within the atom's merge radius belong to one continuum destination
split across neighbouring atoms by discretization): single linkage, taken
as the connected components of the graph of close image pairs, for a chunk
of whole atoms at a time. One cluster means the atom is univalent; two
clusters give the outer/inner image pair: the outer image maximizes its
alignment with the atom, the inner image minimizes it, and their
difference is a jump along the atom up to a recorded residual.
On the source side these are t_plus - t_minus = lambda(x) x, on the target
side s_plus - s_minus = omega(y) y; one routine builds both. More than two
clusters means the discretization cannot support a two-image structure and
is an error.
"""

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .errors import ExtractionError
from .geometry import rowwise_dot
from .measures import DiscreteMeasure
from .solver import Coupling

REGION_SOURCE = ("S0", "S1", "S2")
_REGIONS = {"source": REGION_SOURCE, "target": ("T0", "T1", "T2")}
# JSON keys of an atom record in the paper's notation: index, outer, inner, jump
_RECORD_KEYS = {
    "source": ("i", "t_plus", "t_minus", "lambda"),
    "target": ("j", "s_plus", "s_minus", "omega"),
}


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


# Image pairs are listed for a chunk of whole atoms at a time, at most this
# many unless one atom alone has more: listed for a whole entropic support at
# once they would take memory like the sum of its squared image counts.
PAIR_CHUNK = 2**16


def _linkage_labels(images: np.ndarray, sizes: np.ndarray, tols: np.ndarray) -> np.ndarray:
    """Single-linkage cluster of every image: atom a owns the next sizes[a]
    rows of images, and two of them are linked when closer than tols[a].
    Labels count up in the order of each cluster's first image."""
    count = len(images)
    later = np.repeat(np.cumsum(sizes), sizes) - np.arange(count) - 1
    first = np.repeat(np.arange(count), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    diff = images[first] - images[second]
    close = np.sqrt(rowwise_dot(diff, diff)) < np.repeat(tols, sizes)[first]
    graph = coo_array((np.ones(close.sum()), (first[close], second[close])), shape=(count, count))
    return connected_components(graph, directed=False)[1]


def _two_images(side, n, coupling, points, opposite, tols) -> MultiMap:
    """Merge every atom's images into its outer and inner image, unlabelled.

    The support is sorted by this side's index; atom a merges the opposite
    points it sends mass to (or receives it from) at radius tols[a]. A
    cluster's image is its mass-weighted mean, projected to the sphere.
    """
    pair = (coupling.rows, coupling.cols)
    own, other = pair if side == "source" else pair[::-1]
    count, d = points.shape
    plus, minus = np.empty((2, count, d))
    jump, residual = np.empty((2, count))
    bivalent = np.zeros(count, dtype=bool)
    plus_members, minus_members = [], []
    order = np.argsort(own, kind="stable")
    other, mass = other[order], coupling.mass[order]
    bounds = np.searchsorted(own[order], np.arange(count + 1))
    sizes = np.diff(bounds)
    pairs = np.concatenate([[0], np.cumsum(sizes * (sizes - 1) // 2)])
    a = 0
    while a < count:  # atoms a to b - 1: as many as PAIR_CHUNK pairs allow, at least one
        b = max(a + 1, int(np.searchsorted(pairs, pairs[a] + PAIR_CHUNK, "right")) - 1)
        lo, hi = bounds[a], bounds[b]
        idx, x = other[lo:hi], points[a:b]
        label = _linkage_labels(opposite[idx], sizes[a:b], tols[a:b])
        owner = np.empty(label.max(initial=-1) + 1, dtype=int)
        owner[label] = np.repeat(np.arange(b - a), sizes[a:b])
        clusters = np.bincount(owner, minlength=b - a)
        # image sums weighted by mass, and the mass last; np.add.at adds in
        # support order, as a sum over axis 0 of one cluster's rows does
        sums = np.zeros((len(owner), d + 1))
        np.add.at(sums, label, np.column_stack([opposite[idx] * mass[lo:hi, None], mass[lo:hi]]))
        norm = np.sqrt(rowwise_dot(sums[:, :d], sums[:, :d]))
        bad = (clusters == 0) | (clusters > 2)
        # collapsed relative to the cluster's mass: entropic supports keep
        # clusters far lighter than 1e-8 whose images are well defined
        bad[owner[norm < 1e-8 * sums[:, d]]] = True
        if bad.any():  # the first failing atom, by the loop's order of tests
            i = int(np.argmax(bad))
            raise ExtractionError(
                f"{side} atom {a + i} carries no coupling mass" if clusters[i] == 0
                else "cluster mass centre collapsed to the origin" if clusters[i] <= 2
                else f"{side} atom {a + i} has {clusters[i]} image clusters; "
                "the discretization is too coarse for a two-image structure"
            )
        rep = sums[:, :d] / norm[:, None]
        # an atom's clusters: the first, and the second if it has two
        c0 = np.cumsum(clusters) - clusters
        c1 = c0 + (clusters == 2)
        swap = ~(rowwise_dot(x, rep[c0]) >= rowwise_dot(x, rep[c1]))
        outer, inner = np.where(swap, c1, c0), np.where(swap, c0, c1)
        plus[a:b], minus[a:b], bivalent[a:b] = rep[outer], rep[inner], clusters == 2
        step = rep[outer] - rep[inner]
        jump[a:b] = rowwise_dot(step, x)
        off = step - jump[a:b, None] * x
        residual[a:b] = np.sqrt(rowwise_dot(off, off))
        by_cluster = idx[np.argsort(label, kind="stable")]
        members = np.split(by_cluster, np.cumsum(np.bincount(label))[:-1])
        plus_members += [members[c] for c in outer]
        minus_members += [members[c] for c in inner]
        a = b
    return MultiMap(
        side, n, points.copy(), plus, minus, jump, residual, bivalent,
        np.full(count, "", dtype="<U2"), plus_members, minus_members,
    )


def _label_regions(mm: MultiMap, zero_tol: float) -> np.ndarray:
    """The region rule of both sides; returns x . plus per atom.

    Bivalent atoms get the side's label 2; univalent atoms whose outer image
    is aligned beyond zero_tol get label 1; the rest form the band, label 0.
    """
    dot_plus = np.einsum("ij,ij->i", mm.points, mm.plus)
    label = np.where(mm.bivalent, 2, np.where(dot_plus > zero_tol, 1, 0))
    mm.region = np.array(_REGIONS[mm.side])[label]
    return dot_plus


def extract_multimap(
    coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure, merge_tol: float,
    zero_tol: float,
) -> MultiMap:
    """The per-source two-image map t_plus, t_minus of the coupling support,
    labelled S0 / S1 / S2 by classify_regions at zero_tol.

    Each source's merge radius is merge_tol * sqrt(weight ratio against
    the median target weight), so that heavy atoms' locally spread images
    still merge into one cluster; atoms at or below the median weight use
    merge_tol unchanged.
    """
    tols = _weight_scaled_tols(merge_tol, mu.weights, nu.weights)
    return classify_regions(_two_images("source", mu.n, coupling, mu.points, nu.points, tols),
                            zero_tol)


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


def invert_maps(
    coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure, merge_tol: float,
    zero_tol: float,
) -> MultiMap:
    """Per-target inverse pair s_plus, s_minus by the same extraction, roles swapped.

    s_plus maximizes y . x over the merged source clusters feeding the
    target, s_minus minimizes it, and omega = (s_plus - s_minus) . y.
    Targets with two source clusters form T2; the rest split into T0 / T1
    by the source-side rule at zero_tol. Merge radii scale merge_tol by
    nu's weights against the support's row marginal.
    """
    tols = _weight_scaled_tols(merge_tol, nu.weights, coupling.row_marginal(mu.count))
    inv = _two_images("target", nu.n, coupling, nu.points, mu.points, tols)
    _label_regions(inv, zero_tol)
    return inv


def nu1_split(mm: MultiMap, nu: DiscreteMeasure):
    """Split nu into the part outside the inner images of bivalent sources.

    Returns (nu1, nu_rest): nu1 restricted to targets receiving no inner-
    image mass from any S2 atom, nu_rest the complement; weights keep
    their original (unnormalized) values and partition nu atomwise.
    """
    inner = [mm.minus_members[i] for i in np.flatnonzero(mm.bivalent)]
    rest_idx = np.unique(np.concatenate([np.zeros(0, dtype=int), *inner]))
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
        fh.write(json.dumps({"n": mm.n, "atoms": atom_records(mm), "anomalies": mm.anomalies},
                            sort_keys=True))
