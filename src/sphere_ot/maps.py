"""Extraction of the two-valued transport map from an optimal coupling.

Each source atom's coupling images are merged into clusters (images within
merge_tol belong to one continuum destination split across neighbouring
atoms by discretization). One cluster means the atom is univalent; two
clusters give the outer/inner image pair: the outer image t_plus maximizes
x . y, the inner image t_minus minimizes it, and their difference is
lambda(x) x up to a recorded residual. More than two clusters means the
discretization cannot support a two-image structure and is an error.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ExtractionError
from .measures import DiscreteMeasure
from .solver import Coupling

REGION_SOURCE = ("S0", "S1", "S2")
REGION_TARGET = ("T0", "T1", "T2")


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
    if norm < 1e-8:
        raise ExtractionError("cluster mass centre collapsed to the origin")
    return v / norm


@dataclass
class MultiMap:
    """Per-source-atom record of the extracted map pair and its region label."""

    n: int
    source_points: np.ndarray       # (N, n+1)
    t_plus: np.ndarray              # (N, n+1)
    t_minus: np.ndarray             # (N, n+1)
    lam: np.ndarray                 # (N,) normal-jump size (t_plus - t_minus) . x
    residual: np.ndarray            # (N,) | t_plus - t_minus - lam x |
    bivalent: np.ndarray            # (N,) bool
    region: np.ndarray              # (N,) in {"", "S0", "S1", "S2"}
    merge_tol: float = np.nan
    zero_tol: float = np.nan
    plus_members: list = field(default_factory=list)   # target indices per atom
    minus_members: list = field(default_factory=list)
    anomalies: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.lam)

    def indices_in(self, label: str) -> np.ndarray:
        return np.nonzero(self.region == label)[0]

    def region_counts(self) -> dict:
        return {label: int((self.region == label).sum()) for label in REGION_SOURCE}


@dataclass
class InverseMaps:
    """Per-target-atom record of the inverse source pair and target region."""

    n: int
    target_points: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    omega: np.ndarray
    residual: np.ndarray
    bivalent: np.ndarray
    region: np.ndarray
    plus_members: list = field(default_factory=list)   # source indices per atom
    minus_members: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.omega)

    def indices_in(self, label: str) -> np.ndarray:
        return np.nonzero(self.region == label)[0]

    def region_counts(self) -> dict:
        return {label: int((self.region == label).sum()) for label in REGION_TARGET}


def support_images(coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure, i: int):
    """Targets fed by source atom i as (index, point, mass), best aligned first."""
    cols, mass = coupling.images_of(i)
    order = np.argsort(-(nu.points[cols] @ mu.points[i]))
    return [(int(cols[k]), nu.points[cols[k]], float(mass[k])) for k in order]


def _merge_images(x, points, masses, merge_tol, what, index):
    clusters = _single_linkage_clusters(points, merge_tol)
    if len(clusters) > 2:
        raise ExtractionError(
            f"{what} atom {index} has {len(clusters)} image clusters; "
            "the discretization is too coarse for a two-image structure"
        )
    reps = [_spherical_mean(points[c], masses[c]) for c in clusters]
    dots = [float(x @ r) for r in reps]
    if len(reps) == 1:
        return reps[0], reps[0], clusters[0], clusters[0], False
    hi, lo = (0, 1) if dots[0] >= dots[1] else (1, 0)
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


def extract_multimap(
    coupling: Coupling,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    merge_tol: float,
    weight_scaled: bool = True,
) -> MultiMap:
    """Build the per-source two-image map from the coupling support.

    With weight_scaled (default), each source's merge radius is
    merge_tol * sqrt(weight ratio) so that heavy atoms' locally spread
    images still merge into one cluster; atoms at or below the median
    weight use merge_tol unchanged.
    """
    n_atoms = mu.count
    d = mu.points.shape[1]
    tols = (
        _weight_scaled_tols(merge_tol, mu.weights, nu.weights)
        if weight_scaled
        else np.full(n_atoms, merge_tol)
    )
    t_plus = np.empty((n_atoms, d))
    t_minus = np.empty((n_atoms, d))
    lam = np.empty(n_atoms)
    residual = np.empty(n_atoms)
    bivalent = np.zeros(n_atoms, dtype=bool)
    plus_members: list = []
    minus_members: list = []
    order = np.argsort(coupling.rows, kind="stable")
    rows = coupling.rows[order]
    cols = coupling.cols[order]
    mass = coupling.mass[order]
    bounds = np.searchsorted(rows, np.arange(n_atoms + 1))
    for i in range(n_atoms):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            raise ExtractionError(f"source atom {i} carries no coupling mass")
        idx = cols[lo:hi]
        pts = nu.points[idx]
        ms = mass[lo:hi]
        x = mu.points[i]
        tp, tm, plus_cl, minus_cl, is_bi = _merge_images(x, pts, ms, tols[i], "source", i)
        t_plus[i] = tp
        t_minus[i] = tm
        lam[i] = float((tp - tm) @ x)
        residual[i] = float(np.linalg.norm(tp - tm - lam[i] * x))
        bivalent[i] = is_bi
        plus_members.append(idx[plus_cl])
        minus_members.append(idx[minus_cl])
    return MultiMap(
        n=mu.n,
        source_points=mu.points.copy(),
        t_plus=t_plus,
        t_minus=t_minus,
        lam=lam,
        residual=residual,
        bivalent=bivalent,
        region=np.full(n_atoms, "", dtype="<U2"),
        merge_tol=merge_tol,
        plus_members=plus_members,
        minus_members=minus_members,
    )


def classify_regions(mm: MultiMap, zero_tol: float) -> MultiMap:
    """Label every source atom S0 / S1 / S2 in place and return the map.

    Univalent atoms with |x . t_plus| within zero_tol of zero form the
    degenerate band S0; other univalent atoms with positive alignment are
    S1; bivalent atoms are S2. Bivalent atoms missing the sign structure
    (x . t_plus > 0 > x . t_minus) are recorded as anomalies, as are
    univalent atoms with strongly negative alignment.
    """
    mm.anomalies = []
    mm.zero_tol = zero_tol
    dot_plus = np.einsum("ij,ij->i", mm.source_points, mm.t_plus)
    dot_minus = np.einsum("ij,ij->i", mm.source_points, mm.t_minus)
    for i in range(mm.count):
        if mm.bivalent[i]:
            mm.region[i] = "S2"
            if not (dot_plus[i] > 0.0 and dot_minus[i] < 0.0):
                mm.anomalies.append(
                    {"atom": int(i), "kind": "bivalent sign structure",
                     "dot_plus": float(dot_plus[i]), "dot_minus": float(dot_minus[i])}
                )
        elif abs(dot_plus[i]) <= zero_tol:
            mm.region[i] = "S0"
        elif dot_plus[i] > zero_tol:
            mm.region[i] = "S1"
        else:
            # Univalent atom mapping across the equator: no continuum
            # counterpart; keep it in the degenerate band but flag it.
            mm.region[i] = "S0"
            mm.anomalies.append(
                {"atom": int(i), "kind": "univalent negative alignment",
                 "dot_plus": float(dot_plus[i])}
            )
    return mm


def invert_maps(
    mm: MultiMap,
    coupling: Coupling,
    nu: DiscreteMeasure,
    merge_tol: float | None = None,
    zero_tol: float | None = None,
    weight_scaled: bool = True,
) -> InverseMaps:
    """Per-target inverse pair by the same clustering, roles swapped.

    s_plus maximizes y . x over the merged source clusters feeding the
    target, s_minus minimizes it, and omega = (s_plus - s_minus) . y.
    Targets with two source clusters form T2; the rest split into T0 / T1
    by the alignment of s_plus, mirroring the source-side bands.
    Tolerances default to the ones the multimap was built with.
    """
    m_atoms = nu.count
    d = nu.points.shape[1]
    if merge_tol is None:
        merge_tol = mm.merge_tol
    if zero_tol is None:
        zero_tol = mm.zero_tol
    if not np.isfinite(merge_tol) or not np.isfinite(zero_tol):
        raise ExtractionError("merge_tol / zero_tol unavailable; classify the map first")
    mu_weights = np.bincount(coupling.rows, weights=coupling.mass, minlength=mm.count)
    tols = (
        _weight_scaled_tols(merge_tol, nu.weights, mu_weights)
        if weight_scaled
        else np.full(m_atoms, merge_tol)
    )
    s_plus = np.empty((m_atoms, d))
    s_minus = np.empty((m_atoms, d))
    omega = np.empty(m_atoms)
    residual = np.empty(m_atoms)
    bivalent = np.zeros(m_atoms, dtype=bool)
    plus_members: list = []
    minus_members: list = []
    order = np.argsort(coupling.cols, kind="stable")
    rows = coupling.rows[order]
    cols = coupling.cols[order]
    mass = coupling.mass[order]
    bounds = np.searchsorted(cols, np.arange(m_atoms + 1))
    for j in range(m_atoms):
        lo, hi = bounds[j], bounds[j + 1]
        if lo == hi:
            raise ExtractionError(f"target atom {j} receives no coupling mass")
        idx = rows[lo:hi]
        pts = mm.source_points[idx]
        ms = mass[lo:hi]
        y = nu.points[j]
        sp, sm, plus_cl, minus_cl, is_bi = _merge_images(y, pts, ms, tols[j], "target", j)
        s_plus[j] = sp
        s_minus[j] = sm
        omega[j] = float((sp - sm) @ y)
        residual[j] = float(np.linalg.norm(sp - sm - omega[j] * y))
        bivalent[j] = is_bi
        plus_members.append(idx[plus_cl])
        minus_members.append(idx[minus_cl])
    region = np.full(m_atoms, "", dtype="<U2")
    dot_plus = np.einsum("ij,ij->i", nu.points, s_plus)
    for j in range(m_atoms):
        if bivalent[j]:
            region[j] = "T2"
        elif abs(dot_plus[j]) <= zero_tol:
            region[j] = "T0"
        else:
            region[j] = "T1" if dot_plus[j] > 0 else "T0"
    return InverseMaps(
        n=mm.n,
        target_points=nu.points.copy(),
        s_plus=s_plus,
        s_minus=s_minus,
        omega=omega,
        residual=residual,
        bivalent=bivalent,
        region=region,
        plus_members=plus_members,
        minus_members=minus_members,
    )


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


def save_multimap_json(mm: MultiMap, path) -> None:
    records = [
        {
            "i": int(i),
            "t_plus": [float(v) for v in mm.t_plus[i]],
            "t_minus": [float(v) for v in mm.t_minus[i]],
            "lambda": float(mm.lam[i]),
            "residual": float(mm.residual[i]),
            "region": str(mm.region[i]),
        }
        for i in range(mm.count)
    ]
    with open(path, "w") as fh:
        json.dump({"n": mm.n, "atoms": records, "anomalies": mm.anomalies}, fh, sort_keys=True)
