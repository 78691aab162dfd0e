import json
import tracemalloc

import numpy as np
import pytest

from conftest import make_measure, random_suitable_pair, sources_of, support_images
from sphere_ot import geometry as g
from sphere_ot import maps as mp
from sphere_ot import measures as me
from sphere_ot import pipeline as pipe
from sphere_ot import solver as so
from sphere_ot.errors import ExtractionError

NORTH = np.array([0.0, 0.0, 1.0])


@pytest.fixture
def split_instance():
    """One polar source splitting to mirror images above and below the equator."""
    mu = make_measure([NORTH], weights=[1.0])
    nu = make_measure([[0.6, 0.0, 0.8], [0.6, 0.0, -0.8]])
    coupling = so.Coupling(np.array([0, 0]), np.array([0, 1]), np.array([0.5, 0.5]), 0.0)
    return mu, nu, coupling


class TestSupportImages:
    def test_sorted_by_alignment_and_mass_identity(self, split_instance):
        mu, nu, coupling = split_instance
        images = support_images(coupling, mu, nu, 0)
        assert [j for j, _, _ in images] == [0, 1]
        assert sum(m for _, _, m in images) == pytest.approx(mu.weights[0])

    def test_diagonal_single_image(self, rng):
        from sphere_ot import geometry as g

        pts = g.random_sphere_points(2, 10, rng)
        mu = make_measure(pts)
        coupling, _ = so.solve_exact(mu, mu)
        for i in range(10):
            images = support_images(coupling, mu, mu, i)
            assert len(images) == 1
            assert images[0][0] == i


class TestExtract:
    def test_split_example(self, split_instance):
        mu, nu, coupling = split_instance
        mm = mp.extract_multimap(coupling, mu, nu, merge_tol=0.1)
        assert np.allclose(mm.plus[0], [0.6, 0.0, 0.8], atol=1e-12)
        assert np.allclose(mm.minus[0], [0.6, 0.0, -0.8], atol=1e-12)
        assert mm.jump[0] == pytest.approx(1.6, abs=1e-12)
        assert mm.residual[0] == pytest.approx(0.0, abs=1e-12)
        assert mm.bivalent[0]

    def test_single_image_identity(self):
        mu = make_measure([NORTH], weights=[1.0])
        nu = make_measure([NORTH], weights=[1.0])
        coupling = so.Coupling(np.array([0]), np.array([0]), np.array([1.0]), 0.0)
        mm = mp.extract_multimap(coupling, mu, nu, merge_tol=0.1)
        assert np.allclose(mm.plus[0], mm.minus[0])
        assert mm.jump[0] == pytest.approx(0.0, abs=1e-15)
        assert not mm.bivalent[0]

    def test_close_images_merge(self):
        mu = make_measure([NORTH], weights=[1.0])
        second = np.array([0.6 + 1e-9, 0.0, 0.8])
        second /= np.linalg.norm(second)
        nu = make_measure([[0.6, 0.0, 0.8], second])
        coupling = so.Coupling(np.array([0, 0]), np.array([0, 1]), np.array([0.5, 0.5]), 0.0)
        mm = mp.extract_multimap(coupling, mu, nu, merge_tol=1e-6)
        assert not mm.bivalent[0]

    def test_three_clusters_rejected(self):
        mu = make_measure([NORTH], weights=[1.0])
        nu = make_measure([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]],
                          weights=[1 / 3] * 3)
        coupling = so.Coupling(
            np.array([0, 0, 0]), np.array([0, 1, 2]), np.array([1 / 3] * 3), 0.0
        )
        with pytest.raises(ExtractionError):
            mp.extract_multimap(coupling, mu, nu, merge_tol=0.05)

    def test_mass_weighted_merge_average(self):
        mu = make_measure([NORTH], weights=[1.0])
        a = np.array([0.6, 0.0, 0.8])
        b = np.array([0.62, 0.0, np.sqrt(1 - 0.62**2)])
        nu = make_measure([a, b], weights=[0.75, 0.25])
        coupling = so.Coupling(np.array([0, 0]), np.array([0, 1]), np.array([0.75, 0.25]), 0.0)
        mm = mp.extract_multimap(coupling, mu, nu, merge_tol=0.5)
        expected = 0.75 * a + 0.25 * b
        expected /= np.linalg.norm(expected)
        assert np.allclose(mm.plus[0], expected, atol=1e-12)

    def test_light_cluster_keeps_its_point(self):
        a = np.array([0.6, 0.0, 0.8])
        mu = make_measure([NORTH], weights=[1.0])
        nu = make_measure([a], weights=[1.0])
        coupling = so.Coupling(np.array([0]), np.array([0]), np.array([3.2e-9]), 0.0)
        mm = mp.extract_multimap(coupling, mu, nu, merge_tol=0.1)
        assert np.allclose(mm.plus[0], a, rtol=0.0, atol=1e-15)

    def test_antipodal_cluster_collapses(self):
        # a merge radius above the diameter puts both poles in one cluster
        mu = make_measure([NORTH], weights=[1.0])
        nu = make_measure([NORTH, -NORTH])
        coupling = so.Coupling(np.array([0, 0]), np.array([0, 1]), np.array([0.5, 0.5]), 0.0)
        with pytest.raises(ExtractionError, match="collapsed"):
            mp.extract_multimap(coupling, mu, nu, merge_tol=3.0)


def _single_linkage_clusters(points, tol):
    """Reference: the former single linkage of one atom's images, by a
    union-find over the close pairs in row-major order."""
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
    groups = {}
    for a in range(k):
        groups.setdefault(find(a), []).append(a)
    return list(groups.values())


def _spherical_mean(points, masses):
    """Reference: the former cluster image, the normalised mass-weighted sum."""
    v = (points * masses[:, None]).sum(axis=0)
    norm = np.linalg.norm(v)
    if norm < 1e-8 * masses.sum():
        raise ExtractionError("cluster mass centre collapsed to the origin")
    return v / norm


def _merge_images(x, points, masses, merge_tol, what, index):
    """Reference: the former merge of one atom's images into (outer, inner,
    outer cluster, inner cluster, bivalent)."""
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


def _former_side(coupling, points, opposite, own, other, tols, what):
    """Reference: the former per-atom loop of one side, as a plain dict."""
    count, d = points.shape
    rec = {
        "plus": np.empty((count, d)), "minus": np.empty((count, d)),
        "jump": np.empty(count), "residual": np.empty(count),
        "bivalent": np.zeros(count, dtype=bool), "plus_members": [], "minus_members": [],
    }
    order = np.argsort(own, kind="stable")
    own_sorted = own[order]
    other = other[order]
    mass = coupling.mass[order]
    bounds = np.searchsorted(own_sorted, np.arange(count + 1))
    for a in range(count):
        lo, hi = bounds[a], bounds[a + 1]
        if lo == hi:
            raise ExtractionError(f"{what} atom {a} carries no coupling mass")
        idx = other[lo:hi]
        x = points[a]
        tp, tm, plus_cl, minus_cl, is_bi = _merge_images(
            x, opposite[idx], mass[lo:hi], tols[a], what, a
        )
        rec["plus"][a] = tp
        rec["minus"][a] = tm
        rec["jump"][a] = float((tp - tm) @ x)
        rec["residual"][a] = float(np.linalg.norm(tp - tm - rec["jump"][a] * x))
        rec["bivalent"][a] = is_bi
        rec["plus_members"].append(idx[plus_cl])
        rec["minus_members"].append(idx[minus_cl])
    rec["points"] = points.copy()
    return rec


def _pairwise_linkage(points, tol):
    """Reference: single linkage by a union-find over every pair in turn."""
    k = len(points)
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(k):
        for b in range(a + 1, k):
            if np.linalg.norm(points[a] - points[b]) < tol:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for a in range(k):
        groups.setdefault(find(a), []).append(a)
    return list(groups.values())


def _groups(labels):
    """Clusters as lists of member rows, in label order."""
    return [np.flatnonzero(labels == c).tolist() for c in range(labels.max() + 1)]


class TestSingleLinkage:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_pairwise_reference(self, rng, n):
        # tol on a pair distance or one ulp either side of it, so pairs sit
        # right at the threshold; clusters are small spread-out patches. The
        # atoms go in together, so each atom's labels must also follow the
        # previous atom's.
        for _ in range(30):
            atoms, tols = [], []
            for _ in range(10):
                k = int(rng.integers(1, 20))
                centres = g.random_sphere_points(n, 3, rng)
                points = centres[rng.integers(0, 3, size=k)] + 0.05 * rng.normal(size=(k, n + 1))
                points /= np.linalg.norm(points, axis=1, keepdims=True)
                dists = [np.linalg.norm(p - q)
                         for i, p in enumerate(points) for q in points[i + 1:]]
                tol = float(rng.choice(dists)) if dists else 0.1
                atoms.append(points)
                tols.append(float(np.nextafter(tol, rng.choice([-np.inf, tol, np.inf]))))
            sizes = np.array([len(p) for p in atoms])
            labels = mp._linkage_labels(np.concatenate(atoms), sizes, np.array(tols))
            start = 0
            for points, tol, size in zip(atoms, tols, sizes):
                own = labels[start:start + size]
                assert own.min() == (labels[:start].max() + 1 if start else 0)
                assert _groups(own - own.min()) == _pairwise_linkage(points, tol)
                assert _single_linkage_clusters(points, tol) == _pairwise_linkage(points, tol)
                start += size

    def test_single_point(self):
        labels = mp._linkage_labels(np.array([NORTH]), np.array([1]), np.array([0.1]))
        assert _groups(labels) == [[0]]


class TestClassify:
    def test_degenerate_band(self):
        mu = make_measure([NORTH], weights=[1.0])
        nu = make_measure([[1.0, 0.0, 0.0]], weights=[1.0])
        coupling = so.Coupling(np.array([0]), np.array([0]), np.array([1.0]), 2.0)
        mm = mp.extract_multimap(coupling, mu, nu, merge_tol=0.1)
        mm = mp.classify_regions(mm, zero_tol=0.05)
        assert mm.region[0] == "S0"

    def test_univalent_positive(self):
        mu = make_measure([NORTH], weights=[1.0])
        nu = make_measure([NORTH], weights=[1.0])
        coupling = so.Coupling(np.array([0]), np.array([0]), np.array([1.0]), 0.0)
        mm = mp.extract_multimap(coupling, mu, nu, merge_tol=0.1)
        mm = mp.classify_regions(mm, zero_tol=0.05)
        assert mm.region[0] == "S1"

    def test_bivalent_split(self, split_instance):
        mu, nu, coupling = split_instance
        mm = mp.classify_regions(mp.extract_multimap(coupling, mu, nu, 0.1), 0.05)
        assert mm.region[0] == "S2"
        assert float(mm.points[0] @ mm.plus[0]) == pytest.approx(0.8)
        assert float(mm.points[0] @ mm.minus[0]) == pytest.approx(-0.8)
        assert not mm.anomalies

    def test_sign_anomaly_recorded(self):
        # bivalent pair with both images on the positive side
        mu = make_measure([NORTH], weights=[1.0])
        nu = make_measure([[0.6, 0.0, 0.8], [-0.6, 0.0, 0.8]])
        coupling = so.Coupling(np.array([0, 0]), np.array([0, 1]), np.array([0.5, 0.5]), 0.0)
        mm = mp.classify_regions(mp.extract_multimap(coupling, mu, nu, 0.1), 0.05)
        assert mm.region[0] == "S2"
        assert mm.anomalies and mm.anomalies[0]["kind"] == "bivalent sign structure"

    def test_partition_exhaustive(self, bivalent_instance):
        mm = bivalent_instance["mm"]
        assert np.all(np.isin(mm.region, mp.REGION_SOURCE))
        counts = mm.region_counts()
        assert sum(counts.values()) == mm.count
        assert counts["S2"] > 0


class TestInverse:
    def test_mirror_split(self):
        # the split example with roles swapped: one target fed from above
        # and below the equator
        mu = make_measure([[0.6, 0.0, 0.8], [0.6, 0.0, -0.8]])
        nu = make_measure([NORTH], weights=[1.0])
        coupling = so.Coupling(np.array([0, 1]), np.array([0, 0]), np.array([0.5, 0.5]), 0.0)
        mm = mp.classify_regions(mp.extract_multimap(coupling, mu, nu, 0.1), 0.05)
        inv = mp.invert_maps(mm, coupling, nu)
        assert inv.region[0] == "T2"
        assert inv.jump[0] == pytest.approx(1.6, abs=1e-12)
        assert np.allclose(inv.plus[0], [0.6, 0.0, 0.8], atol=1e-12)
        assert np.allclose(inv.minus[0], [0.6, 0.0, -0.8], atol=1e-12)

    def test_identity_all_univalent(self, rng):
        from sphere_ot import geometry as g

        pts = g.random_sphere_points(2, 12, rng)
        mu = make_measure(pts)
        coupling, _ = so.solve_exact(mu, mu)
        mm = mp.classify_regions(mp.extract_multimap(coupling, mu, mu, 0.1), 0.05)
        inv = mp.invert_maps(mm, coupling, mu)
        assert np.all(inv.region == "T1")
        assert np.allclose(inv.jump, 0.0, atol=1e-15)

    def test_bivalent_targets_fed_by_both(self, bivalent_instance):
        coupling = bivalent_instance["coupling"]
        inv = bivalent_instance["inv"]
        for j in inv.indices_in("T2"):
            sources, _ = sources_of(coupling, int(j))
            assert set(inv.plus_members[j]).issubset(set(sources.tolist()))
            assert set(inv.minus_members[j]).issubset(set(sources.tolist()))
            assert len(inv.plus_members[j]) and len(inv.minus_members[j])


class TestTargetSplit:
    def test_no_bivalent_sources(self, rng):
        from sphere_ot import geometry as g

        pts = g.random_sphere_points(2, 8, rng)
        mu = make_measure(pts)
        coupling, _ = so.solve_exact(mu, mu)
        mm = mp.classify_regions(mp.extract_multimap(coupling, mu, mu, 0.1), 0.05)
        nu1, nu_rest = mp.nu1_split(mm, mu)
        assert nu1.count == 8
        assert nu_rest.count == 0
        assert nu1.mass == pytest.approx(1.0)

    def test_forced_split_moves_inner_atom(self, split_instance):
        mu, nu, coupling = split_instance
        mm = mp.classify_regions(mp.extract_multimap(coupling, mu, nu, 0.1), 0.05)
        nu1, nu_rest = mp.nu1_split(mm, nu)
        assert nu_rest.count == 1
        assert np.allclose(nu_rest.points[0], [0.6, 0.0, -0.8])
        assert nu1.mass + nu_rest.mass == pytest.approx(nu.mass, abs=1e-12)

    def test_partition_atomwise(self, bivalent_instance):
        mm = bivalent_instance["mm"]
        nu = bivalent_instance["nu"]
        nu1, nu_rest = mp.nu1_split(mm, nu)
        assert nu1.count + nu_rest.count == nu.count
        assert nu1.mass + nu_rest.mass == pytest.approx(nu.mass, abs=1e-12)


class TestSolvedInstanceInvariants:
    def test_bivalent_geometry(self, bivalent_instance):
        mm = bivalent_instance["mm"]
        inv = bivalent_instance["inv"]
        s2 = mm.indices_in("S2")
        assert len(s2) > 0
        dots_plus = np.einsum("ij,ij->i", mm.points[s2], mm.plus[s2])
        dots_minus = np.einsum("ij,ij->i", mm.points[s2], mm.minus[s2])
        assert np.all(mm.jump[s2] > 0)
        assert np.all(dots_plus > 0)
        assert np.all(dots_minus < 0)
        # sole supplier at the discrete level: outer and inner image sets
        # of the bivalent region are disjoint, and no outer image is a
        # bivalent target
        outer = {int(j) for i in s2 for j in mm.plus_members[i]}
        inner = {int(j) for i in s2 for j in mm.minus_members[i]}
        assert not outer & inner
        assert all(inv.region[j] != "T2" for j in outer)
        assert all(float(inv.points[j] @ inv.plus[j]) > 0 for j in outer)

    def test_lambda_bound(self, bivalent_instance):
        assert float(bivalent_instance["mm"].jump.max()) <= 2.0 + 1e-9

    def test_support_monotonicity(self, bivalent_instance):
        val = so.support_monotonicity_min(
            bivalent_instance["coupling"], bivalent_instance["mu"], bivalent_instance["nu"]
        )
        assert val >= -1e-9

    def test_multimap_json(self, tmp_path, bivalent_instance):
        import json

        mm = bivalent_instance["mm"]
        path = tmp_path / "mm.json"
        mp.save_multimap_json(mm, path)
        with open(path) as fh:
            data = json.load(fh)
        assert len(data["atoms"]) == mm.count
        rec = data["atoms"][0]
        assert set(rec) == {"i", "t_plus", "t_minus", "lambda", "residual", "region"}


def _former_loops(coupling, mu, nu, merge_tol, zero_tol):
    """Reference: the per-side loops extract_multimap, classify_regions and
    invert_maps ran before they shared one routine, as plain dicts."""
    src = _former_side(coupling, mu.points, nu.points, coupling.rows, coupling.cols,
                       mp._weight_scaled_tols(merge_tol, mu.weights, nu.weights), "source")
    src["region"], anomalies = _former_source_regions(src, zero_tol)
    mu_weights = np.bincount(coupling.rows, weights=coupling.mass, minlength=mu.count)
    tgt = _former_side(coupling, nu.points, src["points"], coupling.cols, coupling.rows,
                       mp._weight_scaled_tols(merge_tol, nu.weights, mu_weights), "target")
    tgt["region"] = _former_target_regions(tgt, zero_tol)
    return src, anomalies, tgt


def _former_source_regions(rec, zero_tol):
    """Reference: the former classify_regions loop; (region, anomalies)."""
    count = len(rec["points"])
    anomalies = []
    region = np.full(count, "", dtype="<U2")
    dot_plus = np.einsum("ij,ij->i", rec["points"], rec["plus"])
    dot_minus = np.einsum("ij,ij->i", rec["points"], rec["minus"])
    for i in range(count):
        if rec["bivalent"][i]:
            region[i] = "S2"
            if not (dot_plus[i] > 0.0 and dot_minus[i] < 0.0):
                anomalies.append({"atom": int(i), "kind": "bivalent sign structure",
                                  "dot_plus": float(dot_plus[i]),
                                  "dot_minus": float(dot_minus[i])})
        elif abs(dot_plus[i]) <= zero_tol:
            region[i] = "S0"
        elif dot_plus[i] > zero_tol:
            region[i] = "S1"
        else:
            region[i] = "S0"
            anomalies.append({"atom": int(i), "kind": "univalent negative alignment",
                              "dot_plus": float(dot_plus[i])})
    return region, anomalies


def _former_target_regions(rec, zero_tol):
    """Reference: the former T0 / T1 / T2 loop of invert_maps."""
    count = len(rec["points"])
    region = np.full(count, "", dtype="<U2")
    dot_plus = np.einsum("ij,ij->i", rec["points"], rec["plus"])
    for j in range(count):
        if rec["bivalent"][j]:
            region[j] = "T2"
        elif abs(dot_plus[j]) <= zero_tol:
            region[j] = "T0"
        else:
            region[j] = "T1" if dot_plus[j] > 0 else "T0"
    return region


def _instance(kind, n, count):
    """Plan, measures and tolerances of one instance for the reference test."""
    if kind == "uneven":
        # density floor 0.01: weights spread over a factor of about 250
        mesh, mu, nu = random_suitable_pair(n, count, np.random.default_rng(count), floor=0.01)
    else:
        mesh = me.quasi_uniform_mesh(n, count, 0)
        mu = me.sample_density(pipe.builtin_density("cap:0.98", n), mesh)
        nu = me.uniform_measure(mesh)
    if kind == "entropic":
        coupling, _ = so.solve_entropic(mu, nu, reg=0.01)
        coupling = pipe.extraction_support(coupling, "entropic")
    else:
        coupling, _ = so.solve_exact(mu, nu)
    return coupling, mu, nu, 2.0 * mesh.spacing, mesh.spacing


def _assert_bitwise(rec, ref, names=("plus", "minus", "jump", "residual", "bivalent")):
    for name in names:
        got = getattr(rec, name)
        assert got.dtype == ref[name].dtype and got.tobytes() == ref[name].tobytes()
    for name in ("plus_members", "minus_members"):
        got = getattr(rec, name)
        assert len(got) == len(ref[name])
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                   for a, b in zip(got, ref[name]))


def _assert_both_bitwise(coupling, mu, nu, merge_tol, zero_tol):
    mm = mp.classify_regions(mp.extract_multimap(coupling, mu, nu, merge_tol), zero_tol)
    inv = mp.invert_maps(mm, coupling, nu)
    src, anomalies, tgt = _former_loops(coupling, mu, nu, merge_tol, zero_tol)
    for rec, ref in ((mm, src), (inv, tgt)):
        _assert_bitwise(rec, ref, ("points", "plus", "minus", "jump", "residual", "bivalent",
                                   "region"))
    assert mm.anomalies == anomalies


# Source atoms at the north pole. Atom 0 splits to mirror images; atom 1 is
# the case under test; atom 2 has three image clusters, so an error at atom 1
# must win over it, as it did in the loop. Targets: the split pair, three
# images on the equator, and the two poles.
_TARGETS = [[0.6, 0.0, 0.8], [0.6, 0.0, -0.8], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]
_CASES = {
    # (atom 1's targets, their masses, merge radius)
    "three_clusters": ([2, 3, 4], [0.1, 0.1, 0.1], 0.05),
    "zero_weight": ([0, 1], [0.0, 0.0], 0.05),
    "collapsed": ([5, 6], [0.1, 0.1], 3.0),
    "no_images": ([], [], 0.05),
}


class TestFormerLoops:
    @pytest.mark.parametrize("kind, n, count", [
        ("exact", 1, 150), ("exact", 2, 220), ("exact", 3, 200), ("entropic", 1, 150),
        ("entropic", 2, 200), ("entropic", 3, 300), ("uneven", 2, 120),
    ])
    def test_bitwise_equal(self, kind, n, count):
        _assert_both_bitwise(*_instance(kind, n, count))

    @pytest.mark.parametrize("chunk", [1, 7, 200])
    @pytest.mark.parametrize("kind, n, count", [("entropic", 2, 200), ("uneven", 2, 120)])
    def test_atoms_split_across_chunks(self, monkeypatch, chunk, kind, n, count):
        monkeypatch.setattr(mp, "PAIR_CHUNK", chunk)
        _assert_both_bitwise(*_instance(kind, n, count))

    @pytest.mark.parametrize("chunk", [1, 2**16])
    @pytest.mark.parametrize("case", sorted(_CASES))
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_degenerate_atoms(self, monkeypatch, case, chunk):
        monkeypatch.setattr(mp, "PAIR_CHUNK", chunk)
        targets, masses, merge_tol = _CASES[case]
        # the zero-weight case passes, so the loop must finish: no atom 2
        last = [] if case == "zero_weight" else [2, 3, 4]
        rows = [0, 0] + [1] * len(targets) + [2] * len(last)
        mass = np.array([0.2, 0.2] + masses + [0.1] * len(last))
        coupling = so.Coupling(np.array(rows), np.array([0, 1] + targets + last), mass, 0.0)
        mu = make_measure([NORTH] * (rows[-1] + 1))
        nu = make_measure(_TARGETS)
        tols = mp._weight_scaled_tols(merge_tol, mu.weights, nu.weights)
        if not last:
            ref = _former_side(coupling, mu.points, nu.points, coupling.rows, coupling.cols,
                               tols, "source")
            mm = mp.extract_multimap(coupling, mu, nu, merge_tol)
            assert np.isnan(mm.plus[1]).all() and mm.bivalent[1]
            _assert_bitwise(mm, ref)
            return
        with pytest.raises(ExtractionError) as former:
            _former_side(coupling, mu.points, nu.points, coupling.rows, coupling.cols,
                         tols, "source")
        with pytest.raises(ExtractionError) as new:
            mp.extract_multimap(coupling, mu, nu, merge_tol)
        assert str(new.value) == str(former.value)
        assert ("atom 1 " in str(new.value)) == (case != "collapsed")

    def test_entropic_extraction_memory(self):
        # reg 0.1 keeps about 100 images per atom here: listing every atom's
        # image pairs at once peaks near 122 MiB, chunks of PAIR_CHUNK pairs
        # near 5 MiB
        mesh = me.quasi_uniform_mesh(2, 300, 0)
        mu = me.sample_density(pipe.builtin_density("cap:0.98", 2), mesh)
        nu = me.uniform_measure(mesh)
        coupling = pipe.extraction_support(so.solve_entropic(mu, nu, reg=0.1)[0], "entropic")
        tracemalloc.start()
        try:
            mp.extract_multimap(coupling, mu, nu, 2.0 * mesh.spacing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_region_rule_at_band_edges(self):
        # x . plus exactly at +-zero_tol, inside and outside the band, and NaN,
        # each on a univalent and a bivalent atom
        zero_tol = 0.25
        dots = np.array([0.25, -0.25, 0.0, 0.5, -0.5, 0.75, np.nan])
        count = 2 * len(dots)
        z = np.concatenate([dots, dots])
        plus = np.column_stack([np.sqrt(np.abs(1 - z**2)), np.zeros(count), z])
        minus = plus[::-1].copy()
        rec = {
            "points": np.tile([0.0, 0.0, 1.0], (count, 1)), "plus": plus, "minus": minus,
            "bivalent": np.arange(count) >= len(dots),
        }

        def record(side):
            return mp.MultiMap(
                side=side, n=2, points=rec["points"], plus=plus, minus=minus,
                jump=np.zeros(count), residual=np.zeros(count), bivalent=rec["bivalent"],
                region=np.full(count, "", dtype="<U2"),
            )

        region, anomalies = _former_source_regions(rec, zero_tol)
        mm = mp.classify_regions(record("source"), zero_tol)
        assert mm.region.tobytes() == region.tobytes()
        assert json.dumps(mm.anomalies) == json.dumps(anomalies)
        inv = record("target")
        mp._label_regions(inv, zero_tol)
        assert inv.region.tobytes() == _former_target_regions(rec, zero_tol).tobytes()
