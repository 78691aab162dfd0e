import numpy as np
import pytest

from conftest import make_measure
from sphere_ot import geometry as g
from sphere_ot import maps as mp
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
        images = mp.support_images(coupling, mu, nu, 0)
        assert [j for j, _, _ in images] == [0, 1]
        assert sum(m for _, _, m in images) == pytest.approx(mu.weights[0])

    def test_diagonal_single_image(self, rng):
        from sphere_ot import geometry as g

        pts = g.random_sphere_points(2, 10, rng)
        mu = make_measure(pts)
        coupling, _ = so.solve_exact(mu, mu)
        for i in range(10):
            images = mp.support_images(coupling, mu, mu, i)
            assert len(images) == 1
            assert images[0][0] == i


class TestExtract:
    def test_split_example(self, split_instance):
        mu, nu, coupling = split_instance
        mm = mp.extract_multimap(coupling, mu, nu, merge_tol=0.1)
        assert np.allclose(mm.t_plus[0], [0.6, 0.0, 0.8], atol=1e-12)
        assert np.allclose(mm.t_minus[0], [0.6, 0.0, -0.8], atol=1e-12)
        assert mm.lam[0] == pytest.approx(1.6, abs=1e-12)
        assert mm.residual[0] == pytest.approx(0.0, abs=1e-12)
        assert mm.bivalent[0]

    def test_single_image_identity(self):
        mu = make_measure([NORTH], weights=[1.0])
        nu = make_measure([NORTH], weights=[1.0])
        coupling = so.Coupling(np.array([0]), np.array([0]), np.array([1.0]), 0.0)
        mm = mp.extract_multimap(coupling, mu, nu, merge_tol=0.1)
        assert np.allclose(mm.t_plus[0], mm.t_minus[0])
        assert mm.lam[0] == pytest.approx(0.0, abs=1e-15)
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
            mp.extract_multimap(coupling, mu, nu, merge_tol=0.05, weight_scaled=False)

    def test_mass_weighted_merge_average(self):
        mu = make_measure([NORTH], weights=[1.0])
        a = np.array([0.6, 0.0, 0.8])
        b = np.array([0.62, 0.0, np.sqrt(1 - 0.62**2)])
        nu = make_measure([a, b], weights=[0.75, 0.25])
        coupling = so.Coupling(np.array([0, 0]), np.array([0, 1]), np.array([0.75, 0.25]), 0.0)
        mm = mp.extract_multimap(coupling, mu, nu, merge_tol=0.5)
        expected = 0.75 * a + 0.25 * b
        expected /= np.linalg.norm(expected)
        assert np.allclose(mm.t_plus[0], expected, atol=1e-12)


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


class TestSingleLinkage:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_pairwise_reference(self, rng, n):
        # tol on a pair distance or one ulp either side of it, so pairs sit
        # right at the threshold; clusters are small spread-out patches
        for _ in range(300):
            k = int(rng.integers(1, 20))
            centres = g.random_sphere_points(n, 3, rng)
            points = centres[rng.integers(0, 3, size=k)] + 0.05 * rng.normal(size=(k, n + 1))
            points /= np.linalg.norm(points, axis=1, keepdims=True)
            dists = [np.linalg.norm(p - q) for i, p in enumerate(points) for q in points[i + 1:]]
            tol = float(rng.choice(dists)) if dists else 0.1
            tol = float(np.nextafter(tol, rng.choice([-np.inf, tol, np.inf])))
            assert mp._single_linkage_clusters(points, tol) == _pairwise_linkage(points, tol)

    def test_single_point(self):
        assert mp._single_linkage_clusters(np.array([NORTH]), 0.1) == [[0]]


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
        assert float(mm.source_points[0] @ mm.t_plus[0]) == pytest.approx(0.8)
        assert float(mm.source_points[0] @ mm.t_minus[0]) == pytest.approx(-0.8)
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
        assert inv.omega[0] == pytest.approx(1.6, abs=1e-12)
        assert np.allclose(inv.s_plus[0], [0.6, 0.0, 0.8], atol=1e-12)
        assert np.allclose(inv.s_minus[0], [0.6, 0.0, -0.8], atol=1e-12)

    def test_identity_all_univalent(self, rng):
        from sphere_ot import geometry as g

        pts = g.random_sphere_points(2, 12, rng)
        mu = make_measure(pts)
        coupling, _ = so.solve_exact(mu, mu)
        mm = mp.classify_regions(mp.extract_multimap(coupling, mu, mu, 0.1), 0.05)
        inv = mp.invert_maps(mm, coupling, mu)
        assert np.all(inv.region == "T1")
        assert np.allclose(inv.omega, 0.0, atol=1e-15)

    def test_bivalent_targets_fed_by_both(self, bivalent_instance):
        coupling = bivalent_instance["coupling"]
        inv = bivalent_instance["inv"]
        for j in inv.indices_in("T2"):
            sources, _ = coupling.sources_of(int(j))
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
        dots_plus = np.einsum("ij,ij->i", mm.source_points[s2], mm.t_plus[s2])
        dots_minus = np.einsum("ij,ij->i", mm.source_points[s2], mm.t_minus[s2])
        assert np.all(mm.lam[s2] > 0)
        assert np.all(dots_plus > 0)
        assert np.all(dots_minus < 0)
        # sole supplier at the discrete level: outer and inner image sets
        # of the bivalent region are disjoint, and no outer image is a
        # bivalent target
        outer = {int(j) for i in s2 for j in mm.plus_members[i]}
        inner = {int(j) for i in s2 for j in mm.minus_members[i]}
        assert not outer & inner
        assert all(inv.region[j] != "T2" for j in outer)
        assert all(float(inv.target_points[j] @ inv.s_plus[j]) > 0 for j in outer)

    def test_lambda_bound(self, bivalent_instance):
        assert float(bivalent_instance["mm"].lam.max()) <= 2.0 + 1e-9

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
