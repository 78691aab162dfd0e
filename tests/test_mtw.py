import math

import numpy as np
import pytest

import sphere_cost as sc
from sphere_ot import geometry as g
from sphere_ot.errors import ConfigError, DomainError

NORTH = np.array([0.0, 0.0, 1.0])
SWEEP_ALIGNMENTS = np.linspace(0.12, 0.98, 15)


def targets_around(x, coords_list):
    chart = sc.Chart(x)
    return np.array([sc.chart_lift(chart, np.asarray(c, dtype=float)) for c in coords_list])


class TestTwist:
    def test_ratio_is_two(self, rng):
        coords = {
            1: [[0.3], [-0.2], [0.55], [-0.6]],
            2: [[0.3, 0.1], [-0.2, 0.5], [0.0, -0.6], [0.55, 0.0]],
            3: [[0.3, 0.1, 0.2], [-0.2, 0.5, 0.0], [0.0, -0.6, 0.1], [0.55, 0.0, -0.3]],
        }
        for n, coords_n in coords.items():
            x = g.random_sphere_points(n, 1, rng)[0]
            ys = targets_around(x, coords_n)
            assert sc.twist_margin(x, ys) == pytest.approx(2.0, abs=1e-10), n

    def test_image_doubles_chart_coordinates(self, rng):
        x = g.random_sphere_points(2, 1, rng)[0]
        chart = sc.Chart(x)
        for coords in ([0.4, -0.2], [0.0, 0.7]):
            y = sc.chart_lift(chart, np.array(coords))
            image = sc.cost_gradient_image(x, y)
            assert np.max(np.abs(image - 2.0 * np.array(coords))) <= 1e-10

    def test_duplicate_flagged(self):
        y = targets_around(NORTH, [[0.3, 0.0]])[0]
        assert sc.twist_margin(NORTH, np.array([y, y])) == 0.0

    def test_single_sample_rejected(self):
        y = targets_around(NORTH, [[0.3, 0.0]])
        with pytest.raises(ConfigError):
            sc.twist_margin(NORTH, y)

    def test_outside_neighbourhood_rejected(self):
        with pytest.raises(DomainError):
            sc.twist_margin(NORTH, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]))


class TestNondegeneracy:
    def test_coincidence_determinant(self, rng):
        x = g.random_sphere_points(2, 1, rng)[0]
        profile = sc.nondegeneracy_profile(x, [0.0])
        assert profile[0][1] == pytest.approx(4.0, abs=0.01)

    def test_profile_strictly_decreasing(self):
        profile = sc.nondegeneracy_profile(NORTH, np.deg2rad([10, 30, 50, 70, 85]))
        dets = [d for _, d in profile]
        assert all(a > b for a, b in zip(dets, dets[1:]))
        assert all(d > 0 for d in dets)

    def test_near_boundary_vanishing(self):
        profile = sc.nondegeneracy_profile(NORTH, [np.deg2rad(89.9)])
        assert profile[0][1] < 0.05 * 4.0

    def test_invalid_angle(self):
        with pytest.raises(DomainError):
            sc.nondegeneracy_profile(NORTH, [math.pi / 2])


class TestCrossCurvature:
    def test_zero_direction(self, rng):
        x, y = _aligned_pair(rng, 0.5)
        pbar = _tangent(y, rng)
        assert sc.cross_curvature(x, y, np.zeros(3), pbar) == 0.0

    def test_known_law_on_null_pairs(self, rng):
        # the mixed fourth difference equals 2 / (x . y) on null pairs
        for _ in range(20):
            dot = rng.uniform(0.3, 0.95)
            x, y = _aligned_pair(rng, dot)
            p, pbar = sc.random_null_pair(x, y, rng)
            value = sc.cross_curvature(x, y, p, pbar, h=1e-3)
            assert value == pytest.approx(2.0 / dot, rel=1e-3)

    def test_positive_on_null_pairs(self, rng):
        values = []
        for _ in range(100):
            dot = rng.uniform(0.3, 0.999)
            x, y = _aligned_pair(rng, dot)
            p, pbar = sc.random_null_pair(x, y, rng)
            values.append(sc.cross_curvature(x, y, p, pbar, h=1e-3))
        assert min(values) > 0

    def test_stencil_second_order(self, rng):
        # steps stay in the truncation-dominated regime: below ~1e-3 the
        # h^-4 roundoff amplification of the fourth difference takes over
        x, y = _aligned_pair(rng, 0.6)
        p, pbar = sc.random_null_pair(x, y, rng)
        exact = 2.0 / 0.6
        err_h = abs(sc.cross_curvature(x, y, p, pbar, h=8e-3) - exact)
        err_h2 = abs(sc.cross_curvature(x, y, p, pbar, h=4e-3) - exact)
        assert err_h2 <= err_h / 2.5  # O(h^2): halving h shrinks error ~4x

    def test_non_null_rejected(self, rng):
        x, y = _aligned_pair(rng, 0.7)
        p = _tangent(x, rng)
        # project p onto the tangent space at y: generically not null
        pbar = p - float(p @ y) * y
        pbar /= np.linalg.norm(pbar)
        if abs(float(p @ pbar)) > 1e-6:
            with pytest.raises(sc.NullityError):
                sc.cross_curvature(x, y, p, pbar)

    def test_boundary_rejected(self, rng):
        x, y = _aligned_pair(rng, 0.05)
        with pytest.raises(DomainError):
            sc.cross_curvature(x, y, _tangent(x, rng), _tangent(y, rng))

    def test_non_tangent_rejected(self, rng):
        x, y = _aligned_pair(rng, 0.5)
        with pytest.raises(DomainError):
            sc.cross_curvature(x, y, x, _tangent(y, rng))

    def test_dimension_three(self, rng):
        x = g.random_sphere_points(3, 1, rng)[0]
        d = _tangent(x, rng)
        ang = math.acos(0.5)
        y = math.cos(ang) * x + math.sin(ang) * d
        p, pbar = sc.random_null_pair(x, y, rng)
        value = sc.cross_curvature(x, y, p, pbar, h=1e-3)
        assert value == pytest.approx(2.0 / 0.5, rel=1e-3)

    def test_suite_positive(self, rng):
        rows = _sweep(2, rng)
        assert len(rows) == len(SWEEP_ALIGNMENTS)
        assert min(min(curvatures) for _, _, curvatures in rows) > 0

    def test_circle_has_no_null_pairs(self, rng):
        x = g.random_sphere_points(1, 1, rng)[0]
        y = sc.geodesic_step(x, sc.tangent_frame(x)[0], 0.4)
        with pytest.raises(ConfigError):
            sc.random_null_pair(x, y, rng)


class TestAlignmentSweep:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sweep_rows(self, rng, n):
        # |det| of the mixed derivative matrix follows 2^n x.y and rises with
        # the alignment; the cross-curvature on null pairs follows 2/(x.y)
        rows = _sweep(n, rng)
        det_means = [np.mean(dets) for _, dets, _ in rows]
        assert all(a < b for a, b in zip(det_means, det_means[1:]))
        for (dot, _, curvatures), det_mean in zip(rows, det_means):
            assert det_mean == pytest.approx(2.0**n * dot, rel=1e-3)
            if n >= 2:
                assert np.mean(curvatures) == pytest.approx(2.0 / dot, rel=1e-3)
                assert 0 < min(curvatures) <= np.mean(curvatures)


class TestBiconvexity:
    def test_endpoint(self, rng):
        x0 = g.random_sphere_points(2, 1, rng)[0]
        y0, y1 = targets_around(x0, [[0.5, -0.1], [-0.3, 0.4]])
        w = sc.biconvexity_witness(x0, y0, y1, 0.0)
        assert np.max(np.abs(w - y0)) <= 1e-12

    def test_symmetric_midpoint(self):
        y0, y1 = targets_around(NORTH, [[0.6, 0.0], [-0.6, 0.0]])
        w = sc.biconvexity_witness(NORTH, y0, y1, 0.5)
        assert np.max(np.abs(w - NORTH)) <= 1e-12

    def test_random_combinations_linear(self, rng):
        for n in (1, 2, 3):
            for _ in range(25):
                x0 = g.random_sphere_points(n, 1, rng)[0]
                chart = sc.Chart(x0)
                c0 = 0.8 * rng.uniform(-1, 1, n) / math.sqrt(n)
                c1 = 0.8 * rng.uniform(-1, 1, n) / math.sqrt(n)
                y0 = sc.chart_lift(chart, c0)
                y1 = sc.chart_lift(chart, c1)
                theta = float(rng.uniform(0, 1))
                w = sc.biconvexity_witness(x0, y0, y1, theta)
                image = sc.cost_gradient_image(x0, w)
                target = theta * 2.0 * c1 + (1 - theta) * 2.0 * c0
                assert np.max(np.abs(image - target)) <= 1e-10, n

    def test_horizontal_by_symmetry(self, rng):
        # the cost is symmetric, so the same witness construction applies
        # with source and target roles swapped
        y = g.random_sphere_points(2, 1, rng)[0]
        x0, x1 = targets_around(y, [[0.4, 0.2], [-0.2, -0.5]])
        w = sc.biconvexity_witness(y, x0, x1, 0.7)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12


def _tangent(x, rng):
    frame = sc.tangent_frame(x)
    v = frame.T @ rng.normal(size=frame.shape[0])
    return v / np.linalg.norm(v)


def _aligned_pair(rng, dot):
    x = g.random_sphere_points(2, 1, rng)[0]
    d = _tangent(x, rng)
    ang = math.acos(dot)
    return x, math.cos(ang) * x + math.sin(ang) * d


def _sweep(n, rng):
    """(alignment, dets, curvatures) for each alignment of SWEEP_ALIGNMENTS,
    over 20 random points x of S^n, each with its target y at that alignment
    along tangent_frame(x)[0]: |det| of the mixed derivative matrix and, from
    S^2 on, the cross-curvature on one random null pair."""
    rows = []
    for dot in SWEEP_ALIGNMENTS:
        angle = math.acos(dot)
        dets, curvatures = [], []
        for x in g.random_sphere_points(n, 20, rng):
            dets.append(sc.nondegeneracy_profile(x, [angle])[0][1])
            if n >= 2:
                y = sc.geodesic_step(x, sc.tangent_frame(x)[0], angle)
                curvatures.append(sc.cross_curvature(x, y, *sc.random_null_pair(x, y, rng)))
        rows.append((float(dot), dets, curvatures))
    return rows
