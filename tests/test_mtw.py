import math

import numpy as np
import pytest

from sphere_ot import geometry as g
from sphere_ot import mtw
from sphere_ot.errors import ConfigError, DomainError, NullityError

NORTH = np.array([0.0, 0.0, 1.0])


def targets_around(x, coords_list):
    chart = g.Chart(x)
    return np.array([g.chart_lift(chart, np.asarray(c, dtype=float)) for c in coords_list])


class TestTwist:
    def test_ratio_is_two(self, rng):
        x = g.random_sphere_points(2, 1, rng)[0]
        ys = targets_around(x, [[0.3, 0.1], [-0.2, 0.5], [0.0, -0.6], [0.55, 0.0]])
        assert mtw.twist_margin(x, ys) == pytest.approx(2.0, abs=1e-10)

    def test_image_doubles_chart_coordinates(self, rng):
        x = g.random_sphere_points(2, 1, rng)[0]
        chart = g.Chart(x)
        for coords in ([0.4, -0.2], [0.0, 0.7]):
            y = g.chart_lift(chart, np.array(coords))
            image = mtw.cost_gradient_image(x, y)
            assert np.max(np.abs(image - 2.0 * np.array(coords))) <= 1e-10

    def test_duplicate_flagged(self):
        y = targets_around(NORTH, [[0.3, 0.0]])[0]
        assert mtw.twist_margin(NORTH, np.array([y, y])) == 0.0

    def test_single_sample_rejected(self):
        y = targets_around(NORTH, [[0.3, 0.0]])
        with pytest.raises(ConfigError):
            mtw.twist_margin(NORTH, y)

    def test_outside_neighbourhood_rejected(self):
        with pytest.raises(DomainError):
            mtw.twist_margin(NORTH, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]))


class TestNondegeneracy:
    def test_coincidence_determinant(self, rng):
        x = g.random_sphere_points(2, 1, rng)[0]
        profile = mtw.nondegeneracy_profile(x, [0.0])
        assert profile[0][1] == pytest.approx(4.0, abs=0.01)

    def test_profile_strictly_decreasing(self):
        profile = mtw.nondegeneracy_profile(NORTH, np.deg2rad([10, 30, 50, 70, 85]))
        dets = [d for _, d in profile]
        assert all(a > b for a, b in zip(dets, dets[1:]))
        assert all(d > 0 for d in dets)

    def test_near_boundary_vanishing(self):
        profile = mtw.nondegeneracy_profile(NORTH, [np.deg2rad(89.9)])
        assert profile[0][1] < 0.05 * 4.0

    def test_invalid_angle(self):
        with pytest.raises(DomainError):
            mtw.nondegeneracy_profile(NORTH, [math.pi / 2])


class TestCrossCurvature:
    def test_zero_direction(self, rng):
        x, y = _aligned_pair(rng, 0.5)
        pbar = _tangent(y, rng)
        assert mtw.cross_curvature(x, y, np.zeros(3), pbar) == 0.0

    def test_known_law_on_null_pairs(self, rng):
        # the mixed fourth difference equals 2 / (x . y) on null pairs
        for _ in range(20):
            dot = rng.uniform(0.3, 0.95)
            x, y = _aligned_pair(rng, dot)
            p, pbar = mtw.random_null_pair(x, y, rng)
            value = mtw.cross_curvature(x, y, p, pbar, h=1e-3)
            assert value == pytest.approx(2.0 / dot, rel=1e-3)

    def test_positive_on_null_pairs(self, rng):
        values = []
        for _ in range(100):
            dot = rng.uniform(0.3, 0.999)
            x, y = _aligned_pair(rng, dot)
            p, pbar = mtw.random_null_pair(x, y, rng)
            values.append(mtw.cross_curvature(x, y, p, pbar, h=1e-3))
        assert min(values) > 0

    def test_stencil_second_order(self, rng):
        # steps stay in the truncation-dominated regime: below ~1e-3 the
        # h^-4 roundoff amplification of the fourth difference takes over
        x, y = _aligned_pair(rng, 0.6)
        p, pbar = mtw.random_null_pair(x, y, rng)
        exact = 2.0 / 0.6
        err_h = abs(mtw.cross_curvature(x, y, p, pbar, h=8e-3) - exact)
        err_h2 = abs(mtw.cross_curvature(x, y, p, pbar, h=4e-3) - exact)
        assert err_h2 <= err_h / 2.5  # O(h^2): halving h shrinks error ~4x

    def test_non_null_rejected(self, rng):
        x, y = _aligned_pair(rng, 0.7)
        p = _tangent(x, rng)
        # project p onto the tangent space at y: generically not null
        pbar = p - float(p @ y) * y
        pbar /= np.linalg.norm(pbar)
        if abs(float(p @ pbar)) > 1e-6:
            with pytest.raises(NullityError):
                mtw.cross_curvature(x, y, p, pbar)

    def test_boundary_rejected(self, rng):
        x, y = _aligned_pair(rng, 0.05)
        with pytest.raises(DomainError):
            mtw.cross_curvature(x, y, _tangent(x, rng), _tangent(y, rng))

    def test_non_tangent_rejected(self, rng):
        x, y = _aligned_pair(rng, 0.5)
        with pytest.raises(DomainError):
            mtw.cross_curvature(x, y, x, _tangent(y, rng))

    def test_dimension_three(self, rng):
        x = g.random_sphere_points(3, 1, rng)[0]
        d = _tangent(x, rng)
        ang = math.acos(0.5)
        y = math.cos(ang) * x + math.sin(ang) * d
        p, pbar = mtw.random_null_pair(x, y, rng)
        value = mtw.cross_curvature(x, y, p, pbar, h=1e-3)
        assert value == pytest.approx(2.0 / 0.5, rel=1e-3)

    def test_suite_positive(self):
        rows = mtw.alignment_sweep(2)
        assert len(rows) == len(mtw.SWEEP_ALIGNMENTS)
        assert min(row["curvature_min"] for row in rows) > 0

    def test_circle_has_no_null_pairs(self, rng):
        x = g.random_sphere_points(1, 1, rng)[0]
        y = g.geodesic_step(x, g.tangent_frame(x)[0], 0.4)
        with pytest.raises(ConfigError):
            mtw.random_null_pair(x, y, rng)
        for row in mtw.alignment_sweep(1):
            assert row["curvature_min"] is row["curvature_mean"] is row["curvature_law"] is None


class TestBiconvexity:
    def test_endpoint(self, rng):
        x0 = g.random_sphere_points(2, 1, rng)[0]
        y0, y1 = targets_around(x0, [[0.5, -0.1], [-0.3, 0.4]])
        w = mtw.biconvexity_witness(x0, y0, y1, 0.0)
        assert np.max(np.abs(w - y0)) <= 1e-12

    def test_symmetric_midpoint(self):
        y0, y1 = targets_around(NORTH, [[0.6, 0.0], [-0.6, 0.0]])
        w = mtw.biconvexity_witness(NORTH, y0, y1, 0.5)
        assert np.max(np.abs(w - NORTH)) <= 1e-12

    def test_random_combinations_linear(self, rng):
        for _ in range(25):
            x0 = g.random_sphere_points(2, 1, rng)[0]
            chart = g.Chart(x0)
            c0 = 0.8 * rng.uniform(-1, 1, 2) / math.sqrt(2)
            c1 = 0.8 * rng.uniform(-1, 1, 2) / math.sqrt(2)
            y0 = g.chart_lift(chart, c0)
            y1 = g.chart_lift(chart, c1)
            theta = float(rng.uniform(0, 1))
            w = mtw.biconvexity_witness(x0, y0, y1, theta)
            image = mtw.cost_gradient_image(x0, w)
            target = theta * 2.0 * c1 + (1 - theta) * 2.0 * c0
            assert np.max(np.abs(image - target)) <= 1e-10

    def test_horizontal_by_symmetry(self, rng):
        # the cost is symmetric, so the same witness construction applies
        # with source and target roles swapped
        y = g.random_sphere_points(2, 1, rng)[0]
        x0, x1 = targets_around(y, [[0.4, 0.2], [-0.2, -0.5]])
        w = mtw.biconvexity_witness(y, x0, x1, 0.7)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12


def _tangent(x, rng):
    frame = g.tangent_frame(x)
    v = frame.T @ rng.normal(size=frame.shape[0])
    return v / np.linalg.norm(v)


def _aligned_pair(rng, dot):
    x = g.random_sphere_points(2, 1, rng)[0]
    d = _tangent(x, rng)
    ang = math.acos(dot)
    return x, math.cos(ang) * x + math.sin(ang) * d
