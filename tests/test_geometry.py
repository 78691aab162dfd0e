import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphere_cost as sc
from sphere_ot import geometry as g
from sphere_ot.errors import DomainError

NORTH = np.array([0.0, 0.0, 1.0])


def unit_vectors(dim):
    return (
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


def cost_local(X: np.ndarray, Y: np.ndarray) -> float:
    """Squared-distance cost in shared local coordinates.

    Equals cost_extrinsic of the lifted points: the in-plane displacement
    plus the height mismatch of the two half-sphere lifts.
    """
    X = sc._check_ball(X, "X")
    Y = sc._check_ball(Y, "Y")
    d = X - Y
    hx = math.sqrt(1.0 - float(X @ X))
    hy = math.sqrt(1.0 - float(Y @ Y))
    return float(d @ d) + (hx - hy) ** 2


class TestChart:
    def test_project_north_pole_frame(self):
        chart = sc.Chart(NORTH)
        coords = sc.chart_project(chart, np.array([0.6, 0.0, 0.8]))
        assert np.allclose(coords, [0.6, 0.0], atol=1e-15)

    def test_base_maps_to_origin(self):
        base = g.normalize(np.array([1.0, 2.0, -0.5, 0.3]))
        chart = sc.Chart(base)
        assert np.allclose(sc.chart_project(chart, base), 0.0, atol=1e-15)

    def test_orthogonal_point_rejected(self):
        chart = sc.Chart(NORTH)
        with pytest.raises(DomainError):
            sc.chart_project(chart, np.array([0.0, 1.0, 0.0]))

    def test_lift_positive_hemisphere(self):
        chart = sc.Chart(NORTH)
        p = sc.chart_lift(chart, np.array([0.6, 0.0]))
        assert np.allclose(p, [0.6, 0.0, 0.8], atol=1e-15)

    def test_lift_origin_is_base(self):
        base = g.normalize(np.array([0.3, -0.4, 0.85]))
        chart = sc.Chart(base)
        assert np.allclose(sc.chart_lift(chart, np.zeros(2)), base, atol=1e-15)

    def test_lift_outside_ball_rejected(self):
        chart = sc.Chart(NORTH)
        with pytest.raises(DomainError):
            sc.chart_lift(chart, np.array([1.0, 0.0]))

    @given(unit_vectors(3), st.lists(st.floats(-0.69, 0.69), min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_from_coords(self, base, coords):
        coords = np.array(coords)
        if np.linalg.norm(coords) >= 0.999:
            return
        chart = sc.Chart(base)
        lifted = sc.chart_lift(chart, coords)
        assert abs(np.linalg.norm(lifted) - 1.0) <= 1e-12
        assert np.max(np.abs(sc.chart_project(chart, lifted) - coords)) <= 1e-12

    @given(unit_vectors(4), unit_vectors(4))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_from_points(self, base, p):
        if float(base @ p) <= 1e-3:
            return
        chart = sc.Chart(base)
        back = sc.chart_lift(chart, sc.chart_project(chart, p))
        assert np.max(np.abs(back - p)) <= 1e-12

    def test_frame_orthonormal_all_dims(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 5):
            for _ in range(10):
                base = g.random_sphere_points(n, 1, rng)[0]
                chart = sc.Chart(base)
                chart.validate()


class TestCost:
    def test_coincident(self):
        x = g.normalize(np.array([1.0, 1.0, 1.0]))
        assert sc.cost_extrinsic(x, x) == 0.0

    def test_orthogonal(self):
        assert sc.cost_extrinsic(np.array([1.0, 0.0, 0.0]), NORTH) == pytest.approx(2.0, abs=1e-15)

    def test_antipodal(self):
        x = g.normalize(np.array([0.2, -0.5, 1.0]))
        assert sc.cost_extrinsic(x, -x) == pytest.approx(4.0, abs=1e-14)

    @given(unit_vectors(3), unit_vectors(3))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_exact(self, x, y):
        assert sc.cost_extrinsic(x, y) == sc.cost_extrinsic(y, x)

    def test_local_at_origin(self):
        assert cost_local(np.zeros(2), np.zeros(2)) == 0.0

    def test_local_cross_check(self):
        # X = 0, Y = (0.6, 0): 0.36 + (1 - 0.8)^2 = 0.4 = 2 - 2*0.8
        val = cost_local(np.zeros(2), np.array([0.6, 0.0]))
        assert val == pytest.approx(0.4, abs=1e-12)
        assert val == pytest.approx(
            sc.cost_extrinsic(NORTH, np.array([0.6, 0.0, 0.8])), abs=1e-12
        )

    def test_local_equatorial_limit(self):
        val = cost_local(np.zeros(2), np.array([1.0 - 1e-12, 0.0]))
        assert val == pytest.approx(2.0, abs=1e-5)

    def test_local_outside_ball(self):
        with pytest.raises(DomainError):
            cost_local(np.array([1.0, 0.0]), np.zeros(2))

    def test_local_matches_extrinsic_sampled(self, rng):
        chart = sc.Chart(NORTH)
        for _ in range(50):
            p1, p2 = g.random_sphere_points(2, 2, rng)
            if min(NORTH @ p1, NORTH @ p2) <= 1e-3:
                continue
            local = cost_local(sc.chart_project(chart, p1), sc.chart_project(chart, p2))
            assert local == pytest.approx(sc.cost_extrinsic(p1, p2), abs=1e-12)

    def test_cost_matrix(self, rng):
        xs = g.random_sphere_points(2, 5, rng)
        ys = g.random_sphere_points(2, 7, rng)
        c = g.cost_matrix(xs, ys)
        for i in range(5):
            for j in range(7):
                assert c[i, j] == pytest.approx(sc.cost_extrinsic(xs[i], ys[j]), abs=1e-12)

    def test_cost_matrix_bits_without_second_matrix(self, rng):
        # reference: the product of the cost's factors [x, |x|^2, 1] and
        # [-2 y, 1, |y|^2], which cost_factors states with psi = phi = 0
        shapes = [(2, 3000, 3000), (1, 300, 300), (3, 700, 500), (2, 500, 7), (2, 7, 500), (2, 1, 1)]
        for n, rows, cols in shapes:
            xs = g.random_sphere_points(n, rows, rng)
            ys = g.random_sphere_points(n, cols, rng)
            sq_x = np.einsum("ij,ij->i", xs, xs)
            sq_y = np.einsum("ij,ij->i", ys, ys)
            left = np.column_stack([xs, sq_x, np.ones(rows)])
            right = np.column_stack([-2.0 * ys, np.ones(cols), sq_y])
            for got, want in zip(g.cost_factors(xs, ys, 0.0, 0.0), (left, right)):
                assert got.tobytes() == want.tobytes(), (n, rows, cols)
            want = left @ right.T
            tracemalloc.start()
            try:
                got = g.cost_matrix(xs, ys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.tobytes() == want.tobytes(), (n, rows, cols)
            if rows * cols >= 10**5:  # the factors are small beside the result
                assert peak <= 1.1 * got.nbytes, (n, rows, cols, peak)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pair_costs_match_cost_matrix(self, rng, n):
        # the cross term is an einsum, not a matmul, so agreement is to the ulp
        xs = g.random_sphere_points(n, 300, rng)
        ys = np.vstack([g.random_sphere_points(n, 250, rng), xs[:50], -xs[:50]])
        c = g.cost_matrix(xs, ys)
        rows = rng.integers(0, len(xs), size=5000)
        cols = rng.integers(0, len(ys), size=5000)
        rows[:50], cols[:50] = np.arange(50), 250 + np.arange(50)  # coincident pairs
        got = g.pair_costs(xs, ys, rows, cols)
        np.testing.assert_allclose(got, c[rows, cols], rtol=0, atol=1e-15)
        assert got.min() >= 0.0
        assert g.pair_costs(xs, ys, rows[:0], cols[:0]).shape == (0,)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rowwise_dot_keeps_scalar_bits(rng, d):
    a, b = rng.normal(size=(2, 200, d))
    looped = np.array([x @ y for x, y in zip(a, b)])
    assert g.rowwise_dot(a, b).tobytes() == looped.tobytes()
    assert g.rowwise_dot(a, b[0]).tobytes() == np.array([x @ b[0] for x in a]).tobytes()
    norms = np.array([np.linalg.norm(x) for x in a])
    assert np.sqrt(g.rowwise_dot(a, a)).tobytes() == norms.tobytes()


class TestGradient:
    def test_value_at_origin_is_minus_2y(self):
        grad = sc.grad_cost_local(np.zeros(2), np.array([0.3, 0.4]))
        assert np.allclose(grad, [-0.6, -0.8], atol=1e-15)

    def test_zero_at_coincident_origin(self):
        assert np.allclose(sc.grad_cost_local(np.zeros(2), np.zeros(2)), 0.0)

    def test_matches_finite_differences(self, rng):
        h = 1e-5
        for _ in range(20):
            X = rng.uniform(-0.5, 0.5, size=2)
            Y = rng.uniform(-0.5, 0.5, size=2)
            grad = sc.grad_cost_local(X, Y)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (cost_local(X + e, Y) - cost_local(X - e, Y)) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-6

    def test_second_order_accuracy(self, rng):
        # central differences of the cost converge to the gradient at O(h^2)
        for h in (1e-3, 1e-4):
            X = np.array([0.21, -0.33])
            Y = np.array([0.4, 0.12])
            grad = sc.grad_cost_local(X, Y)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (cost_local(X + e, Y) - cost_local(X - e, Y)) / (2 * h)
                assert abs(fd - grad[i]) <= 10.0 * h * h


class TestCrossDerivative:
    def test_minus_two_identity_at_coincidence(self, rng):
        x = g.random_sphere_points(2, 1, rng)[0]
        m = sc.cross_derivative_frame(x, x)
        assert np.max(np.abs(m + 2.0 * np.eye(2))) <= 1e-4
        assert abs(abs(np.linalg.det(m)) - 4.0) <= 1e-4

    def test_determinant_decreases_along_ray(self, rng):
        x = g.random_sphere_points(2, 1, rng)[0]
        d = sc.tangent_frame(x)[0]
        dets = []
        for ang in np.deg2rad([5.0, 25.0, 45.0, 65.0, 85.0]):
            y = sc.geodesic_step(x, d, ang)
            dets.append(abs(np.linalg.det(sc.cross_derivative_frame(x, y))))
        assert all(a > b for a, b in zip(dets, dets[1:]))

    def test_near_boundary_determinant_small(self):
        x = NORTH
        d = sc.tangent_frame(x)[0]
        ang = math.acos(0.01)
        y = sc.geodesic_step(x, d, ang)
        det = abs(np.linalg.det(sc.cross_derivative_frame(x, y)))
        assert det < 0.1 * 2**2

    def test_rejected_outside_neighbourhood(self):
        with pytest.raises(DomainError):
            sc.cross_derivative_frame(NORTH, -NORTH)
        with pytest.raises(DomainError):
            sc.cross_derivative_frame(NORTH, np.array([1.0, 0.0, 0.0]))
