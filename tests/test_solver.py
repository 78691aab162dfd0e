import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.special import logsumexp

from conftest import images_of, make_measure
from sphere_ot import geometry as g
from sphere_ot import measures as me
from sphere_ot import solver as so
from sphere_ot.errors import ConfigError, ConvergenceError, SolverError, SolverFallbackWarning
from sphere_ot.pipeline import ENTROPIC_SUPPORT_TOL, resolve_measure


@pytest.fixture
def instance_2x2():
    mu = make_measure([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    nu = make_measure([[0.8, 0.6, 0.0], [0.6, 0.8, 0.0]])
    return mu, nu


class TestExact:
    def test_antipodal_identity(self):
        pts = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
        mu = make_measure(pts)
        nu = make_measure(pts)
        coupling, _ = so.solve_exact(mu, nu)
        assert coupling.total_cost == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(np.sort(coupling.rows), np.sort(coupling.cols))

    def test_2x2_diagonal(self, instance_2x2):
        mu, nu = instance_2x2
        coupling, duals = so.solve_exact(mu, nu)
        # both permutations enumerated by hand: diagonal legs cost 0.4 each,
        # crossed legs 0.8 each
        assert coupling.total_cost == pytest.approx(0.4, abs=1e-12)
        assert set(zip(coupling.rows.tolist(), coupling.cols.tolist())) == {(0, 0), (1, 1)}
        assert duals.feasibility_gap(mu, nu) <= 1e-9
        assert duals.slackness_gap(coupling, mu, nu) <= 1e-9

    def test_forced_split(self):
        mu = make_measure([[0.0, 0.0, 1.0]], weights=[1.0])
        nu = make_measure([[0.6, 0.0, 0.8], [0.6, 0.0, -0.8]])
        coupling, _ = so.solve_exact(mu, nu)
        assert coupling.size == 2
        assert np.allclose(np.sort(coupling.mass), [0.5, 0.5])

    def test_mass_mismatch_rejected(self):
        mu = make_measure([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], weights=[0.5, 0.6])
        nu = make_measure([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(SolverError):
            so.solve_exact(mu, nu)

    def test_lp_path_invariants(self, rng):
        # unequal weights force the LP branch
        for n in (1, 2, 3):
            pts_mu = g.random_sphere_points(n, 20, rng)
            pts_nu = g.random_sphere_points(n, 25, rng)
            w_mu = rng.random(20) + 0.3
            w_nu = rng.random(25) + 0.3
            mu = make_measure(pts_mu, w_mu / w_mu.sum())
            nu = make_measure(pts_nu, w_nu / w_nu.sum())
            coupling, duals = so.solve_exact(mu, nu)
            coupling.validate(mu, nu)
            assert coupling.size <= 20 + 25 - 1
            assert duals.feasibility_gap(mu, nu) <= 1e-9
            assert duals.slackness_gap(coupling, mu, nu) <= 1e-9
            gap = coupling.total_cost - float(duals.psi @ mu.weights + duals.phi @ nu.weights)
            assert abs(gap) <= 1e-8
            assert so.cyclical_monotonicity_violation(coupling, mu, nu) <= 1e-9

    def test_assignment_path_matches_lp(self, rng):
        pts_mu = g.random_sphere_points(2, 30, rng)
        pts_nu = g.random_sphere_points(2, 30, rng)
        mu = make_measure(pts_mu)
        nu = make_measure(pts_nu)
        fast, duals = so.solve_exact(mu, nu)
        slow, _ = so._solve_lp(mu, nu, g.cost_matrix(pts_mu, pts_nu))
        assert fast.total_cost == pytest.approx(slow.total_cost, abs=1e-10)
        assert duals.feasibility_gap(mu, nu) <= 1e-12
        assert duals.slackness_gap(fast, mu, nu) <= 1e-12

    def test_gradient_warp_oracle(self, rng):
        # targets are the sources pushed by the gradient of the convex
        # function |y + 0.35 e|; the identity pairing is provably optimal
        pts = g.random_sphere_points(2, 300, rng)
        shifted = pts + 0.35 * np.array([0.0, 0.0, 1.0])
        targets = shifted / np.linalg.norm(shifted, axis=1, keepdims=True)
        mu = make_measure(pts)
        nu = make_measure(targets)
        coupling, _ = so.solve_exact(mu, nu)
        expected = float(np.mean(np.einsum("ij,ij->i", pts - targets, pts - targets)))
        assert coupling.total_cost == pytest.approx(expected, abs=1e-12)


def _dense_assignment_duals(c, row_to_col):
    """Reference: Jacobi Bellman-Ford over the dense column reassignment graph.

    Edge k -> j weighs c[i, j] - c[i, k] for the row i assigned to column k;
    every sweep takes one full n x n pass. None if n + 1 sweeps do not settle.
    """
    n = c.shape[0]
    col_to_row = np.empty(n, dtype=int)
    col_to_row[row_to_col] = np.arange(n)
    w = c[col_to_row, :] - c[col_to_row, row_to_col[col_to_row]][:, None]
    phi = np.zeros(n)
    for _ in range(n + 1):
        cand = (phi[:, None] + w).min(axis=0)
        new = np.minimum(phi, cand)
        if np.array_equal(new, phi):
            psi = c[np.arange(n), row_to_col] - phi[row_to_col]
            return psi, phi
        phi = new
    return None


def _circle(count, angle):
    t = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False) + angle
    return np.column_stack([np.cos(t), np.sin(t)])


def _warp(pts, shift=0.35):
    """Push-forward by the gradient of the convex function |y + shift e|:
    the identity pairing is provably optimal."""
    moved = pts + shift * np.eye(pts.shape[1])[-1]
    return moved / np.linalg.norm(moved, axis=1, keepdims=True)


class TestAssignment:
    """The multiscale assignment path against the dense reference."""

    @pytest.fixture(autouse=True)
    def no_lp(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the assignment path fell back to the LP")

        monkeypatch.setattr(so, "linprog", forbidden)

    @staticmethod
    def _assert_matches_reference(pts_mu, pts_nu):
        mu, nu = make_measure(pts_mu), make_measure(pts_nu)
        coupling, duals = so.solve_exact(mu, nu)
        c = g.cost_matrix(pts_mu, pts_nu)
        _, assign = linear_sum_assignment(c)
        psi, phi = _dense_assignment_duals(c, assign)
        assert np.array_equal(coupling.rows, np.arange(mu.count))
        assert coupling.cols.tobytes() == assign.tobytes()
        assert duals.psi.tobytes() == psi.tobytes()
        assert duals.phi.tobytes() == phi.tobytes()
        return coupling, duals

    @pytest.mark.parametrize("count", [150, 201, 400, 900])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bitwise_equal_to_dense_reference(self, rng, n, count):
        self._assert_matches_reference(
            g.random_sphere_points(n, count, rng), g.random_sphere_points(n, count, rng)
        )

    @pytest.mark.parametrize("count", [150, 400])
    def test_identical_point_sets(self, rng, count):
        pts = g.random_sphere_points(2, count, rng)
        coupling, _ = self._assert_matches_reference(pts, pts.copy())
        assert np.array_equal(coupling.cols, np.arange(count))

    def test_rotated_circle(self):
        self._assert_matches_reference(_circle(400, 0.0), _circle(400, 0.003))

    def test_target_permutation(self, rng):
        pts_mu = g.random_sphere_points(2, 500, rng)
        pts_nu = g.random_sphere_points(2, 500, rng)
        perm = rng.permutation(500)
        mu = make_measure(pts_mu)
        coupling, _ = so.solve_exact(mu, make_measure(pts_nu))
        shuffled, _ = so.solve_exact(mu, make_measure(pts_nu[perm]))
        assert np.array_equal(perm[shuffled.cols], coupling.cols)
        assert shuffled.total_cost == pytest.approx(coupling.total_cost, abs=1e-12)

    def test_gradient_warp_oracle_two_levels(self, rng, monkeypatch):
        calls = []
        real = so.linear_sum_assignment

        def counted(cost):
            calls.append(len(cost))
            return real(cost)

        monkeypatch.setattr(so, "linear_sum_assignment", counted)
        pts = g.random_sphere_points(2, 1000, rng)
        mu, nu = make_measure(pts), make_measure(_warp(pts))
        coupling, duals = so.solve_exact(mu, nu)
        assert calls == [63, 250, 1000]  # 1000 -> 250 -> 63 atoms: two coarse levels
        assert np.array_equal(coupling.cols, np.arange(1000))
        expected = float(np.mean(np.sum((mu.points - nu.points) ** 2, axis=1)))
        assert coupling.total_cost == pytest.approx(expected, abs=1e-12)
        dual = float(duals.psi @ mu.weights + duals.phi @ nu.weights)
        assert abs(coupling.total_cost - dual) <= 1e-12
        assert duals.feasibility_gap(mu, nu) <= 1e-12
        assert duals.slackness_gap(coupling, mu, nu) <= 1e-12


def test_unsettled_assignment_duals_fall_back_to_lp_loudly(rng, monkeypatch):
    # 300 atoms: the coarse level's duals fail too and the warm start is zero
    monkeypatch.setattr(so, "_assignment_duals", lambda *args: None)
    mu = make_measure(g.random_sphere_points(2, 300, rng))
    nu = make_measure(g.random_sphere_points(2, 300, rng))
    with pytest.warns(SolverFallbackWarning, match="did not settle"):
        coupling, duals = so.solve_exact(mu, nu)
    coupling.validate(mu, nu)
    assert duals.feasibility_gap(mu, nu) <= 1e-9
    assert duals.slackness_gap(coupling, mu, nu) <= 1e-9


def _random_instance(rng, n, n_src, n_tgt):
    w_mu = rng.random(n_src) + 0.3
    w_nu = rng.random(n_tgt) + 0.3
    mu = make_measure(g.random_sphere_points(n, n_src, rng), w_mu / w_mu.sum())
    nu = make_measure(g.random_sphere_points(n, n_tgt, rng), w_nu / w_nu.sum())
    return mu, nu


def _dense_lp_cost(mu, nu):
    """Reference optimum: HiGHS dual simplex on every pair at once."""
    c = g.cost_matrix(mu.points, nu.points)
    n, m = c.shape
    a_eq = sparse.vstack([
        sparse.kron(sparse.eye(n), np.ones((1, m))),
        sparse.kron(np.ones((1, n)), sparse.eye(m)),
    ])
    res = linprog(c.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu.weights, nu.weights]),
                  bounds=(0, None), method="highs-ds")
    assert res.status == 0
    return res.fun


class TestColumnGeneration:
    """Instances above so.FULL_PAIRS take the multiscale warm start."""

    @pytest.mark.parametrize("n, n_src, n_tgt", [
        (1, 210, 210), (2, 210, 210), (3, 210, 210), (2, 600, 90),
        (2, 6000, 7), (2, 7, 6000),
    ])
    def test_certified_and_matches_dense_lp(self, rng, n, n_src, n_tgt):
        assert n_src * n_tgt > so.FULL_PAIRS
        mu, nu = _random_instance(rng, n, n_src, n_tgt)
        coupling, duals = so.solve_exact(mu, nu)
        coupling.validate(mu, nu, tol=1e-12)
        dual = float(duals.psi @ mu.weights + duals.phi @ nu.weights)
        assert abs(coupling.total_cost - dual) <= 1e-12
        assert duals.feasibility_gap(mu, nu) <= 1e-12
        assert duals.slackness_gap(coupling, mu, nu) <= 1e-12
        assert coupling.total_cost == pytest.approx(_dense_lp_cost(mu, nu), abs=1e-12)

    @pytest.mark.parametrize("n_src, n_tgt", [(600, 300), (7, 900), (900, 7)])
    def test_blocked_carry_up_matches_whole_matrix(self, rng, n_src, n_tgt):
        c = g.cost_matrix(g.random_sphere_points(2, n_src, rng),
                          g.random_sphere_points(2, n_tgt, rng))
        cols = np.arange(0, n_tgt, 4)
        phi_coarse = rng.normal(scale=0.1, size=len(cols))
        psi, phi, rows, picks = so._carry_up(c, cols, phi_coarse)
        want_psi = (c[:, cols] - phi_coarse[None, :]).min(axis=1)
        want_phi = (c - want_psi[:, None]).min(axis=0)
        assert psi.tobytes() == want_psi.tobytes() and phi.tobytes() == want_phi.tobytes()
        reduced = c - want_psi[:, None] - want_phi[None, :]
        want = np.zeros(c.shape, dtype=bool)
        for axis, k in ((1, min(so.NEIGHBOURS, n_tgt)), (0, min(so.NEIGHBOURS, n_src))):
            best = np.argpartition(reduced, k - 1, axis=axis).take(np.arange(k), axis=axis)
            np.put_along_axis(want, best, True, axis=axis)
        got = np.zeros(c.shape, dtype=bool)
        got[rows, picks] = True
        assert np.array_equal(got, want)

    def test_support_in_row_major_order(self, rng):
        mu, nu = _random_instance(rng, 2, 300, 200)
        coupling, _ = so.solve_exact(mu, nu)
        keys = coupling.rows * nu.count + coupling.cols
        assert np.all(np.diff(keys) > 0)

    def test_uncertified_duals_raise(self, rng, monkeypatch):
        real = so.linprog

        def perturbed(*args, **kwargs):
            res = real(*args, **kwargs)
            res.eqlin.marginals[-1] += 1e-6
            return res

        monkeypatch.setattr(so, "linprog", perturbed)
        mu, nu = _random_instance(rng, 2, 20, 25)
        with pytest.raises(SolverError, match="not certified"):
            so.solve_exact(mu, nu)


class TestOracle:
    def test_2x2(self, instance_2x2):
        coupling = so.brute_force_oracle(*instance_2x2)
        assert coupling.total_cost == pytest.approx(0.4, abs=1e-12)

    def test_single_atom(self):
        mu = make_measure([[0.0, 0.0, 1.0]], weights=[1.0])
        nu = make_measure([[1.0, 0.0, 0.0]], weights=[1.0])
        coupling = so.brute_force_oracle(mu, nu)
        assert coupling.size == 1
        assert coupling.total_cost == pytest.approx(2.0, abs=1e-12)

    def test_matches_exact_on_random(self, rng):
        for n_atoms in range(2, 9):
            mu = make_measure(g.random_sphere_points(2, n_atoms, rng))
            nu = make_measure(g.random_sphere_points(2, n_atoms, rng))
            a = so.solve_exact(mu, nu)[0]
            b = so.brute_force_oracle(mu, nu)
            assert abs(a.total_cost - b.total_cost) <= 1e-9

    def test_preconditions(self, rng):
        big = make_measure(g.random_sphere_points(2, 9, rng))
        with pytest.raises(ConfigError):
            so.brute_force_oracle(big, big)
        mu = make_measure(g.random_sphere_points(2, 3, rng), weights=[0.5, 0.25, 0.25])
        nu = make_measure(g.random_sphere_points(2, 3, rng))
        with pytest.raises(ConfigError):
            so.brute_force_oracle(mu, nu)


class TestEntropic:
    def test_small_reg_matches_exact(self, instance_2x2):
        mu, nu = instance_2x2
        coupling, duals = so.solve_entropic(mu, nu, reg=0.01)
        dense = np.zeros((2, 2))
        dense[coupling.rows, coupling.cols] = coupling.mass
        assert np.max(np.abs(dense - np.diag([0.5, 0.5]))) <= 1e-3
        assert duals.feasibility_gap(mu, nu) <= 1e-8

    def test_high_temperature_product_limit(self, instance_2x2):
        mu, nu = instance_2x2
        coupling, _ = so.solve_entropic(mu, nu, reg=10.0)
        dense = np.zeros((2, 2))
        dense[coupling.rows, coupling.cols] = coupling.mass
        assert np.max(np.abs(dense - 0.25)) <= 0.02

    def test_mass_mismatch_rejected(self, instance_2x2):
        mu, nu = instance_2x2
        bad = make_measure(nu.points, weights=[0.5, 0.6])
        with pytest.raises(SolverError):
            so.solve_entropic(mu, bad, reg=0.1)

    def test_marginals_exact_after_rounding(self, rng):
        mu = make_measure(g.random_sphere_points(2, 15, rng), weights=None)
        w = rng.random(15) + 0.2
        nu = make_measure(g.random_sphere_points(2, 15, rng), weights=w / w.sum())
        coupling, _ = so.solve_entropic(mu, nu, reg=0.05)
        coupling.validate(mu, nu)

    def test_cost_monotone_in_reg_and_above_exact(self, instance_2x2):
        mu, nu = instance_2x2
        exact_cost = so.solve_exact(mu, nu)[0].total_cost
        costs = [so.solve_entropic(mu, nu, reg=r)[0].total_cost for r in (5.0, 1.0, 0.2, 0.05)]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))
        assert all(c >= exact_cost - 1e-12 for c in costs)

    def test_convergence_error(self, rng):
        w1 = rng.random(20) + 0.3
        w2 = rng.random(20) + 0.3
        mu = make_measure(g.random_sphere_points(2, 20, rng), weights=w1 / w1.sum())
        nu = make_measure(g.random_sphere_points(2, 20, rng), weights=w2 / w2.sum())
        with pytest.raises(ConvergenceError):
            so.solve_entropic(mu, nu, reg=0.05, max_iter=3, tol=1e-13)

    def test_non_finite_violation_raises(self, rng, monkeypatch):
        # a NaN cost entry makes the kernel, and so the violation, NaN
        mu = make_measure(g.random_sphere_points(2, 12, rng))
        nu = make_measure(g.random_sphere_points(2, 12, rng))

        def poisoned(x, y):
            c = g.cost_matrix(x, y)
            c[3, 5] = np.nan
            return c

        monkeypatch.setattr(so, "cost_matrix", poisoned)
        with pytest.raises(ConvergenceError, match="nan"):
            so.solve_entropic(mu, nu, reg=0.05, max_iter=30)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """Reference: log(sum(exp(a))) along axis, as scipy.special.logsumexp
    computes it for finite input: the maxima are split out and log1p taken
    of the rest."""
    top = a.max(axis=axis, keepdims=True)
    ties = a == top
    rest = np.exp(a - top)
    rest[ties] = 0.0
    count = ties.sum(axis=axis, keepdims=True, dtype=float)
    out = np.log1p(rest.sum(axis=axis, keepdims=True) / count) + np.log(count) + top
    return out.squeeze(axis)


def _log_domain_sinkhorn(mu, nu, reg, max_iter=20_000, tol=1e-8, lse=_logsumexp):
    """Reference: log-domain Sinkhorn from g = 0, one log-sum-exp over the
    whole cost per half-step. Returns (coupling, duals, iterations)."""
    c = g.cost_matrix(mu.points, nu.points)
    log_mu, log_nu = np.log(mu.weights), np.log(nu.weights)
    f, h = np.zeros(mu.count), np.zeros(nu.count)

    def row_violation(f, h):
        rows = np.exp((f[:, None] + h[None, :] - c) / reg).sum(axis=1)
        return np.max(np.abs(rows - mu.weights))

    for it in range(max_iter):
        f = reg * log_mu - reg * lse((h[None, :] - c) / reg, axis=1)
        h = reg * log_nu - reg * lse((f[:, None] - c) / reg, axis=0)
        if it % 10 == 9 or it == max_iter - 1:
            if row_violation(f, h) <= tol:
                break
    assert row_violation(f, h) <= tol, "reference did not converge"
    plan = np.exp((f[:, None] + h[None, :] - c) / reg)
    plan = so._round_to_marginals(plan, mu.weights, nu.weights)
    return so._coupling_from_dense(plan, c), so.DualPotentials(f, h), it + 1


def _far_target_instance(n, seed):
    """Sources on a polar cap, other targets all over the sphere, uneven
    weights on both sides: at reg 0.002 the first kernel has columns that
    underflow to zero."""
    rng = np.random.default_rng(seed)
    xs = g.random_sphere_points(n, 40, rng)
    xs[:, -1] = np.abs(xs[:, -1]) + 1.0
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    ys = g.random_sphere_points(n, 45, rng)
    wx, wy = rng.random(40) + 0.5, rng.random(45) + 0.5
    return make_measure(xs, wx / wx.sum()), make_measure(ys, wy / wy.sum())


class TestStabilisedScaling:
    """solve_entropic against the log-domain reference it replaced."""

    @staticmethod
    def _assert_equivalent(mu, nu, reg, monkeypatch):
        builds, half_steps = [], []
        kernel, scaling = so._kernel, so._scaling
        monkeypatch.setattr(so, "_kernel", lambda *a: builds.append(1) or kernel(*a))
        monkeypatch.setattr(so, "_scaling", lambda *a: half_steps.append(1) or scaling(*a))
        got, got_duals = so.solve_entropic(mu, nu, reg)
        want, want_duals, iterations = _log_domain_sinkhorn(mu, nu, reg)
        assert len(half_steps) == 2 * iterations
        for name in ("psi", "phi"):  # the -inf duals of zero weights compare equal
            np.testing.assert_allclose(
                getattr(got_duals, name), getattr(want_duals, name), rtol=0, atol=1e-12
            )
        dense = np.zeros((2, mu.count, nu.count))
        for plan, coupling in zip(dense, (got, want)):
            plan[coupling.rows, coupling.cols] = coupling.mass
        assert np.max(np.abs(dense[0] - dense[1])) <= 1e-12
        # Full supports are cut at SUPPORT_EPS = 1e-15, inside the noise of
        # the rank-one rounding correction, so a pair in only one of them
        # may only carry mass of that order.
        only_one = (dense[0] > 0) != (dense[1] > 0)
        assert np.all(dense.max(axis=0)[only_one] < 1e-14)
        got_t, want_t = (so.truncate_support(cp, ENTROPIC_SUPPORT_TOL) for cp in (got, want))
        assert np.array_equal(got_t.rows, want_t.rows)
        assert np.array_equal(got_t.cols, want_t.cols)
        return len(builds)

    @pytest.mark.parametrize("reg", [0.01, 0.002])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_log_domain_reference(self, n, reg, monkeypatch):
        mu, nu = _far_target_instance(n, seed=n)
        builds = self._assert_equivalent(mu, nu, reg, monkeypatch)
        if reg == 0.002:
            c = g.cost_matrix(mu.points, nu.points)
            first = np.exp((c.min(axis=1)[:, None] - c) / reg)
            assert np.any(first.sum(axis=0) == 0.0)  # columns that plain absorption cannot save
            assert builds > 1  # at least one absorption

    def test_zero_weight_atoms(self, monkeypatch):
        # a zero weight gives a zero scaling and a -inf dual, as in the log
        # domain, and costs no absorptions
        mu, nu = _far_target_instance(2, seed=2)
        for measure, zeros in ((mu, [3, 17]), (nu, [8])):
            measure.weights[zeros] = 0.0
            measure.weights /= measure.weights.sum()
        with np.errstate(divide="ignore"):  # the reference takes log(0)
            builds = self._assert_equivalent(mu, nu, 0.01, monkeypatch)
        assert builds <= 2

    def test_matches_reference_on_pipeline_mesh(self, monkeypatch):
        mesh = me.quasi_uniform_mesh(2, 80, 1)
        mu = resolve_measure("cap:0.98", mesh)
        nu = resolve_measure("uniform", mesh)
        self._assert_equivalent(mu, nu, 0.01, monkeypatch)


def _monotonicity_brute(coupling, mu, nu):
    """Reference: (x_i - x_k) . (y_j - y_l) over every pair of support entries."""
    xs = mu.points[coupling.rows]
    ys = nu.points[coupling.cols]
    own = np.einsum("ij,ij->i", xs, ys)
    return float((own[:, None] + own[None, :] - xs @ ys.T - ys @ xs.T).min())


class TestMonotonicity:
    def test_optimal_plan_clean(self, instance_2x2):
        mu, nu = instance_2x2
        coupling, _ = so.solve_exact(mu, nu)
        assert so.cyclical_monotonicity_violation(coupling, mu, nu) == pytest.approx(0.0, abs=1e-12)

    def test_crossed_plan_violation(self, instance_2x2):
        mu, nu = instance_2x2
        crossed = so.Coupling(np.array([0, 1]), np.array([1, 0]), np.array([0.5, 0.5]), 0.8)
        for block in (1, 3, 2048):
            violation = so.cyclical_monotonicity_violation(crossed, mu, nu, block)
            assert violation == pytest.approx(0.8, abs=1e-12)

    def test_single_pair_trivial(self, instance_2x2):
        mu, nu = instance_2x2
        single = so.Coupling(np.array([0]), np.array([0]), np.array([1.0]), 0.4)
        for block in (1, 3, 2048):
            assert so.cyclical_monotonicity_violation(single, mu, nu, block) == 0.0

    def test_empty_coupling(self, instance_2x2):
        mu, nu = instance_2x2
        empty = so.Coupling(np.array([], dtype=int), np.array([], dtype=int), np.array([]), 0.0)
        assert so.support_monotonicity_min(empty, mu, nu) == np.inf
        assert so.cyclical_monotonicity_violation(empty, mu, nu) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("block", ["1", "3", "above s"])
    def test_matches_pairwise_reference(self, rng, n, block):
        # shuffled supports with up to 12 entries per source, so blocks of
        # 1 and 3 entries end inside a source's support
        for _ in range(25):
            n_src, n_tgt = rng.integers(1, 13, size=2)
            mu = make_measure(g.random_sphere_points(n, n_src, rng))
            nu = make_measure(g.random_sphere_points(n, n_tgt, rng))
            s = int(rng.integers(1, n_src * n_tgt + 1))
            pairs = rng.permutation(rng.choice(n_src * n_tgt, size=s, replace=False))
            coupling = so.Coupling(pairs // n_tgt, pairs % n_tgt, np.full(s, 1.0 / s), 0.0)
            size = s + 1 if block == "above s" else int(block)
            got = so.support_monotonicity_min(coupling, mu, nu, size)
            assert got == pytest.approx(_monotonicity_brute(coupling, mu, nu), abs=1e-12)

    def test_support_monotonicity_identity(self, rng):
        pts = g.random_sphere_points(2, 40, rng)
        mu = make_measure(pts)
        coupling, _ = so.solve_exact(mu, mu)
        assert so.support_monotonicity_min(coupling, mu, mu) >= -1e-12


class TestLogSumExp:
    @pytest.mark.parametrize("shape", [(7, 11), (1, 9), (9, 1), (1, 1), (40, 3)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_bitwise_equal_to_scipy(self, rng, shape, axis):
        for scale in (1.0, 1.0, 300.0, 300.0):
            a = scale * rng.normal(size=shape)
            ties = np.round(a)  # many tied maxima per row and column
            for arr in (a, ties, np.zeros(shape)):
                assert _logsumexp(arr, axis).tobytes() == logsumexp(arr, axis=axis).tobytes()

    def test_entropic_solve_unchanged_with_scipy(self):
        mesh = me.quasi_uniform_mesh(2, 80, 1)
        mu = resolve_measure("cap:0.98", mesh)
        nu = resolve_measure("uniform", mesh)
        ours = _log_domain_sinkhorn(mu, nu, reg=0.01)
        reference = _log_domain_sinkhorn(mu, nu, 0.01, lse=lambda a, axis: logsumexp(a, axis=axis))
        assert ours[2] == reference[2]
        for got, want in zip(ours[:2], reference[:2]):
            for name, value in vars(want).items():
                assert np.asarray(getattr(got, name)).tobytes() == np.asarray(value).tobytes()


class TestBrenierPotential:
    def test_single_target(self):
        nu = make_measure([[0.6, 0.0, 0.8]], weights=[1.0])
        duals = so.DualPotentials(np.zeros(1), np.zeros(1))
        x = np.array([0.0, 0.0, 1.0])
        value, argmax = so.brenier_potential(duals, nu, x)
        assert value == pytest.approx(0.8, abs=1e-12)
        assert list(argmax) == [0]

    def test_symmetric_tie(self):
        nu = make_measure([[1.0, 0.0], [0.0, 1.0]])
        duals = so.DualPotentials(np.zeros(2), np.zeros(2))
        x = np.array([np.sqrt(0.5), np.sqrt(0.5)])
        value, argmax = so.brenier_potential(duals, nu, x)
        assert value == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert set(argmax) == {0, 1}

    def test_support_in_subdifferential(self, rng):
        w = rng.random(12) + 0.3
        mu = make_measure(g.random_sphere_points(2, 12, rng), weights=w / w.sum())
        nu = make_measure(g.random_sphere_points(2, 12, rng))
        coupling, duals = so.solve_exact(mu, nu)
        for i in range(12):
            value, argmax = so.brenier_potential(duals, nu, mu.points[i])
            cols, _ = images_of(coupling, i)
            assert set(cols.tolist()).issubset(set(argmax.tolist()))
            assert value == pytest.approx(1.0 - duals.psi[i] / 2.0, abs=1e-9)


class TestIO:
    def test_coupling_csv_round_trip(self, tmp_path, instance_2x2):
        mu, nu = instance_2x2
        coupling, duals = so.solve_exact(mu, nu)
        path = tmp_path / "coupling.csv"
        so.save_coupling_csv(coupling, path)
        loaded = so.load_coupling_csv(path, mu, nu)
        assert np.array_equal(loaded.rows, coupling.rows)
        assert np.array_equal(loaded.cols, coupling.cols)
        assert np.array_equal(loaded.mass, coupling.mass)
        assert loaded.total_cost == pytest.approx(coupling.total_cost, abs=1e-12)

    def test_coupling_csv_bytes_match_csv_writer(self, tmp_path, rng):
        import csv

        def reference(coupling, path):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["i", "j", "mass"])
                for i, j, m in zip(coupling.rows, coupling.cols, coupling.mass):
                    writer.writerow([int(i), int(j), repr(float(m))])

        mu = make_measure(g.random_sphere_points(2, 60, rng))
        nu = make_measure(g.random_sphere_points(2, 70, rng))
        entropic, _ = so.solve_entropic(mu, nu, reg=0.01)
        # extreme magnitudes, a repr with 17 digits, a 64-bit index, no entries
        special = so.Coupling(
            np.array([0, 7, 123456789]), np.array([1 << 40, 0, 3]),
            np.array([1e-300, 0.1 + 0.2, 5e-324]), 0.0,
        )
        empty = so.Coupling(np.array([], dtype=int), np.array([], dtype=int), np.array([]), 0.0)
        for k, coupling in enumerate((entropic, special, empty)):
            reference(coupling, tmp_path / f"ref{k}.csv")
            so.save_coupling_csv(coupling, tmp_path / f"new{k}.csv")
            expected = (tmp_path / f"ref{k}.csv").read_bytes()
            assert (tmp_path / f"new{k}.csv").read_bytes() == expected

    @pytest.mark.parametrize("line", ["-1,0,0.5", "2,0,0.5", "0,-1,0.5", "0,2,0.5"])
    def test_coupling_csv_index_out_of_range(self, tmp_path, instance_2x2, line):
        mu, nu = instance_2x2
        path = tmp_path / "coupling.csv"
        path.write_text(f"i,j,mass\n0,0,0.5\n{line}\n")
        with pytest.raises(SolverError, match="index outside"):
            so.load_coupling_csv(path, mu, nu)

    def test_duals_json(self, tmp_path, instance_2x2):
        import json

        mu, nu = instance_2x2
        coupling, duals = so.solve_exact(mu, nu)
        path = tmp_path / "duals.json"
        so.save_duals_json(duals, coupling.total_cost, path)
        with open(path) as fh:
            data = json.load(fh)
        assert data["total_cost"] == pytest.approx(0.4)
        assert len(data["psi"]) == 2 and len(data["phi"]) == 2

    def test_truncate_support(self):
        coupling = so.Coupling(
            np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([1.0, 1e-9, 0.5]), 0.0
        )
        out = so.truncate_support(coupling, 1e-6)
        assert out.size == 2
        assert set(zip(out.rows.tolist(), out.cols.tolist())) == {(0, 0), (1, 1)}
