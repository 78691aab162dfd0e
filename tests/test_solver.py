import re
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.special import logsumexp

from conftest import brenier_potential, brute_force_oracle, images_of, make_measure, warp
from sphere_ot import geometry as g
from sphere_ot import measures as me
from sphere_ot import solver as so
from sphere_ot.errors import ConfigError, ConvergenceError, SolverError, SolverFallbackWarning
from sphere_ot.pipeline import RunConfig, extraction_support, resolve_measure, run_pipeline


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
        _, f, s, _ = duals.certificate(coupling, mu, nu)
        assert f <= 1e-9 and s <= 1e-9

    def test_forced_split(self):
        mu = make_measure([[0.0, 0.0, 1.0]], weights=[1.0])
        nu = make_measure([[0.6, 0.0, 0.8], [0.6, 0.0, -0.8]])
        coupling, _ = so.solve_exact(mu, nu)
        assert coupling.size == 2
        assert np.allclose(np.sort(coupling.mass), [0.5, 0.5])

    def test_nan_mass_rejected(self, instance_2x2):
        coupling = so.Coupling(np.array([0, 1]), np.array([0, 1]), np.array([np.nan, 0.5]), 0.0)
        with pytest.raises(SolverError):
            coupling.validate(*instance_2x2)

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
            assert duals.phi.max() == 0.0  # the gauge of the assignment path
            assert coupling.size <= 20 + 25 - 1
            gap, f, s, _ = duals.certificate(coupling, mu, nu)
            assert f <= 1e-9 and s <= 1e-9 and abs(gap) <= 1e-8
            assert so.cyclical_monotonicity_violation(coupling, mu, nu) <= 1e-9

    def test_assignment_path_matches_lp(self, rng):
        pts_mu = g.random_sphere_points(2, 30, rng)
        pts_nu = g.random_sphere_points(2, 30, rng)
        mu = make_measure(pts_mu)
        nu = make_measure(pts_nu)
        fast, duals = so.solve_exact(mu, nu)
        slow, _ = so._solve_lp(mu, nu)
        assert fast.total_cost == pytest.approx(slow.total_cost, abs=1e-10)
        _, f, s, _ = duals.certificate(fast, mu, nu)
        assert f <= 1e-12 and s <= 1e-12

    def test_gradient_warp_oracle(self, rng):
        # targets are the sources pushed by the gradient of the convex
        # function |y + 0.35 e|; the identity pairing is provably optimal
        pts = g.random_sphere_points(2, 300, rng)
        mu, nu = make_measure(pts), make_measure(warp(pts))
        coupling, _ = so.solve_exact(mu, nu)
        expected = float(np.mean(np.einsum("ij,ij->i", pts - nu.points, pts - nu.points)))
        assert coupling.total_cost == pytest.approx(expected, abs=1e-12)


class TestFeasibilityGap:
    # 3 x 40 000 prices in one-line blocks: _row_step is 1 above BLOCK^2 / 2 columns
    @pytest.mark.parametrize("n, n_src, n_tgt", [
        (1, 600, 600), (2, 600, 600), (3, 600, 600), (2, 3, 40_000),
    ], ids=["1", "2", "3", "one-line-blocks"])
    def test_matches_whole_matrix(self, rng, n, n_src, n_tgt):
        mu = make_measure(g.random_sphere_points(n, n_src, rng))
        nu = make_measure(g.random_sphere_points(n, n_tgt, rng))
        _, duals = so.solve_exact(mu, nu)
        c = g.cost_matrix(mu.points, nu.points)
        whole = float((duals.psi[:, None] + duals.phi[None, :] - c).max())
        assert abs(duals.feasibility_gap(mu, nu) - whole) <= 1e-15
        # every row's and column's minimum: a product entry may differ from the
        # dense one by a few ulp of its terms, which grow with the duals (|psi| +
        # |phi| reach 7.7 on the 3-source instance, and a column's minimum 1.3e-15)
        dense = c - duals.psi[:, None] - duals.phi[None, :]
        scale = max(1.0, np.abs(duals.psi).max() + np.abs(duals.phi).max())
        for got, want in zip(so._line_minima(mu.points, nu.points, duals.psi, duals.phi),
                             (dense.min(axis=1), dense.min(axis=0))):
            assert np.abs(got - want).max() <= 1e-15 * scale
        # a shifted psi in the last row block shows in full
        shifted = so.DualPotentials(duals.psi.copy(), duals.phi)
        shifted.psi[-1] += 1e-6
        assert shifted.feasibility_gap(mu, nu) >= 1e-6 - 1e-15

    def test_no_array_as_large_as_c(self, rng):
        # on the wide instance a block holds 2 rows of 30 000 entries, and on
        # the widest one row; blocks of 256 whole rows peaked at 59 MiB on the first
        for n_src, n_tgt in ((2000, 2000), (300, 30_000), (100, 70_000)):
            mu = make_measure(g.random_sphere_points(2, n_src, rng))
            nu = make_measure(g.random_sphere_points(2, n_tgt, rng))
            duals = so.DualPotentials(rng.normal(size=n_src), rng.normal(size=n_tgt))
            tracemalloc.start()
            try:
                gap = duals.feasibility_gap(mu, nu)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * n_src * n_tgt * 8
            reduced = g.cost_matrix(mu.points, nu.points)
            reduced -= duals.psi[:, None]
            reduced -= duals.phi[None, :]
            assert abs(gap + reduced.min()) <= 1e-15

    def test_nan_duals_give_nan(self, rng):
        mu = make_measure(g.random_sphere_points(2, 300, rng))
        nu = make_measure(g.random_sphere_points(2, 300, rng))
        psi = np.zeros(300)
        psi[-1] = np.nan
        assert np.isnan(so.DualPotentials(psi, np.zeros(300)).feasibility_gap(mu, nu))


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
        mu, nu = make_measure(pts), make_measure(warp(pts))
        coupling, duals = so.solve_exact(mu, nu)
        assert calls == [63, 250, 1000]  # 1000 -> 250 -> 63 atoms: two coarse levels
        assert np.array_equal(coupling.cols, np.arange(1000))
        expected = float(np.mean(np.sum((mu.points - nu.points) ** 2, axis=1)))
        assert coupling.total_cost == pytest.approx(expected, abs=1e-12)
        gap, f, s, _ = duals.certificate(coupling, mu, nu)
        assert abs(gap) <= 1e-12 and f <= 1e-12 and s <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_any_candidate_set_gives_dense_duals(self, rng, monkeypatch, n):
        # from the assignment alone the first pricing pass finds failing
        # pairs, so later passes re-price only the rows whose tail dual fell
        priced = []
        real = so._failing_pairs

        def spy(c, own, tail, phi, stale):
            priced.append(len(stale))
            return real(c, own, tail, phi, stale)

        monkeypatch.setattr(so, "_failing_pairs", spy)
        count = 60
        c = g.cost_matrix(g.random_sphere_points(n, count, rng), g.random_sphere_points(n, count, rng))
        _, assign = linear_sum_assignment(c)
        psi, phi = _dense_assignment_duals(c, assign)
        every = np.divmod(np.arange(count * count), count)
        step = so._row_step(count)
        nearest = so._smallest_per_row(lambda lo: c[lo:lo + step].copy(), count, so.NEIGHBOURS,
                                       step)
        alone = (np.empty(0, dtype=int), np.empty(0, dtype=int))
        for rows, cols in (every, nearest, alone):
            priced.clear()
            got_psi, got_phi = so._assignment_duals(c, assign, rows, cols)
            assert got_psi.tobytes() == psi.tobytes()
            assert got_phi.tobytes() == phi.tobytes()
            assert priced[0] == count
        assert len(priced) >= 2 and max(priced[1:]) < count

    def test_blocks_keep_the_bits(self, rng, monkeypatch):
        # with BLOCK 5 the carry-up, the candidate selection and the pricing
        # each take one row or column at a time: on the assignment path (300
        # equal-weight atoms have a coarse level) and on the LP path (uneven
        # weights, above LP_FULL_PAIRS). feasibility_gap is not compared: on
        # S^3 a cost block can differ from the whole matrix in the last ulp
        def solved(mu, nu, block):
            monkeypatch.setattr(so, "BLOCK", block)
            coupling, duals = so.solve_exact(mu, nu)
            return [a.tobytes() for a in
                    (coupling.rows, coupling.cols, coupling.mass, duals.psi, duals.phi)]

        mu = make_measure(g.random_sphere_points(2, 300, rng))
        nu = make_measure(g.random_sphere_points(2, 300, rng))
        assert 300 * 300 > so.FULL_PAIRS
        assert solved(mu, nu, 256) == solved(mu, nu, 5)
        assert so._row_step(300) == 1
        monkeypatch.setattr(so, "linprog", linprog)  # each LP instance's coarsest level
        for n, n_src, n_tgt in ((1, 300, 280), (2, 300, 300), (3, 250, 330)):
            mu, nu = _random_instance(rng, n, n_src, n_tgt)
            assert n_src * n_tgt > so.LP_FULL_PAIRS
            assert solved(mu, nu, 256) == solved(mu, nu, 5)

    def test_one_cost_matrix_at_a_time(self, rng):
        # the reduced costs are formed in the cost matrix itself, and beside
        # it are the coarse level's matrix (a sixteenth of its size) and
        # blocks of at most BLOCK * BLOCK entries: 1.08x here, where blocks
        # of 256 whole rows read 1.22x
        pts = g.random_sphere_points(2, 3000, rng)
        mu, nu = make_measure(pts), make_measure(warp(pts))
        tracemalloc.start()
        try:
            coupling, _ = so.solve_exact(mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(coupling.cols, np.arange(3000))
        assert peak <= 1.1 * 3000 * 3000 * 8


def test_unsettled_assignment_duals_fall_back_to_lp_loudly(rng, monkeypatch):
    # 300 atoms: the coarse level's duals fail too and the warm start is zero
    monkeypatch.setattr(so, "_assignment_duals", lambda *args: None)
    mu = make_measure(g.random_sphere_points(2, 300, rng))
    nu = make_measure(g.random_sphere_points(2, 300, rng))
    with pytest.warns(SolverFallbackWarning, match="did not settle"):
        coupling, duals = so.solve_exact(mu, nu)
    coupling.validate(mu, nu)
    _, f, s, _ = duals.certificate(coupling, mu, nu)
    assert f <= 1e-9 and s <= 1e-9
    # costed from the points: the reduced costs would shift it by sum(psi + phi) / n
    lp, _ = so._solve_lp(mu, nu)
    assert abs(coupling.total_cost - lp.total_cost) <= 1e-12


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


def _nearest(points, centres):
    """The position of each point's nearest centre, by brute force."""
    return np.argmin(((points[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2), axis=1)


class TestColumnGeneration:
    """Instances above so.LP_FULL_PAIRS take the multiscale warm start."""

    @pytest.mark.parametrize("n, n_src, n_tgt", [
        (1, 210, 210), (2, 210, 210), (3, 210, 210), (2, 600, 90),
        (2, 6000, 7), (2, 7, 6000),
    ])
    def test_certified_and_matches_dense_lp(self, rng, n, n_src, n_tgt):
        assert n_src * n_tgt > so.LP_FULL_PAIRS
        mu, nu = _random_instance(rng, n, n_src, n_tgt)
        coupling, duals = so.solve_exact(mu, nu)
        coupling.validate(mu, nu, tol=1e-12)
        assert duals.phi.max() == 0.0
        gap, f, s, _ = duals.certificate(coupling, mu, nu)
        assert abs(gap) <= 1e-12 and f <= 1e-12 and s <= 1e-12
        assert coupling.total_cost == pytest.approx(_dense_lp_cost(mu, nu), abs=1e-12)

    @pytest.mark.parametrize("n_src, n_tgt", [(600, 300), (7, 900), (900, 7)])
    def test_blocked_carry_up_matches_whole_matrix(self, rng, n_src, n_tgt):
        xs = g.random_sphere_points(2, n_src, rng)
        ys = g.random_sphere_points(2, n_tgt, rng)
        # the blocks _initial_candidates carries the duals up on: c from factors of zero duals
        left, right = g.cost_factors(xs, ys, 0.0, 0.0)
        c = _stacked_product(left, right)
        cols = np.arange(0, n_tgt, 4)
        phi_coarse = rng.normal(scale=0.1, size=len(cols))
        step = so._row_step(n_tgt)
        psi, phi = so._c_transforms(lambda lo: so._reduced(left, right, slice(lo, lo + step)),
                                    n_src, cols, phi_coarse, step)
        rows, picks = so._smallest_reduced(xs, ys, psi, phi, so.LP_NEIGHBOURS,
                                           np.arange(n_src), np.arange(n_tgt))
        want_psi = (c[:, cols] - phi_coarse[None, :]).min(axis=1)
        want_phi = (c - want_psi[:, None]).min(axis=0)
        assert psi.tobytes() == want_psi.tobytes() and phi.tobytes() == want_phi.tobytes()
        # the reference selects on c - psi - phi built from the same factors as
        # _smallest_reduced's blocks, so this checks the selection and its tie
        # rule (ties go to the lower index), not the arithmetic
        left, right = g.cost_factors(xs, ys, want_psi, want_phi)
        by_row, by_col = _stacked_product(left, right), _stacked_product(right, left)
        want = np.zeros(c.shape, dtype=bool)
        for lines, reduced in ((want, by_row), (want.T, by_col)):
            best = np.argsort(reduced, axis=1, kind="stable")[:, :so.LP_NEIGHBOURS]
            np.put_along_axis(lines, best, True, axis=1)
        got = np.zeros(c.shape, dtype=bool)
        got[rows, picks] = True
        assert np.array_equal(got, want)

    def test_first_candidates_hold_coarse_support_children(self, rng, monkeypatch):
        # every level with a coarse one: each fine pair (i, j) whose nearest
        # centres carry a coarse pair of positive mass is a first candidate
        levels, plans = [], {}
        initial, generation = so._initial_candidates, so._column_generation

        def initial_spy(xs, ys, a, b):
            levels.append(((len(xs), len(ys)), xs, ys, initial(xs, ys, a, b)))
            return levels[-1][-1]

        def generation_spy(xs, ys, *args):
            plans[len(xs), len(ys)] = generation(xs, ys, *args)
            return plans[len(xs), len(ys)]

        monkeypatch.setattr(so, "_initial_candidates", initial_spy)
        monkeypatch.setattr(so, "_column_generation", generation_spy)
        so.solve_exact(*_random_instance(rng, 2, 300, 200))
        coarse_levels = [lv for lv in levels if lv[0][0] * lv[0][1] > so.LP_FULL_PAIRS]
        assert len(coarse_levels) == 2
        for shape, xs, ys, first in coarse_levels:
            src_centres, tgt_centres = xs[::so.COARSEN], ys[::so.COARSEN]
            src_owner, tgt_owner = _nearest(xs, src_centres), _nearest(ys, tgt_centres)
            rows, cols, mass, *_ = plans[(len(src_centres), len(tgt_centres))]
            held = np.zeros(shape, dtype=bool)
            held[first] = True
            positive = mass > 0
            assert 0 < positive.sum() < len(mass)
            for i, j in zip(rows[positive], cols[positive]):
                assert held[np.ix_(src_owner == i, tgt_owner == j)].all()

    def test_coarsen_owner_map(self, rng):
        points = g.random_sphere_points(2, 400, rng)
        weights = np.where(points[:, 2] > 0.2, 0.0, rng.random(400) + 0.3)
        centres, mass, owner = so._coarsen(points, weights)
        assert len(centres) < len(range(0, 400, so.COARSEN))  # some centre had no mass
        assert np.all(mass > 0)
        assert np.array_equal(owner, _nearest(points, points[centres]))
        assert np.array_equal(np.bincount(owner, weights=weights, minlength=len(centres)), mass)
        # the zero-weight atoms' rows and the dropped centres' children
        mu = make_measure(points, weights / weights.sum())
        nu = make_measure(g.random_sphere_points(2, 150, rng))
        coupling, duals = so.solve_exact(mu, nu)
        _, f, s, _ = duals.certificate(coupling, mu, nu)
        assert f <= 1e-12 and s <= 1e-12
        assert coupling.total_cost == pytest.approx(_dense_lp_cost(mu, nu), abs=1e-12)

    def test_support_in_row_major_order(self, rng):
        mu, nu = _random_instance(rng, 2, 300, 200)
        coupling, _ = so.solve_exact(mu, nu)
        keys = coupling.rows * nu.count + coupling.cols
        assert np.all(np.diff(keys) > 0)

    def test_no_array_as_large_as_c(self):
        # the cost blocks are built from the points, 65 rows of 1000 here;
        # a dense n x m float array, or two blocks with an index array of
        # each, would pass half of n * m * 8 bytes
        mesh = me.quasi_uniform_mesh(2, 1000, 1)
        mu, nu = resolve_measure("cap:0.98", 2, mesh), resolve_measure("uniform", 2, mesh)
        tracemalloc.start()
        try:
            so._column_generation(mu.points, nu.points, mu.weights, nu.weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * mu.count * nu.count * 8

    @pytest.mark.parametrize("n_src, n_tgt", [(1000, 1000), (6000, 7), (7, 6000)])
    def test_cost_blocks_of_at_most_block_rows(self, rng, monkeypatch, n_src, n_tgt):
        # every block of reduced costs the LP path reads is one product of
        # factors built from the points, of _row_step rows or columns: at most
        # BLOCK * BLOCK entries, or one line; no whole cost matrix is built
        seen = []
        real = so._reduced

        def spy(left, right, lines):
            block = real(left, right, lines)
            seen.append(block.shape)
            return block

        monkeypatch.setattr(so, "_reduced", spy)
        monkeypatch.setattr(so, "cost_matrix", None)
        mu, nu = _random_instance(rng, 2, n_src, n_tgt)
        coupling, duals = so.solve_exact(mu, nu)
        assert seen and all(rows * width <= max(so.BLOCK ** 2, width) for rows, width in seen)
        _, f, s, _ = duals.certificate(coupling, mu, nu)
        assert f <= 1e-12 and s <= 1e-12

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


def _cap_instance(n, size=150):
    """cap:0.98 against uniform on a quasi-uniform mesh of S^n: above
    LP_FULL_PAIRS, and every level past the coarsest takes warm rounds."""
    mesh = me.quasi_uniform_mesh(n, size, 1)
    return resolve_measure("cap:0.98", n, mesh), resolve_measure("uniform", n, mesh)


class _ColdModel:
    """All-cold reference for the HiGHS model of a level: every run
    re-solves all of its columns from scratch with linprog."""

    def __init__(self, b_eq):
        self.b_eq = b_eq
        self.costs, self.rows, self.cons = np.empty(0), np.empty(0, int), np.empty(0, int)

    def round(self, costs, rows, cons):
        self.costs = np.append(self.costs, costs)
        self.rows, self.cons = np.append(self.rows, rows), np.append(self.cons, cons)
        k = len(self.costs)
        a_eq = sparse.csr_matrix(
            (np.ones(2 * k), (np.append(self.rows, self.cons), np.tile(np.arange(k), 2))),
            shape=(len(self.b_eq), k),
        )
        res = linprog(self.costs, A_eq=a_eq, b_eq=self.b_eq, bounds=(0, None),
                      method="highs-ipm", options=so.HIGHS_OPTIONS)
        assert res.status == 0
        return res.x, res.eqlin.marginals


class TestWarmRounds:
    """Every round after the first of a level restarts one HiGHS model."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Records (pairs priced, pairs added) of every warm round."""
        rounds = []
        priced, run = so._priced_pairs, so._lp_run

        def priced_spy(xs, ys, psi, phi, *candidates):
            rows, cols = priced(xs, ys, psi, phi, *candidates)
            if len(rows):
                rounds.append({"xs": xs, "ys": ys, "psi": psi, "phi": phi,
                               "picked": (rows, cols)})
            return rows, cols

        def run_spy(model, costs, rows, cons, warm):
            if warm:
                rounds[-1]["added"] = (rows, cons - len(rounds[-1]["psi"]))
            return run(model, costs, rows, cons, warm)

        monkeypatch.setattr(so, "_priced_pairs", priced_spy)
        monkeypatch.setattr(so, "_lp_run", run_spy)
        return rounds

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_certified_and_matches_dense_lp(self, spy, n):
        mu, nu = _cap_instance(n)
        coupling, duals = so.solve_exact(mu, nu)
        assert spy and all("added" in r for r in spy)
        coupling.validate(mu, nu, tol=1e-12)
        assert duals.phi.max() == 0.0
        gap, f, s, _ = duals.certificate(coupling, mu, nu)
        assert abs(gap) <= 1e-12 and f <= 1e-12 and s <= 1e-12
        assert coupling.total_cost == pytest.approx(_dense_lp_cost(mu, nu), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_duals_match_all_cold_rounds(self, monkeypatch, n):
        mu, nu = _cap_instance(n)
        warm, warm_duals = so.solve_exact(mu, nu)
        monkeypatch.setattr(so, "_lp_model", _ColdModel)
        monkeypatch.setattr(so, "_lp_run", lambda model, *pairs, warm: model.round(*pairs))
        cold, cold_duals = so.solve_exact(mu, nu)
        assert warm.total_cost == pytest.approx(cold.total_cost, abs=1e-12)
        if n > 1:  # the equally spaced circle has tied optimal plans
            assert np.array_equal(warm.rows, cold.rows) and np.array_equal(warm.cols, cold.cols)
            np.testing.assert_allclose(warm.mass, cold.mass, rtol=0, atol=1e-12)
        assert warm_duals.phi.max() == 0.0 and cold_duals.phi.max() == 0.0
        np.testing.assert_allclose(warm_duals.psi, cold_duals.psi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(warm_duals.phi, cold_duals.phi, rtol=0, atol=1e-12)

    def test_each_round_adds_two_most_negative_per_line(self, spy):
        mu, nu = _cap_instance(2)
        so.solve_exact(mu, nu)
        assert len(spy) >= 2
        for r in spy:
            reduced = g.cost_matrix(r["xs"], r["ys"]) - r["psi"][:, None] - r["phi"][None, :]
            priced = reduced < -so.PRICE_TOL
            want = np.zeros(reduced.shape, dtype=bool)
            for axis in (0, 1):
                # rank the priced pairs of every line by reduced cost; keep ranks 0 and 1
                order = np.argsort(np.where(priced, reduced, np.inf), axis=axis)
                ranks = np.argsort(order, axis=axis)
                want |= priced & (ranks < 2)
            for pairs in (r["picked"], r["added"]):
                got = np.zeros(reduced.shape, dtype=bool)
                got[pairs] = True
                assert np.array_equal(got, want)
                assert np.all(np.diff(pairs[0] * reduced.shape[1] + pairs[1]) > 0)

    def test_uncertified_warm_duals_raise(self, monkeypatch):
        run = so._lp_run

        def perturbed(*args, warm):
            mass, duals = run(*args, warm=warm)
            if warm:
                duals[-1] += 1e-6
            return mass, duals

        monkeypatch.setattr(so, "_lp_run", perturbed)
        with pytest.raises(SolverError, match="not certified"):
            so.solve_exact(*_cap_instance(2))

    def test_non_optimal_warm_round_raises(self, monkeypatch):
        # from the first warm round on, no rung of the ladder may take a step
        run = so._lp_run

        def capped(model, *pairs, warm):
            if warm:
                model.setOptionValue("simplex_iteration_limit", 0)
                model.setOptionValue("ipm_iteration_limit", 0)
            return run(model, *pairs, warm=warm)

        monkeypatch.setattr(so, "_lp_run", capped)
        with pytest.raises(SolverError, match="warm round ended"):
            so.solve_exact(*_cap_instance(2))

    def test_non_optimal_first_lp_raises(self, monkeypatch):
        # no run of a level's first LP may take a step; interior point, then
        # dual simplex from where it stopped, must both be tried. linprog
        # builds its models from the same class, but never adds columns.
        runs = []

        class Capped(so.highs._Highs):
            def addCols(self, *args):
                self.capped = True
                self.setOptionValue("simplex_iteration_limit", 0)
                self.setOptionValue("ipm_iteration_limit", 0)
                return super().addCols(*args)

            def run(self):
                if getattr(self, "capped", False):
                    runs.append(self.getOptionValue("solver")[1])
                return super().run()

        monkeypatch.setattr(so.highs, "_Highs", Capped)
        with pytest.raises(SolverError, match="first LP ended"):
            so.solve_exact(*_cap_instance(2))
        assert runs == ["ipm", "simplex"]

    @pytest.mark.parametrize("failures", [1, 2])
    def test_warm_round_stopping_short_runs_again(self, monkeypatch, failures):
        # the first warm run, and with two failures the interior point run
        # after it too, reports Unknown; the round must then climb the ladder
        # (a cleared model by interior point, then dual simplex) to a
        # certified plan. A model's runs are warm once it has run and taken
        # columns again; linprog builds its models from the same class, but
        # never adds columns.
        cleared, solvers = [], []

        class StoppingShort(so.highs._Highs):
            warm_runs = 0

            def addCols(self, *args):
                self.warm = getattr(self, "ran", False)
                return super().addCols(*args)

            def run(self):
                self.ran = True
                StoppingShort.warm_runs += getattr(self, "warm", False)
                if getattr(self, "warm", False):
                    solvers.append(self.getOptionValue("solver")[1])
                return super().run()

            def getModelStatus(self):
                if getattr(self, "warm", False) and StoppingShort.warm_runs <= failures:
                    return so.highs.HighsModelStatus.kUnknown
                return super().getModelStatus()

            def clearSolver(self):
                cleared.append(StoppingShort.warm_runs)
                return super().clearSolver()

        monkeypatch.setattr(so.highs, "_Highs", StoppingShort)
        mu, nu = _cap_instance(2)
        coupling, duals = so.solve_exact(mu, nu)
        # the one fine level clears its model before its first run and
        # before the interior point run of the warm round that stopped short
        assert cleared == [0, 1]
        ladder = ["simplex", "ipm", "simplex"][:failures + 1]
        assert solvers[:failures + 1] == ladder and set(solvers[failures + 1:]) <= {"simplex"}
        gap, f, s, _ = duals.certificate(coupling, mu, nu)
        assert abs(gap) <= 1e-12 and f <= 1e-12 and s <= 1e-12

    def test_dual_infeasible_crossover_runs_dual_simplex(self, monkeypatch):
        # crossover can end Optimal on a basis whose duals break the dual
        # feasibility tolerance; here every level's first run reports so, and
        # dual simplex must go on from that basis
        models = []

        class DualInfeasible(so.highs._Highs):
            def addCols(self, *args):
                if not hasattr(self, "runs"):
                    self.runs = []
                    models.append(self)
                return super().addCols(*args)

            def run(self):
                if hasattr(self, "runs"):
                    self.runs.append(self.getOptionValue("solver")[1])
                return super().run()

            def getInfo(self):
                info = super().getInfo()
                if getattr(self, "runs", None) == ["ipm"]:
                    info.dual_solution_status = int(so.highs.kSolutionStatusInfeasible)
                return info

        monkeypatch.setattr(so.highs, "_Highs", DualInfeasible)
        mu, nu = _cap_instance(2)
        coupling, duals = so.solve_exact(mu, nu)
        assert models and all(model.runs[:2] == ["ipm", "simplex"] for model in models)
        gap, f, s, _ = duals.certificate(coupling, mu, nu)
        assert abs(gap) <= 1e-12 and f <= 1e-12 and s <= 1e-12


@pytest.mark.parametrize("seed, weight", [(0, 0.0), (1, 1e-14)])
def test_negligible_target_weights_certify(seed, weight, tmp_path):
    # cap:0.98 against uniform on S^1 at mesh 1000, with a fifth of the
    # targets at weight 0 or 1e-14: a level's first interior point run ends
    # Unknown, and dual simplex from where it stopped must finish it
    mesh = me.quasi_uniform_mesh(1, 1000, seed)
    mu, nu = resolve_measure("cap:0.98", 1, mesh), resolve_measure("uniform", 1, mesh)
    nu.weights[np.random.default_rng(seed).random(1000) < 0.2] = weight
    nu.weights /= nu.weights.sum()
    coupling, duals = so.solve_exact(mu, nu)
    coupling.validate(mu, nu, tol=1e-12)
    gap, f, s, _ = duals.certificate(coupling, mu, nu)
    assert abs(gap) <= 1e-12 and f <= 1e-12 and s <= 1e-12
    if weight > 0:
        # a measure file takes atoms above the plan's support cut, so the
        # 1e-14 targets also run the whole pipeline from files
        specs = [str(tmp_path / f"{side}.json") for side in ("mu", "nu")]
        me.save_measure(mu, specs[0])
        me.save_measure(nu, specs[1])
        result = run_pipeline(RunConfig(n=1, output_dir=tmp_path / "run"), *specs)
        assert (result.exit_code, result.summary["checks_failed"]) == (0, [])


def _stacked_product(left, right):
    """Every line of the factor left against right (g.cost_factors), stacked from
    the _reduced blocks of _row_step lines that the LP path builds."""
    step = so._row_step(len(right))
    return np.vstack([so._reduced(left, right, slice(lo, lo + step))
                      for lo in range(0, len(left), step)])


def _full_selection(xs, ys, psi, phi):
    """Reference for so._priced_pairs' selection: the ROUND_CAP pairs of
    smallest reduced cost of every row and every column, ties to the lower
    index, on the matrices stacked from the row blocks and from the column
    blocks of the factors of c - psi - phi, kept if priced below -PRICE_TOL
    under pair_costs."""
    m = len(ys)
    left, right = g.cost_factors(xs, ys, psi, phi)
    rows, cols = [], []
    reduced = _stacked_product(left, right)
    best = np.argsort(reduced, axis=1, kind="stable")[:, :so.ROUND_CAP]
    rows.append(np.repeat(np.arange(len(xs)), best.shape[1]))
    cols.append(best.ravel())
    reduced = _stacked_product(right, left)
    best = np.argsort(reduced, axis=1, kind="stable")[:, :so.ROUND_CAP]
    cols.append(np.repeat(np.arange(m), best.shape[1]))
    rows.append(best.ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    keep = g.pair_costs(xs, ys, rows, cols) - psi[rows] - phi[cols] < -so.PRICE_TOL
    return np.divmod(np.unique(rows[keep] * m + cols[keep]), m)


class TestPricing:
    @pytest.mark.parametrize("n, n_src, n_tgt", [
        (1, 600, 300), (2, 600, 300), (3, 300, 600), (2, 7, 900), (2, 900, 7),
    ])
    def test_matches_full_selection(self, rng, n, n_src, n_tgt):
        xs = g.random_sphere_points(n, n_src, rng)
        ys = g.random_sphere_points(n, n_tgt, rng)
        # c-transforms price no pair below 0; raising phi on some columns,
        # some of them by about PRICE_TOL, prices some lines negative
        step = so._row_step(n_tgt)
        psi, phi = so._c_transforms(lambda lo: g.cost_matrix(xs[lo:lo + step], ys), n_src,
                                    np.arange(0, n_tgt, 4), rng.normal(size=-(-n_tgt // 4)),
                                    step)
        none = np.empty(0, dtype=int)
        assert all(len(p) == 0 for p in so._priced_pairs(xs, ys, psi, phi, none, none))
        assert all(len(p) == 0 for p in _full_selection(xs, ys, psi, phi))
        raised = np.arange(n_tgt) % 5 == 1
        phi[raised] += np.resize([0.05, 2e-10, 0.5e-10, 1e-3], raised.sum())
        reduced = _stacked_product(*g.cost_factors(xs, ys, psi, phi))
        negative_rows = (reduced < -so.PRICE_TOL).any(axis=1)
        negative_cols = (reduced < -so.PRICE_TOL).any(axis=0)
        assert 0 < negative_rows.sum() < n_src and 0 < negative_cols.sum() < n_tgt
        got = so._priced_pairs(xs, ys, psi, phi, none, none)
        want = _full_selection(xs, ys, psi, phi)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestOracle:
    def test_2x2(self, instance_2x2):
        coupling = brute_force_oracle(*instance_2x2)
        assert coupling.total_cost == pytest.approx(0.4, abs=1e-12)

    def test_single_atom(self):
        mu = make_measure([[0.0, 0.0, 1.0]], weights=[1.0])
        nu = make_measure([[1.0, 0.0, 0.0]], weights=[1.0])
        coupling = brute_force_oracle(mu, nu)
        assert coupling.size == 1
        assert coupling.total_cost == pytest.approx(2.0, abs=1e-12)

    def test_matches_exact_on_random(self, rng):
        for n_atoms in range(2, 9):
            mu = make_measure(g.random_sphere_points(2, n_atoms, rng))
            nu = make_measure(g.random_sphere_points(2, n_atoms, rng))
            a = so.solve_exact(mu, nu)[0]
            b = brute_force_oracle(mu, nu)
            assert abs(a.total_cost - b.total_cost) <= 1e-9

    def test_preconditions(self, rng):
        big = make_measure(g.random_sphere_points(2, 9, rng))
        with pytest.raises(ConfigError):
            brute_force_oracle(big, big)
        mu = make_measure(g.random_sphere_points(2, 3, rng), weights=[0.5, 0.25, 0.25])
        nu = make_measure(g.random_sphere_points(2, 3, rng))
        with pytest.raises(ConfigError):
            brute_force_oracle(mu, nu)


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

    @pytest.mark.parametrize("reg", [0.0, -1.0, np.nan, np.inf])
    def test_reg_not_positive_finite_rejected(self, instance_2x2, reg):
        with pytest.raises(ConfigError):
            so.solve_entropic(*instance_2x2, reg=reg)

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

    def test_convergence_error(self, rng, monkeypatch):
        w1 = rng.random(20) + 0.3
        w2 = rng.random(20) + 0.3
        mu = make_measure(g.random_sphere_points(2, 20, rng), weights=w1 / w1.sum())
        nu = make_measure(g.random_sphere_points(2, 20, rng), weights=w2 / w2.sum())
        monkeypatch.setattr(so, "MAX_SWEEPS", 3)
        with pytest.raises(ConvergenceError):
            so.solve_entropic(mu, nu, reg=0.05)

    def test_non_finite_violation_raises(self, rng, monkeypatch):
        # a NaN cost entry makes the kernel, and so the violation, NaN
        mu = make_measure(g.random_sphere_points(2, 12, rng))
        nu = make_measure(g.random_sphere_points(2, 12, rng))

        def poisoned(x, y):
            c = g.cost_matrix(x, y)
            c[3, 5] = np.nan
            return c

        monkeypatch.setattr(so, "cost_matrix", poisoned)
        monkeypatch.setattr(so, "MAX_SWEEPS", 30)
        with pytest.raises(ConvergenceError, match="nan"):
            so.solve_entropic(mu, nu, reg=0.05)


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
    rows, cols = np.nonzero(plan)
    coupling = so._coupling(rows, cols, plan[rows, cols], mu.points, nu.points)
    return coupling, so.DualPotentials(f, h), it + 1


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
        got_t, want_t = (extraction_support(cp, "entropic") for cp in (got, want))
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
        mu = resolve_measure("cap:0.98", 2, mesh)
        nu = resolve_measure("uniform", 2, mesh)
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

    def test_crossed_plan_violation(self, instance_2x2, monkeypatch):
        mu, nu = instance_2x2
        crossed = so.Coupling(np.array([0, 1]), np.array([1, 0]), np.array([0.5, 0.5]), 0.8)
        for block in (1, 3, 256):
            monkeypatch.setattr(so, "BLOCK", block)
            violation = so.cyclical_monotonicity_violation(crossed, mu, nu)
            assert violation == pytest.approx(0.8, abs=1e-12)

    def test_single_pair_trivial(self, instance_2x2, monkeypatch):
        mu, nu = instance_2x2
        single = so.Coupling(np.array([0]), np.array([0]), np.array([1.0]), 0.4)
        for block in (1, 3, 256):
            monkeypatch.setattr(so, "BLOCK", block)
            assert so.cyclical_monotonicity_violation(single, mu, nu) == 0.0

    def test_empty_coupling(self, instance_2x2):
        mu, nu = instance_2x2
        empty = so.Coupling(np.array([], dtype=int), np.array([], dtype=int), np.array([]), 0.0)
        assert so.support_monotonicity_min(empty, mu, nu) == np.inf
        assert so.cyclical_monotonicity_violation(empty, mu, nu) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("block", ["1", "3", "above s"])
    def test_matches_pairwise_reference(self, rng, n, block, monkeypatch):
        # shuffled supports with up to 12 entries per source, so chunks of
        # 1 and 3 entries end inside a source's support
        for _ in range(25):
            n_src, n_tgt = rng.integers(1, 13, size=2)
            mu = make_measure(g.random_sphere_points(n, n_src, rng))
            nu = make_measure(g.random_sphere_points(n, n_tgt, rng))
            s = int(rng.integers(1, n_src * n_tgt + 1))
            pairs = rng.permutation(rng.choice(n_src * n_tgt, size=s, replace=False))
            coupling = so.Coupling(pairs // n_tgt, pairs % n_tgt, np.full(s, 1.0 / s), 0.0)
            monkeypatch.setattr(so, "BLOCK", s + 1 if block == "above s" else int(block))
            got = so.support_monotonicity_min(coupling, mu, nu)
            assert got == pytest.approx(_monotonicity_brute(coupling, mu, nu), abs=1e-12)

    def test_support_monotonicity_identity(self, rng):
        pts = g.random_sphere_points(2, 40, rng)
        mu = make_measure(pts)
        coupling, _ = so.solve_exact(mu, mu)
        assert so.support_monotonicity_min(coupling, mu, mu) >= -1e-12

    def test_memory_one_entry_per_source(self, rng):
        # a permutation of 4000 sources: chunks of 2048 entries made tiles of
        # 2048 x 2048 and a peak of 64 MiB, chunks of BLOCK about 1.5 MiB
        mu = make_measure(g.random_sphere_points(2, 4000, rng))
        nu = make_measure(g.random_sphere_points(2, 4000, rng))
        coupling = so.Coupling(np.arange(4000), rng.permutation(4000), np.full(4000, 1 / 4000), 0.0)
        tracemalloc.start()
        try:
            so.cyclical_monotonicity_violation(coupling, mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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
        mu = resolve_measure("cap:0.98", 2, mesh)
        nu = resolve_measure("uniform", 2, mesh)
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
        value, argmax = brenier_potential(duals, nu, x)
        assert value == pytest.approx(0.8, abs=1e-12)
        assert list(argmax) == [0]

    def test_symmetric_tie(self):
        nu = make_measure([[1.0, 0.0], [0.0, 1.0]])
        duals = so.DualPotentials(np.zeros(2), np.zeros(2))
        x = np.array([np.sqrt(0.5), np.sqrt(0.5)])
        value, argmax = brenier_potential(duals, nu, x)
        assert value == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert set(argmax) == {0, 1}

    def test_support_in_subdifferential(self, rng):
        w = rng.random(12) + 0.3
        mu = make_measure(g.random_sphere_points(2, 12, rng), weights=w / w.sum())
        nu = make_measure(g.random_sphere_points(2, 12, rng))
        coupling, duals = so.solve_exact(mu, nu)
        for i in range(12):
            value, argmax = brenier_potential(duals, nu, mu.points[i])
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

    @pytest.mark.parametrize("mass", ["-0.5", "0", "nan", "inf"])
    def test_coupling_csv_mass_not_positive(self, tmp_path, instance_2x2, mass):
        mu, nu = instance_2x2
        path = tmp_path / "coupling.csv"
        path.write_text(f"i,j,mass\n0,0,0.5\n1,1,{mass}\n")
        message = f"coupling.csv: line 3: ValueError('mass {mass} is not positive and finite')"
        with pytest.raises(SolverError, match=re.escape(message)):
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
