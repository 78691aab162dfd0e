"""Discrete quadratic-cost transport between sphere measures.

The exact backend is certified column generation on the transport LP:
HiGHS solves the LP restricted to a candidate set of pairs, every pair is
then priced with the LP duals, and pairs with negative reduced cost join
the candidates until none is left, at which point the duals are feasible
on every pair and the plan is optimal by certificate. This is the
shortlist idea of Gottschlich and Schuhmacher ("The shortlist method for
fast computation of the earth mover's distance and finding optimal
solutions to transportation problems", 2014). Pricing takes the minimum
of every row and column of reduced costs in one pass and selects pairs
only on the lines whose minimum is below -PRICE_TOL.
Each block of reduced costs c - psi - phi is one matrix product of the
two factors that geometry.cost_factors makes once per pass; the carry-up
below reads blocks of c the same way, with psi = phi = 0, and
geometry.cost_matrix is the whole product at psi = phi = 0.
Instances of at most LP_FULL_PAIRS pairs take every pair in one linprog
call (interior point with crossover). Larger ones first solve the
instance coarsened on both sides the same way, following Schmitzer ("A
sparse multiscale algorithm for dense optimal transport", 2016). The
first candidates of the fine level are the children of the coarse plan's
support, every fine pair whose atoms belong to a coarse pair of positive
mass (Schmitzer's shielding neighbourhoods), together with the
LP_NEIGHBOURS pairs of smallest reduced cost per row and per column under
the coarse duals carried up, and the north-west corner. Each such level
runs one HiGHS model, presolve off; each later round adds at most
ROUND_CAP priced pairs per row and per column to it. Every round climbs
one ladder until a run ends solved: dual simplex from the previous basis
(later rounds only), interior point with crossover on a cleared model,
then dual simplex from where that run stopped. That model is scipy's
bundled HiGHS object, scipy.optimize._highspy._core._Highs, a private
binding: pyproject.toml pins scipy to the series it was tested with, and
there is no fallback.
The LP duals are shifted so that max(phi) = 0, the gauge of the
assignment path.

When both sides have the same number of equally weighted atoms an
assignment path is used instead, built on the same two ideas. Every
COARSEN-th atom of each side in k-d tree order forms a coarse instance
that is solved first; its target duals, carried up by two c-transforms,
make linear_sum_assignment run on reduced costs, with the same optimum
in far fewer augmenting-path steps. The reduced costs are formed in place
in the cost matrix, which is then rebuilt for the sweeps below, so the
path holds one n x n array at a time; beside it are only the coarse
level's matrix and the blocks described below. Instances of
at most FULL_PAIRS pairs have no coarse level and run on the costs
themselves. The duals come from Jacobi Bellman-Ford sweeps from zero on
the column reassignment graph, run over the NEIGHBOURS smallest entries of
each row of the matrix linear_sum_assignment ran on and widened by
pricing: one pass over every row, then passes over the rows whose tail
dual fell. Each sweep is monotone and starts above every fixed point, so
any such run stops at the greatest fixed point at or below zero of the
sweep over all pairs: the duals are bit for bit those of sweeps over the
dense matrix. If the sweeps do not settle, solve_exact warns with
SolverFallbackWarning and solves the LP.

Both exact paths pass over pairs in blocks of whole rows (or columns) of at
most BLOCK * BLOCK entries, one line when a line holds more (_row_step):
the LP path builds them as products of the factors and holds no array of
every pair, and the assignment path copies them from its cost matrix,
since its dual sweeps need the bits linear_sum_assignment ran on.
DualPotentials.feasibility_gap reads the LP path's blocks.

The entropic backend is the stabilised scaling of Schmitzer ("Stabilized
sparse scaling algorithms for entropy regularized transport problems",
2019): the kernel is built once for absorbed potentials, each half-step
is one matrix-vector product, and scalings above SCALING_BOUND are
absorbed into the potentials before the kernel is rebuilt. Its plan is
rounded onto the marginals as in Altschuler, Weed and Rigollet (2017,
Algorithm 2).

Dual potentials are returned in the cost form psi_i + phi_j <= c(x_i, y_j),
and every plan is costed by geometry.pair_costs. DualPotentials.certificate
is the one statement of an exact plan's certificate: the duality gap,
feasibility_gap, slackness_gap and the bound they give on every swap gain.
"""

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.optimize._highspy import _core as highs
from scipy.spatial import cKDTree

from .errors import ConfigError, ConvergenceError, SolverError, SolverFallbackWarning
from .geometry import cost_factors, cost_matrix, pair_costs
from .measures import DiscreteMeasure

MASS_TOL = 1e-8  # marginal tolerance of instances and plans; the entropic solve stops at it
SUPPORT_EPS = 1e-15
FULL_PAIRS = 40_000  # assignment instances of at most this many pairs have no coarse level
LP_FULL_PAIRS = 3_600  # LP instances of at most this many pairs price every pair
COARSEN = 4  # atoms per coarse centre in the multiscale warm start
NEIGHBOURS = 10  # smallest reduced costs per row first taken as candidate edges on the assignment path
LP_NEIGHBOURS = 4  # smallest reduced costs per row and per column first taken as LP candidates
# every block of pairs that either exact path builds or copies holds at most
# BLOCK * BLOCK entries, or one line (_row_step); the cyclic check cuts the
# support into chunks of about BLOCK entries
BLOCK = 256
SCALING_BOUND = 1e50  # Sinkhorn scalings above this are absorbed into the potentials
MAX_SWEEPS = 20_000  # Sinkhorn sweeps before the entropic solve gives up
PRICE_TOL = 1e-10  # certified once no pair has reduced cost below -PRICE_TOL
ROUND_CAP = 2  # most negatively priced pairs per row and per column added in one round
# HiGHS's default 1e-7 tolerances can leave a candidate pair priced at
# about -1e-8, which an optimality certificate at 1e-8 cannot absorb.
HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": PRICE_TOL,
    "dual_feasibility_tolerance": PRICE_TOL,
}
# The HiGHS model of a level, presolve off. Its interior point runs (solver
# "ipm") end in crossover; its simplex runs are serial dual simplex
# (strategy 1). From the same basis, primal simplex took 3 to 9 times as
# long on the first warm round of cap:0.98 at meshes 2000 and 4000, in
# about as many pivots.
MODEL_OPTIONS = {
    **HIGHS_OPTIONS, "output_flag": False, "presolve": "off", "run_crossover": "on",
    "simplex_strategy": 1,
}


@dataclass
class Coupling:
    """Sparse transport plan: positive masses on (source, target) pairs."""

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    total_cost: float

    @property
    def size(self) -> int:
        return len(self.mass)

    def row_marginal(self, n_rows: int) -> np.ndarray:
        return np.bincount(self.rows, weights=self.mass, minlength=n_rows)

    def col_marginal(self, n_cols: int) -> np.ndarray:
        return np.bincount(self.cols, weights=self.mass, minlength=n_cols)

    def validate(self, mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = MASS_TOL) -> float:
        """The largest marginal error; SolverError if it exceeds tol or a mass is not positive."""
        if not np.all(self.mass > 0):
            raise SolverError("coupling entries must be strictly positive")
        row_err = np.max(np.abs(self.row_marginal(mu.count) - mu.weights))
        col_err = np.max(np.abs(self.col_marginal(nu.count) - nu.weights))
        err = np.maximum(row_err, col_err)  # NaN if either is
        if not err <= tol:
            raise SolverError(f"marginal violation {err:.3e} exceeds {tol}")
        return float(err)


@dataclass
class DualPotentials:
    """Cost-form dual pair: psi per source atom, phi per target atom."""

    psi: np.ndarray
    phi: np.ndarray

    def feasibility_gap(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """max_ij (psi_i + phi_j - c_ij), NaN if any entry is; <= 0 for feasible
        duals. The reduced costs are the blocks that pricing reads
        (_line_minima)."""
        return float(-_line_minima(mu.points, nu.points, self.psi, self.phi)[0].min())

    def slackness_gap(self, coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """max |psi_i + phi_j - c_ij| over the coupling support."""
        c = pair_costs(mu.points, nu.points, coupling.rows, coupling.cols)
        s = self.psi[coupling.rows] + self.phi[coupling.cols] - c
        return float(np.max(np.abs(s))) if len(s) else 0.0

    def certificate(self, coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure):
        """The exact plan's certificate (gap, f, s, bound): the duality gap
        total_cost - (psi.a + phi.b) for the weights a of mu and b of nu,
        f = feasibility_gap, s = slackness_gap and bound = 2 max(f, 0) + 2 s.
        The bound is at least every swap gain c_ij + c_kl - c_il - c_kj of two
        support pairs (i, j) and (k, l), from c_ij <= psi_i + phi_j + s and
        c_il >= psi_i + phi_l - f; max(f, 0.0), not max(0.0, f), keeps a NaN f."""
        gap = coupling.total_cost - float(self.psi @ mu.weights + self.phi @ nu.weights)
        f = self.feasibility_gap(mu, nu)
        s = self.slackness_gap(coupling, mu, nu)
        return gap, f, s, 2.0 * max(f, 0.0) + 2.0 * s


def _check_instance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if mu.n != nu.n:
        raise SolverError("measures must live on the same sphere dimension")
    if abs(mu.mass - nu.mass) > MASS_TOL or abs(mu.mass - 1.0) > MASS_TOL:
        raise SolverError(
            f"marginal masses must both equal 1: got {mu.mass:.12f} and {nu.mass:.12f}"
        )


def _coupling(rows, cols, mass, xs, ys) -> Coupling:
    """The plan's entries of mass above SUPPORT_EPS, costed by pair_costs."""
    keep = mass > SUPPORT_EPS
    if not keep.all():  # no copies when nothing is dropped
        rows, cols, mass = rows[keep], cols[keep], mass[keep]
    return Coupling(rows, cols, mass, float(np.sum(mass * pair_costs(xs, ys, rows, cols))))


def _north_west_corner(a: np.ndarray, b: np.ndarray):
    """Support of the north-west-corner plan, so a candidate set holding it
    always admits a feasible restricted LP."""
    ca, cb = np.cumsum(a), np.cumsum(b)
    starts = np.concatenate([[0.0], ca[:-1], cb[:-1]])
    rows = np.minimum(np.searchsorted(ca, starts, side="right"), len(a) - 1)
    cols = np.minimum(np.searchsorted(cb, starts, side="right"), len(b) - 1)
    return rows, cols


def _coarsen(points: np.ndarray, weights: np.ndarray):
    """Every COARSEN-th atom as a centre, carrying the mass of the atoms
    nearest to it; centres left without mass are dropped.

    Returns (centres, mass, owner): owner[i] is the position among the kept
    centres of the centre atom i went to. The massless atoms of a dropped
    centre go to their nearest kept centre, so bincount(owner, weights) is
    mass.
    """
    centres = np.arange(0, len(points), COARSEN)
    _, owner = cKDTree(points[centres]).query(points)
    mass = np.bincount(owner, weights=weights, minlength=len(centres))
    keep = mass > 0
    lost = ~keep[owner]
    owner = (np.cumsum(keep) - 1)[owner]
    if lost.any():
        owner[lost] = cKDTree(points[centres[keep]]).query(points[lost])[1]
    return centres[keep], mass[keep], owner


def _row_step(width):
    """Rows per block of a matrix of width columns: at most BLOCK * BLOCK
    entries, or one row if a row holds more."""
    return max(1, BLOCK * BLOCK // width)


def _smallest_per_row(block, count, k, step):
    """The k smallest entries of every row of a count-row matrix whose rows
    lo:lo + step are block(lo), new arrays, as (rows, cols): k argmin passes
    set each pick to inf, so ties go to the lower column."""
    rows, cols = [], []
    for lo in range(0, count, step):
        values = block(lo)
        at = np.arange(len(values))
        for _ in range(min(k, values.shape[1])):
            cols.append(values.argmin(axis=1))
            values[at, cols[-1]] = np.inf
            rows.append(at + lo)
        del values  # the next block is built without this one
    return np.concatenate(rows), np.concatenate(cols)


def _reduced(left, right, lines):
    """The block of reduced costs on the lines of the factor left against every
    line of right (geometry.cost_factors), as one matrix product."""
    return left[lines] @ right.T


def _smallest_reduced(xs, ys, psi, phi, k, rows, cols):
    """The k pairs of smallest reduced cost c - psi - phi in each row of rows and each
    column of cols, in blocks of _row_step lines built by _reduced from the factors
    of one cost_factors call, as (rows, cols); a pair may appear twice."""
    left, right = cost_factors(xs, ys, psi, phi)
    step, col_step = _row_step(len(ys)), _row_step(len(xs))
    at, picks = _smallest_per_row(lambda lo: _reduced(left, right, rows[lo:lo + step]),
                                  len(rows), k, step)
    to, sources = _smallest_per_row(lambda lo: _reduced(right, left, cols[lo:lo + col_step]),
                                    len(cols), k, col_step)
    return np.append(rows[at], sources), np.append(picks, cols[to])


def _line_minima(xs, ys, psi, phi):
    """The minimum reduced cost c - psi - phi of every row and of every
    column, from one pass over blocks of _row_step rows built by _reduced
    from the factors of one cost_factors call."""
    left, right = cost_factors(xs, ys, psi, phi)
    row_min = np.empty(len(xs))
    col_min = np.full(len(ys), np.inf)
    step = _row_step(len(ys))
    for lo in range(0, len(xs), step):
        reduced = _reduced(left, right, slice(lo, lo + step))
        reduced.min(axis=1, out=row_min[lo:lo + step])
        np.minimum(col_min, reduced.min(axis=0), out=col_min)
        del reduced  # the next block is built without this one
    return row_min, col_min


def _c_transforms(block, count, cols, phi_coarse, step):
    """Duals (psi, phi) on all of a count-row cost matrix whose rows lo:lo + step
    are block(lo), from target duals phi_coarse on its columns cols:
    psi_i = min_k c[i, cols[k]] - phi_coarse[k], then phi_j = min_i c_ij - psi_i.
    Each block becomes c - psi in place: the LP path builds new blocks from
    the points, and the assignment path passes views of its cost matrix,
    which thus becomes c - psi without a copy of its rows."""
    psi = np.empty(count)
    phi = np.inf
    for lo in range(0, count, step):
        c = block(lo)
        psi[lo:lo + step] = (c[:, cols] - phi_coarse[None, :]).min(axis=1)
        c -= psi[lo:lo + step, None]
        phi = np.minimum(phi, c.min(axis=0))
        del c  # the next block is built without this one
    return psi, phi


def _initial_candidates(xs, ys, a, b):
    """The first candidate pairs of a level with a coarse level, as (rows,
    cols) sorted row-major.

    The instance coarsened on both sides is solved first, on the centres'
    points, and three sets of pairs are kept:
    - the children of the coarse plan's support: every pair (i, j) whose
      owners form a coarse pair of positive mass. These are the shielding
      neighbourhoods of Schmitzer ("A sparse multiscale algorithm for dense
      optimal transport", 2016); the coarse pairs of zero mass are left
      out, as their children would cover every pair;
    - the LP_NEIGHBOURS pairs of smallest reduced cost of every row and
      column, under the coarse target duals carried up by two c-transforms;
    - the north-west corner.
    """
    n, m = len(xs), len(ys)
    ci, ca, src_owner = _coarsen(xs, a)
    cj, cb, tgt_owner = _coarsen(ys, b)
    crows, ccols, cmass, _, phi_coarse = _column_generation(xs[ci], ys[cj], ca, cb)
    positive = cmass > 0
    support = sparse.csr_matrix(
        (np.ones(positive.sum()), (crows[positive], ccols[positive])), shape=(len(ci), len(cj))
    )
    child_rows, child_cols = support[src_owner][:, tgt_owner].nonzero()
    step = _row_step(m)
    left, right = cost_factors(xs, ys, 0.0, 0.0)  # so _reduced builds blocks of c
    psi, phi = _c_transforms(lambda lo: _reduced(left, right, slice(lo, lo + step)), n, cj,
                             phi_coarse, step)
    rows, cols = _smallest_reduced(xs, ys, psi, phi, LP_NEIGHBOURS, np.arange(n), np.arange(m))
    corner_rows, corner_cols = _north_west_corner(a, b)
    keys = np.r_[child_rows * m + child_cols, rows * m + cols, corner_rows * m + corner_cols]
    return np.divmod(np.unique(keys), m)


def _column_generation(xs, ys, a, b):
    """Optimal plan on the candidate pairs with duals feasible on every pair.

    The candidates are index arrays costed by pair_costs and pricing builds
    blocks from the points, so no array of every pair is made. Instances of
    at most LP_FULL_PAIRS pairs take every pair in one linprog call. Larger
    ones solve the first restricted LP on one HiGHS model; each later round
    adds the ROUND_CAP most negatively priced pairs of every row and of
    every column to that model, and _lp_run runs each round. Returns (rows,
    cols, mass, psi, phi) with the pairs in row-major order and the duals in
    the gauge max(phi) = 0. Raises SolverError rather than return a plan whose
    duals price any pair below -PRICE_TOL.
    """
    n, m = len(xs), len(ys)
    b_eq = np.concatenate([a, b])
    if n * m <= LP_FULL_PAIRS:
        rows, cols = np.divmod(np.arange(n * m), m)
        starts, indices, values = _columns(rows, cols + n)
        a_eq = sparse.csc_matrix((values, indices, starts), shape=(n + m, len(rows)))
        res = linprog(pair_costs(xs, ys, rows, cols), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs-ipm", options=HIGHS_OPTIONS)
        if res.status != 0:
            raise SolverError(f"LP backend failed: {res.message}")
        mass, duals = res.x, res.eqlin.marginals
    else:
        rows, cols = _initial_candidates(xs, ys, a, b)
        model = _lp_model(b_eq)
        mass, duals = _lp_run(model, pair_costs(xs, ys, rows, cols), rows, cols + n, warm=False)
    while True:
        psi, phi = duals[:n].copy(), duals[n:].copy()
        # with every pair a candidate, a pair priced below -PRICE_TOL raises here
        new_rows, new_cols = _priced_pairs(xs, ys, psi, phi, rows, cols)
        if not len(new_rows):
            order = np.argsort(rows * m + cols)
            top = phi.max()
            return rows[order], cols[order], mass[order], psi + top, phi - top
        rows, cols = np.append(rows, new_rows), np.append(cols, new_cols)
        costs = pair_costs(xs, ys, new_rows, new_cols)
        mass, duals = _lp_run(model, costs, new_rows, new_cols + n, warm=True)


def _priced_pairs(xs, ys, psi, phi, rows, cols):
    """Pairs to add in the next round, in row-major order: the ROUND_CAP
    most negatively priced pairs of every row and every column, among the
    pairs priced below -PRICE_TOL. These include each row's most negative
    pair, so an empty result certifies that no pair of xs against ys prices
    below -PRICE_TOL. One pass takes the minimum of every row and column; the
    pairs are then selected only on the lines whose minimum is below
    -PRICE_TOL, as no other line holds a pair that is kept. A candidate
    (rows, cols) priced so raises SolverError."""
    if np.any(pair_costs(xs, ys, rows, cols) - psi[rows] - phi[cols] < -PRICE_TOL):
        raise SolverError(
            "LP duals price a candidate pair below "
            f"-{PRICE_TOL:g}; the plan is not certified optimal"
        )
    row_min, col_min = _line_minima(xs, ys, psi, phi)
    neg_rows, neg_cols = np.flatnonzero(row_min < -PRICE_TOL), np.flatnonzero(col_min < -PRICE_TOL)
    if not len(neg_rows):  # then no column holds one either
        return neg_rows, neg_rows
    rows, cols = _smallest_reduced(xs, ys, psi, phi, ROUND_CAP, neg_rows, neg_cols)
    keep = pair_costs(xs, ys, rows, cols) - psi[rows] - phi[cols] < -PRICE_TOL
    return np.divmod(np.unique(rows[keep] * len(ys) + cols[keep]), len(ys))


def _lp_model(b_eq):
    """A HiGHS model, set with MODEL_OPTIONS, of the transport LP with the
    constraint rows b_eq and no column yet."""
    model = highs._Highs()
    for option, value in MODEL_OPTIONS.items():
        model.setOptionValue(option, value)
    model.addRows(len(b_eq), b_eq, b_eq, 0, [], [], [])
    return model


def _lp_run(model, costs, rows, cons, warm):
    """Append the pairs, whose constraint rows are rows and cons (the target
    rows, offset by the source count), to the model and climb one ladder of
    runs until a run ends solved: dual simplex from the current basis (a
    warm round only), interior point with crossover on a cleared model, then
    dual simplex from where that run stopped. Raises SolverError if the last
    rung does not end solved. Returns (mass of every column, row duals).

    A warm run can stop short, as Unknown with a dual infeasibility above
    the tolerance on a primal-feasible basis; dual simplex from the slack
    basis then took 19 272 pivots and 2.4 s at S^2 mesh 4000 seed 1, where
    interior point on the same LP took 0.6 s. Crossover can end Optimal on a
    basis whose duals break the dual feasibility tolerance (2.9e-10 on two
    columns at S^1 mesh 4000 seed 3), and interior point can end Unknown
    (S^1 mesh 1000 with a fifth of the targets at weight 0 or 1e-14); dual
    simplex from where that run stopped mends both.
    """
    k = len(costs)
    model.addCols(k, costs, np.zeros(k), np.full(k, np.inf), 2 * k, *_columns(rows, cons))
    for solver in ("simplex", "ipm", "simplex")[0 if warm else 1:]:
        if solver == "ipm":
            model.clearSolver()
        model.setOptionValue("solver", solver)
        model.run()
        if _solved(model):
            solution = model.getSolution()
            return np.array(solution.col_value), np.array(solution.row_dual)
    status = model.modelStatusToString(model.getModelStatus())
    raise SolverError(f"LP backend failed: {'warm round' if warm else 'first LP'} ended {status}")


def _solved(model) -> bool:
    """Whether the model's last run ended Optimal with a primal and a dual
    solution feasible within its tolerances."""
    info = model.getInfo()
    feasible = int(highs.kSolutionStatusFeasible)
    return (
        model.getModelStatus() == highs.HighsModelStatus.kOptimal
        and info.primal_solution_status == feasible
        and info.dual_solution_status == feasible
    )


def _columns(rows, cons):
    """Column-wise (starts, indices, values) of transport columns, each a 1
    in its source row and in its target row."""
    k = len(rows)
    indices = np.column_stack([rows, cons]).ravel().astype(np.int32)
    return np.arange(0, 2 * k + 1, 2, dtype=np.int32), indices, np.ones(2 * k)


def _solve_lp(mu: DiscreteMeasure, nu: DiscreteMeasure):
    rows, cols, mass, psi, phi = _column_generation(mu.points, nu.points, mu.weights, nu.weights)
    return _coupling(rows, cols, mass, mu.points, nu.points), DualPotentials(psi, phi)


def _subsample(points: np.ndarray) -> np.ndarray:
    """Every COARSEN-th atom in k-d tree leaf order, so the atoms kept
    spread over the sphere whatever order the points come in."""
    return cKDTree(points, leafsize=COARSEN).indices[::COARSEN]


def _assignment(costs, xs, ys):
    """Optimal assignment of the square cost matrix costs() and its duals.

    Returns (assign, duals): row i goes to column assign[i], and duals is
    (psi, phi), or None if the dual sweeps do not settle. Instances above
    FULL_PAIRS subsample both sides, solve that equal-weight instance the
    same way on a block of c and carry its target duals up by two
    c-transforms (zeros if they did not settle), run in place on c's own
    rows: each block of rows has its psi subtracted, phi is the running
    column minimum, and then c -= phi leaves the reduced costs
    c - psi - phi in c. linear_sum_assignment runs on them, with the same
    optimum in far fewer augmenting-path steps; smaller instances run it on
    c itself. The NEIGHBOURS smallest entries of every row of the matrix it
    ran on are the first candidate edges of the dual sweeps. Reduced costs
    are then replaced by a second costs() call, so no two arrays as large as
    c are held at once, and every pass over c copies blocks of _row_step
    rows.
    """
    c = costs()
    n = len(c)
    step = _row_step(n)
    reduced = n * n > FULL_PAIRS
    if reduced:
        ci, cj = _subsample(xs), _subsample(ys)
        coarse = _assignment(lambda: c[np.ix_(ci, cj)], xs[ci], ys[cj])[1]
        phi_coarse = coarse[1] if coarse is not None else np.zeros(len(cj))
        phi = _c_transforms(lambda lo: c[lo:lo + step], n, cj, phi_coarse, step)[1]
        c -= phi[None, :]
    _, assign = linear_sum_assignment(c)
    rows, cols = _smallest_per_row(lambda lo: c[lo:lo + step].copy(), n, NEIGHBOURS, step)
    if reduced:
        del c
        c = costs()
    return assign, _assignment_duals(c, assign, rows, cols)


def _assignment_duals(c, assign, rows, cols):
    """Duals (psi, phi) supporting the assignment i -> assign[i], or None.

    Jacobi Bellman-Ford from phi = 0 on the column graph, in which pair
    (i, j) is an edge assign[i] -> j of weight c[i, j] - c[i, assign[i]].
    The sweeps run over the candidate pairs (rows, cols) and the assignment
    until they settle. Then the pairs of c are priced by the sweep's own
    float test; the pairs that fail join the candidates and the sweeps go on
    from the current phi. The first pricing pass takes every row; each later
    one takes only the rows whose tail dual phi[assign[i]] fell since they
    were last priced. phi only falls, so a row left out prices every pair
    to the same float as before, which was not below the old phi_j and so
    is not below the new one: the pairs that fail are those of a pass over
    every row. A sweep only ever lowers phi, and never below the greatest
    fixed point at or below 0 of the sweep over all pairs, so the duals
    returned are that fixed point: bit for bit those of sweeps over the
    dense matrix. A pass that does not settle within n + 1 sweeps means a
    negative cycle, which an optimal assignment does not have, and gives
    None.
    """
    n = len(c)
    own = c[np.arange(n), assign]
    phi = np.zeros(n)
    priced = np.full(n, np.nan)  # each row's tail dual when it was last priced
    keys = np.unique(np.append(cols, assign) * n + np.append(rows, np.arange(n)))
    while True:
        cols, rows = np.divmod(keys, n)  # by head column; every column heads its own loop
        tails, weights = assign[rows], c[rows, cols] - own[rows]
        heads = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])
        for _ in range(n + 1):
            new = np.minimum(phi, np.minimum.reduceat(phi[tails] + weights, heads))
            if np.array_equal(new, phi):
                break
            phi = new
        else:
            return None
        tail = phi[assign]
        # never empty: a pair that failed lowered phi_j, the tail dual of the row assigned to j
        stale = np.flatnonzero(tail != priced)
        priced = tail
        failed_rows, failed_cols = _failing_pairs(c, own, tail, phi, stale)
        if not len(failed_rows):
            return own - tail, phi
        # a candidate passes the float test the settled sweep applied to it,
        # so no failed key is already a key and the merge keeps them sorted
        new = np.sort(failed_cols * n + failed_rows)
        keys = np.insert(keys, np.searchsorted(keys, new), new)


def _failing_pairs(c, own, tail, phi, stale):
    """The pairs (i, j) of the rows stale with (c_ij - own_i) + tail_i < phi_j,
    as (rows, cols). The rows are priced in blocks of _row_step rows, each a
    copy of its rows of c changed in place and dropped before the next is
    copied."""
    rows, cols = [], []
    step = _row_step(len(phi))
    for lo in range(0, len(stale), step):
        blk = stale[lo:lo + step]
        via = c[blk]
        via -= own[blk, None]
        via += tail[blk, None]
        at, j = np.divmod(np.flatnonzero(via < phi), len(phi))
        rows.append(blk[at])
        cols.append(j)
        del via  # the next block is copied without this one
    return np.concatenate(rows), np.concatenate(cols)


def solve_exact(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Optimal coupling and dual potentials for the discrete quadratic cost.

    Uses the multiscale assignment path when atom counts and weights match
    (duals recovered by shortest-path potentials), otherwise certified
    column generation on the LP. If the assignment duals do not settle,
    it warns with SolverFallbackWarning and solves the LP.
    """
    _check_instance(mu, nu)
    equal_weights = (
        mu.count == nu.count
        and np.allclose(mu.weights, mu.weights[0], rtol=0, atol=1e-12)
        and np.allclose(nu.weights, mu.weights[0], rtol=0, atol=1e-12)
    )
    if not equal_weights:
        return _solve_lp(mu, nu)
    assign, duals = _assignment(lambda: cost_matrix(mu.points, nu.points), mu.points, nu.points)
    if duals is not None:
        mass = np.full(mu.count, mu.weights[0])
        coupling = _coupling(np.arange(mu.count), assign, mass, mu.points, nu.points)
        return coupling, DualPotentials(*duals)
    warnings.warn(
        f"assignment duals did not settle within {mu.count + 1} sweeps of a pass; "
        "solving the transport LP instead",
        SolverFallbackWarning,
        stacklevel=2,
    )
    return _solve_lp(mu, nu)


def _round_to_marginals(plan: np.ndarray, mu_w: np.ndarray, nu_w: np.ndarray) -> np.ndarray:
    """Rescale rows and columns, then add a rank-one correction, so the
    plan satisfies both marginals exactly: Algorithm 2 of Altschuler, Weed
    and Rigollet ("Near-linear time approximation algorithms for optimal
    transport via Sinkhorn iteration", 2017). Works in place on plan."""
    r = plan.sum(axis=1)
    plan *= np.minimum(1.0, np.divide(mu_w, r, out=np.ones_like(r), where=r > 0))[:, None]
    s = plan.sum(axis=0)
    plan *= np.minimum(1.0, np.divide(nu_w, s, out=np.ones_like(s), where=s > 0))[None, :]
    err_r = mu_w - plan.sum(axis=1)
    err_c = nu_w - plan.sum(axis=0)
    total = err_r.sum()
    if total > 0:
        correction = np.outer(err_r, err_c)
        correction /= total
        plan += correction
    return plan


def _kernel(f: np.ndarray, g: np.ndarray, c: np.ndarray, reg: float) -> np.ndarray:
    """The stabilised kernel exp((f_i + g_j - c_ij) / reg)."""
    k = f[:, None] + g[None, :]
    k -= c
    k /= reg
    return np.exp(k, out=k)


def _scaling(kernel: np.ndarray, other: np.ndarray, weights: np.ndarray):
    """weights / (kernel @ other), 0 where the weight is 0, and whether no
    entry exceeds SCALING_BOUND (False on inf or NaN)."""
    with np.errstate(divide="ignore", over="ignore"):
        scaling = np.divide(weights, kernel @ other, out=np.zeros_like(weights), where=weights > 0)
    return scaling, bool(scaling.max() <= SCALING_BOUND)


def solve_entropic(mu: DiscreteMeasure, nu: DiscreteMeasure, reg: float):
    """Entropic-regularized transport by stabilised matrix scaling.

    The absorption scheme of Schmitzer ("Stabilized sparse scaling
    algorithms for entropy regularized transport problems", 2019): the
    duals are f + reg log u and g + reg log v, with the kernel
    K = exp((f + g - c) / reg) built once for the absorbed potentials f, g,
    and each half-step is one matrix-vector product, u = a / (K v), then
    v = b / (K^T u). When a half-step gives a scaling above SCALING_BOUND,
    or one that is not finite, the other side's scaling is absorbed into
    its potential and the updated side's potential is reset to its
    c-transform (f_i = min_j c_ij - g_j, or the same for g); K is rebuilt
    and the half-step is taken again. After such a reset no entry of K
    exceeds 1 and every line on that side holds an entry 1, which also
    recovers a line that underflowed to zero. With K <= 1, a scaling can
    only be small when the other one is large or its weight is small, so
    no lower bound is needed and zero weights cost no rebuilds. The start
    f = min_j c_ij, g = 0 is such a reset, so the iterates are those of
    log-domain Sinkhorn from g = 0.

    The returned plan is rounded to satisfy both marginals exactly, so its
    linear cost is always >= the exact optimum; it converges to it as
    reg -> 0. Raises ConvergenceError if the row marginal violation is not
    within MASS_TOL after MAX_SWEEPS sweeps, NaN included.
    """
    _check_instance(mu, nu)
    if not (0 < reg < np.inf):
        raise ConfigError("regularization must be positive and finite")
    c = cost_matrix(mu.points, nu.points)
    a, b = mu.weights, nu.weights
    f = c.min(axis=1)
    g = np.zeros(nu.count)
    kernel = _kernel(f, g, c, reg)
    u, v = np.ones(mu.count), np.ones(nu.count)

    def row_violation():
        return np.max(np.abs(u * (kernel @ v) - a))

    violation = np.inf
    for it in range(MAX_SWEEPS):
        u, ok = _scaling(kernel, v, a)
        if not ok:
            g += reg * np.log(v)
            f = (c - g[None, :]).min(axis=1)
            kernel = _kernel(f, g, c, reg)
            u, v = a / kernel.sum(axis=1), np.ones(nu.count)
        v, ok = _scaling(kernel.T, u, b)
        if not ok:
            f += reg * np.log(u)
            g = (c - f[:, None]).min(axis=0)
            kernel = _kernel(f, g, c, reg)
            u, v = np.ones(mu.count), b / kernel.sum(axis=0)
        if it % 10 == 9 or it == MAX_SWEEPS - 1:
            violation = row_violation()
            if violation <= MASS_TOL:
                break
    else:
        violation = row_violation()
    if not violation <= MASS_TOL:
        raise ConvergenceError(
            f"marginal violation {violation:.3e} > {MASS_TOL} after {MAX_SWEEPS} iterations"
        )
    kernel *= u[:, None]
    kernel *= v[None, :]
    plan = _round_to_marginals(kernel, a, b)
    rows, cols = np.nonzero(plan > SUPPORT_EPS)  # so no index arrays for the whole plan
    coupling = _coupling(rows, cols, plan[rows, cols], mu.points, nu.points)
    return coupling, DualPotentials(f + reg * np.log(u), g + reg * np.log(v))


def cyclical_monotonicity_violation(
    coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> float:
    """Largest positive gain from swapping the targets of two support pairs.

    Zero (up to solver tolerance) exactly when the support admits no
    improving two-cycle, the optimality fingerprint of the plan.
    Equals twice the negative part of the worst support monotonicity dot,
    computed in the separable form of support_monotonicity_min: O(n s)
    work and O(s + BLOCK^2) memory for n sources and s support entries.
    """
    return max(0.0, -2.0 * support_monotonicity_min(coupling, mu, nu))


def support_monotonicity_min(coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """min over support pairs of (x_i - x_k) . (y_j - y_l); >= 0 at optimality.

    Separable form: the term for pairs (i, j) and (k, l) is
    D[i, k] + D[k, i] with D[i, k] = min over j in supp(i) of
    x_i . y_j - x_k . y_j, so the minimum over all pairs is the minimum of
    D + D^T. The sources, sorted by row, are cut into chunks of about
    BLOCK support entries (a source is never split). For each pair of
    chunks A <= B, D[A, B] and the transpose of D[B, A] are built in the
    same sources-of-A by sources-of-B layout, each by one matmul and one
    minimum.reduceat over the entries of each source, so no transpose is
    taken. That is O(n s) work for n sources and s entries in place of
    O(s^2), in tiles of about BLOCK x BLOCK while no source holds more
    than BLOCK entries: no n x n, s x n or s x s array. Returns inf for an
    empty coupling.
    """
    s = coupling.size
    if s == 0:
        return np.inf
    order = np.argsort(coupling.rows, kind="stable")
    rows = coupling.rows[order]
    ys = nu.points[coupling.cols[order]]
    own = np.einsum("ij,ij->i", mu.points[rows], ys)
    first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])  # each source's first entry
    xs = mu.points[rows[first]]
    bounds = np.append(first, s)
    edges = np.unique(np.append(np.searchsorted(first, np.arange(0, s, BLOCK)), len(first)))
    chunks = [
        (own[bounds[a]:bounds[b]], ys[bounds[a]:bounds[b]], first[a:b] - bounds[a], xs[a:b])
        for a, b in zip(edges[:-1], edges[1:])
    ]
    best = np.inf
    for ia, (own_a, ys_a, starts_a, xs_a) in enumerate(chunks):
        for own_b, ys_b, starts_b, xs_b in chunks[ia:]:
            tile = _min_per_source(own_a, ys_a @ xs_b.T, starts_a, axis=0)  # D[A, B]
            tile += _min_per_source(own_b, xs_a @ ys_b.T, starts_b, axis=1)  # D[B, A]^T
            best = min(best, float(tile.min()))
    return best


def _min_per_source(own: np.ndarray, cross: np.ndarray, starts: np.ndarray, axis: int):
    """Minimum of own - cross over each source's run of entries along axis.

    The difference is taken in place in cross. When every source holds one
    entry, cross itself is the result: reduceat is slow on runs of one.
    """
    np.subtract(np.expand_dims(own, 1 - axis), cross, out=cross)
    if len(starts) == cross.shape[axis]:
        return cross
    return np.minimum.reduceat(cross, starts, axis=axis)


def save_coupling_csv(coupling: Coupling, path) -> None:
    """One `i,j,mass` line per support entry, masses by repr; the bytes are
    those of csv.writer's default dialect."""
    entries = zip(coupling.rows.tolist(), coupling.cols.tolist(), coupling.mass.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("i,j,mass\r\n")
        fh.writelines(f"{i},{j},{m!r}\r\n" for i, j, m in entries)


def load_coupling_csv(path, mu: DiscreteMeasure, nu: DiscreteMeasure) -> Coupling:
    rows, cols, mass = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
            for i, j, m in reader:
                rows.append(int(i))
                cols.append(int(j))
                mass.append(float(m))
                if not 0 < mass[-1] < np.inf:
                    raise ValueError(f"mass {m} is not positive and finite")
        except (StopIteration, ValueError) as exc:
            raise SolverError(f"{path}: line {reader.line_num}: {exc!r}") from None
    rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
    for side, idx, count in (("source", rows, mu.count), ("target", cols, nu.count)):
        if idx.size and (idx.min() < 0 or idx.max() >= count):
            raise SolverError(f"{path}: {side} index outside [0, {count})")
    mass = np.array(mass)
    cost = float(np.sum(mass * pair_costs(mu.points, nu.points, rows, cols)))
    return Coupling(rows, cols, mass, cost)


def save_duals_json(duals: DualPotentials, total_cost: float, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(
            {
                "phi": duals.phi.tolist(),
                "psi": duals.psi.tolist(),
                "total_cost": float(total_cost),
            },
            sort_keys=True,
        ))


def load_duals_json(path, mu: DiscreteMeasure, nu: DiscreteMeasure) -> DualPotentials:
    """The duals save_duals_json wrote: OSError naming path when the file is
    not JSON or lacks psi or phi, SolverError naming it when one is not a
    finite number per atom."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
            psi, phi = (np.array(raw[name], dtype=float) for name in ("psi", "phi"))
        except (ValueError, KeyError, TypeError) as exc:
            raise OSError(f"{path}: malformed run file: {exc!r}") from None
    for name, values, count in (("psi", psi, mu.count), ("phi", phi, nu.count)):
        if values.shape != (count,) or not np.all(np.isfinite(values)):
            raise SolverError(f"{path}: {name} is not {count} finite numbers")
    return DualPotentials(psi, phi)
