"""Discrete quadratic-cost transport between sphere measures.

The exact backend is certified column generation on the transport LP:
HiGHS (interior point with crossover) solves the LP restricted to a
candidate set of pairs, every pair of the full cost matrix is then
priced with the LP duals, and pairs with negative reduced cost join the
candidates until none is left, at which point the duals are feasible on
the whole matrix and the plan is optimal by certificate. This is the
shortlist idea of Gottschlich and Schuhmacher ("The shortlist method for
fast computation of the earth mover's distance and finding optimal
solutions to transportation problems", 2014). Large instances start
from the duals of a coarsened instance solved the same way, following
Schmitzer ("A sparse multiscale algorithm for dense optimal transport",
2016). Only the first LP of a level is solved cold; each later round
adds at most ROUND_CAP priced pairs per row and per column to one HiGHS
model and restarts dual simplex from the previous basis. That model is
scipy's bundled HiGHS object, scipy.optimize._highspy._core._Highs, a
private binding: pyproject.toml pins scipy to the series it was tested
with, and there is no fallback. The LP duals are shifted so that
max(phi) = 0, the gauge of the assignment path.

When both sides have the same number of equally weighted atoms an
assignment path is used instead, built on the same two ideas. Every
COARSEN-th atom of each side in k-d tree order forms a coarse instance
that is solved first; its target duals, carried up by two c-transforms,
make linear_sum_assignment run on reduced costs, with the same optimum
in far fewer augmenting-path steps. The duals come from Jacobi
Bellman-Ford sweeps from zero on the column reassignment graph, run over
a short candidate list and widened by pricing every pair. Each sweep is
monotone and starts above every fixed point, so any such run stops at
the greatest fixed point at or below zero of the sweep over all pairs:
the duals are bit for bit those of sweeps over the dense matrix. If the
sweeps do not settle, solve_exact warns with SolverFallbackWarning and
solves the LP.

The entropic backend is the stabilised scaling of Schmitzer ("Stabilized
sparse scaling algorithms for entropy regularized transport problems",
2019): the kernel is built once for absorbed potentials, each half-step
is one matrix-vector product, and scalings above SCALING_BOUND are
absorbed into the potentials before the kernel is rebuilt. Its plan is
rounded onto the marginals as in Altschuler, Weed and Rigollet (2017,
Algorithm 2).

Dual potentials are returned in the cost form psi_i + phi_j <= c(x_i, y_j);
the correlation-form convex potential used for subdifferential queries
is derived from them via c(x, y) = 2 - 2 x.y, giving
psi_corr(x) = max_j (x.y_j + phi_j / 2) = 1 - psi_i / 2 at source atoms.
"""

import csv
import itertools
import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.optimize._highspy import _core as highs
from scipy.spatial import cKDTree

from .errors import ConfigError, ConvergenceError, SolverError, SolverFallbackWarning
from .geometry import cost_matrix, pair_costs
from .measures import DiscreteMeasure

MASS_TOL = 1e-8
SUPPORT_EPS = 1e-15
FULL_PAIRS = 40_000  # assignment instances of at most this many pairs price every pair
LP_FULL_PAIRS = 3_600  # LP instances of at most this many pairs price every pair
COARSEN = 4  # atoms per coarse centre in the multiscale warm start
NEIGHBOURS = 10  # smallest reduced costs per row and per column in the first candidate set
BLOCK = 256  # rows or columns per block when selecting or pricing pairs
SCALING_BOUND = 1e50  # Sinkhorn scalings above this are absorbed into the potentials
PRICE_TOL = 1e-10  # certified once no pair has reduced cost below -PRICE_TOL
ROUND_CAP = 2  # most negatively priced pairs per row and per column added in one round
# HiGHS's default 1e-7 tolerances can leave a candidate pair priced at
# about -1e-8, which an optimality certificate at 1e-8 cannot absorb.
HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": PRICE_TOL,
    "dual_feasibility_tolerance": PRICE_TOL,
}
# The warm rounds: serial dual simplex (strategy 1) from the previous basis.
# From the same basis, primal simplex took 3 to 9 times as long on the first
# warm round of cap:0.98 at meshes 2000 and 4000, in about as many pivots.
WARM_OPTIONS = {"output_flag": False, "solver": "simplex", "simplex_strategy": 1, "presolve": "off"}


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

    def validate(self, mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = MASS_TOL) -> None:
        if not np.all(self.mass > 0):
            raise SolverError("coupling entries must be strictly positive")
        row_err = np.max(np.abs(self.row_marginal(mu.count) - mu.weights))
        col_err = np.max(np.abs(self.col_marginal(nu.count) - nu.weights))
        err = np.maximum(row_err, col_err)  # NaN if either is
        if not err <= tol:
            raise SolverError(f"marginal violation {err:.3e} exceeds {tol}")


@dataclass
class DualPotentials:
    """Cost-form dual pair: psi per source atom, phi per target atom."""

    psi: np.ndarray
    phi: np.ndarray

    def feasibility_gap(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """max_ij (psi_i + phi_j - c_ij); <= 0 for feasible duals."""
        c = cost_matrix(mu.points, nu.points)
        return float((self.psi[:, None] + self.phi[None, :] - c).max())

    def slackness_gap(self, coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """max |psi_i + phi_j - c_ij| over the coupling support."""
        c = pair_costs(mu.points, nu.points, coupling.rows, coupling.cols)
        s = self.psi[coupling.rows] + self.phi[coupling.cols] - c
        return float(np.max(np.abs(s))) if len(s) else 0.0


def _check_instance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if mu.n != nu.n:
        raise SolverError("measures must live on the same sphere dimension")
    if abs(mu.mass - nu.mass) > MASS_TOL or abs(mu.mass - 1.0) > MASS_TOL:
        raise SolverError(
            f"marginal masses must both equal 1: got {mu.mass:.12f} and {nu.mass:.12f}"
        )


def _coupling_from_dense(plan: np.ndarray, c: np.ndarray) -> Coupling:
    rows, cols = np.nonzero(plan > SUPPORT_EPS)
    mass = plan[rows, cols]
    cost = float(np.sum(mass * c[rows, cols]))
    return Coupling(rows, cols, mass, cost)


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
    nearest to it; centres left without mass are dropped."""
    centres = np.arange(0, len(points), COARSEN)
    _, owner = cKDTree(points[centres]).query(points)
    mass = np.bincount(owner, weights=weights, minlength=len(centres))
    keep = mass > 0
    return centres[keep], mass[keep]


def _smallest_reduced(c, psi, phi, k):
    """The k pairs of smallest reduced cost c - psi - phi in every row and
    in every column, as (rows, cols); a pair may appear twice.

    The work runs in blocks of BLOCK rows or columns, so no temporary as
    large as c is made; every row and column is reduced on its own, so the
    pairs are those of the whole-matrix calls.
    """
    n, m = c.shape
    rows, cols = [], []
    kr = min(k, m)
    for lo in range(0, n, BLOCK):
        reduced = c[lo:lo + BLOCK] - psi[lo:lo + BLOCK, None] - phi[None, :]
        best = np.argpartition(reduced, kr - 1, axis=1)[:, :kr]
        rows.append(np.repeat(np.arange(lo, lo + len(best)), kr))
        cols.append(best.ravel())
    kc = min(k, n)
    for lo in range(0, m, BLOCK):
        reduced = c[:, lo:lo + BLOCK].T.copy()  # one contiguous row per column
        reduced -= psi[None, :]
        reduced -= phi[lo:lo + BLOCK, None]
        best = np.argpartition(reduced, kc - 1, axis=1)[:, :kc]
        rows.append(best.ravel())
        cols.append(np.repeat(np.arange(lo, lo + len(best)), kc))
    return np.concatenate(rows), np.concatenate(cols)


def _carry_up(c, cols, phi_coarse):
    """Duals on all of c from target duals phi_coarse on the columns cols.

    Two c-transforms give psi and phi, in blocks of BLOCK rows so no
    temporary as large as c is made. Returns (psi, phi, rows, picks): the
    pairs (rows, picks) are the NEIGHBOURS of smallest reduced cost
    c - psi - phi in every row and in every column.
    """
    n, m = c.shape
    psi = np.empty(n)
    phi = np.full(m, np.inf)
    for lo in range(0, n, BLOCK):
        blk = slice(lo, lo + BLOCK)
        psi[blk] = (c[blk][:, cols] - phi_coarse[None, :]).min(axis=1)
        np.minimum(phi, (c[blk] - psi[blk, None]).min(axis=0), out=phi)
    return (psi, phi, *_smallest_reduced(c, psi, phi, NEIGHBOURS))


def _initial_candidates(c, a, b, xs, ys):
    """The first candidate pairs as (rows, cols), sorted row-major.

    Small instances take every pair. Larger ones solve the instance
    coarsened on both sides, carry its target duals up by two c-transforms
    and keep the pairs of smallest reduced cost and the north-west corner.
    """
    n, m = c.shape
    if n * m <= LP_FULL_PAIRS:
        return np.divmod(np.arange(n * m), m)
    ci, ca = _coarsen(xs, a)
    cj, cb = _coarsen(ys, b)
    *_, phi_coarse = _column_generation(c[np.ix_(ci, cj)], ca, cb, xs[ci], ys[cj])
    _, _, rows, cols = _carry_up(c, cj, phi_coarse)
    corner_rows, corner_cols = _north_west_corner(a, b)
    return np.divmod(np.unique(np.r_[rows * m + cols, corner_rows * m + corner_cols]), m)


def _column_generation(c, a, b, xs, ys):
    """Optimal plan on the candidate pairs with duals feasible on all of c.

    The candidates are index arrays and pricing runs in blocks, so no
    array as large as c is made. The first restricted LP is solved cold by
    HiGHS interior point with crossover. Each later round adds the
    ROUND_CAP most negatively priced pairs of every row and of every column
    to one HiGHS model and restarts dual simplex from the previous basis.
    Returns (rows, cols, mass, psi, phi) with the pairs in row-major order
    and the duals in the gauge max(phi) = 0. Raises SolverError rather
    than return a plan whose duals price any pair below -PRICE_TOL.
    """
    n, m = c.shape
    rows, cols = _initial_candidates(c, a, b, xs, ys)
    b_eq = np.concatenate([a, b])
    starts, indices, values = _columns(rows, cols + n)
    a_eq = sparse.csc_matrix((values, indices, starts), shape=(n + m, len(rows)))
    res = linprog(c[rows, cols], A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs-ipm", options=HIGHS_OPTIONS)
    if res.status != 0:
        raise SolverError(f"LP backend failed: {res.message}")
    mass, duals = res.x, res.eqlin.marginals
    model = None
    while True:
        psi, phi = duals[:n].copy(), duals[n:].copy()
        new_rows, new_cols = _priced_pairs(c, psi, phi, rows, cols)
        if not len(new_rows):
            order = np.argsort(rows * m + cols)
            top = phi.max()
            return rows[order], cols[order], mass[order], psi + top, phi - top
        if model is None:
            model = _warm_model(c[rows, cols], rows, cols + n, b_eq, mass > 0)
        rows, cols = np.append(rows, new_rows), np.append(cols, new_cols)
        mass, duals = _warm_round(model, c[new_rows, new_cols], new_rows, new_cols + n)


def _priced_pairs(c, psi, phi, rows, cols):
    """Pairs to add in the next round, in row-major order: the ROUND_CAP
    most negatively priced pairs of every row and every column, among the
    pairs priced below -PRICE_TOL. These include each row's most negative
    pair, so an empty result certifies that no pair of c prices below
    -PRICE_TOL. A candidate (rows, cols) priced so raises SolverError."""
    if np.any(c[rows, cols] - psi[rows] - phi[cols] < -PRICE_TOL):
        raise SolverError(
            "LP duals price a candidate pair below "
            f"-{PRICE_TOL:g}; the plan is not certified optimal"
        )
    rows, cols = _smallest_reduced(c, psi, phi, ROUND_CAP)
    keep = c[rows, cols] - psi[rows] - phi[cols] < -PRICE_TOL
    return np.divmod(np.unique(rows[keep] * c.shape[1] + cols[keep]), c.shape[1])


def _warm_model(costs, rows, cons, b_eq, basic):
    """One HiGHS model of the restricted transport LP on the pairs whose
    constraint rows are rows and cons (the target rows, offset by the
    source count), set for dual simplex from the alien basis in which the
    pairs flagged basic are basic; HiGHS completes it with slacks."""
    model = highs._Highs()
    for option, value in {**HIGHS_OPTIONS, **WARM_OPTIONS}.items():
        model.setOptionValue(option, value)
    k = len(costs)
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = k, len(b_eq)
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = costs, np.zeros(k), np.full(k, np.inf)
    lp.row_lower_, lp.row_upper_ = b_eq, b_eq
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = k, len(b_eq)
    matrix.start_, matrix.index_, matrix.value_ = _columns(rows, cons)
    model.passModel(lp)
    basis = highs.HighsBasis()
    basis.valid = basis.alien = True
    status = highs.HighsBasisStatus
    basis.col_status = [status.kBasic if flag else status.kLower for flag in basic]
    basis.row_status = [status.kLower] * len(b_eq)
    model.setBasis(basis)
    return model


def _warm_round(model, costs, rows, cons):
    """Append the pairs to the model and re-solve from its basis.
    Returns (mass of every column, row duals)."""
    k = len(costs)
    model.addCols(k, costs, np.zeros(k), np.full(k, np.inf), 2 * k, *_columns(rows, cons))
    model.run()
    status = model.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverError(
            f"LP backend failed: warm round ended {model.modelStatusToString(status)}"
        )
    solution = model.getSolution()
    return np.array(solution.col_value), np.array(solution.row_dual)


def _columns(rows, cons):
    """Column-wise (starts, indices, values) of transport columns, each a 1
    in its source row and in its target row."""
    k = len(rows)
    indices = np.column_stack([rows, cons]).ravel().astype(np.int32)
    return np.arange(0, 2 * k + 1, 2, dtype=np.int32), indices, np.ones(2 * k)


def _solve_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, c: np.ndarray):
    rows, cols, mass, psi, phi = _column_generation(
        c, mu.weights, nu.weights, mu.points, nu.points
    )
    keep = mass > SUPPORT_EPS
    rows, cols, mass = rows[keep], cols[keep], mass[keep]
    cost = float(np.sum(mass * c[rows, cols]))
    return Coupling(rows, cols, mass, cost), DualPotentials(psi, phi)


def _subsample(points: np.ndarray) -> np.ndarray:
    """Every COARSEN-th atom in k-d tree leaf order, so the atoms kept
    spread over the sphere whatever order the points come in."""
    return cKDTree(points, leafsize=COARSEN).indices[::COARSEN]


def _assignment(c, xs, ys):
    """Optimal assignment of the square cost c and its duals.

    Returns (assign, duals): row i goes to column assign[i], and duals is
    (psi, phi), or None if the dual sweeps do not settle. Instances above
    FULL_PAIRS subsample both sides, solve that equal-weight instance the
    same way and carry its target duals up (zeros if they did not settle);
    linear_sum_assignment then runs on the reduced costs c - psi - phi,
    which have the same optimum but need far fewer augmenting-path steps.
    The pairs of smallest reduced cost are the first candidate edges of the
    dual sweeps; small instances take every pair.
    """
    n = len(c)
    if n * n <= FULL_PAIRS:
        _, assign = linear_sum_assignment(c)
        rows, cols = np.divmod(np.arange(n * n), n)
        return assign, _assignment_duals(c, assign, rows, cols)
    ci, cj = _subsample(xs), _subsample(ys)
    _, coarse = _assignment(c[np.ix_(ci, cj)], xs[ci], ys[cj])
    phi_coarse = coarse[1] if coarse is not None else np.zeros(len(cj))
    psi, phi, rows, cols = _carry_up(c, cj, phi_coarse)
    reduced = c - psi[:, None]
    reduced -= phi[None, :]
    _, assign = linear_sum_assignment(reduced)
    del reduced
    return assign, _assignment_duals(c, assign, rows, cols)


def _assignment_duals(c, assign, rows, cols):
    """Duals (psi, phi) supporting the assignment i -> assign[i], or None.

    Jacobi Bellman-Ford from phi = 0 on the column graph, in which pair
    (i, j) is an edge assign[i] -> j of weight c[i, j] - c[i, assign[i]].
    The sweeps run over the candidate pairs (rows, cols) and the assignment
    until they settle. Then every pair of c is priced in row blocks by the
    sweep's own float test; the pairs that fail join the candidates and the
    sweeps go on from the current phi. A sweep only ever lowers phi, and
    never below the greatest fixed point at or below 0 of the sweep over
    all pairs, so the duals returned are that fixed point: bit for bit
    those of sweeps over the dense matrix. A pass that does not settle
    within n + 1 sweeps means a negative cycle, which an optimal
    assignment does not have, and gives None.
    """
    n = len(c)
    own = c[np.arange(n), assign]
    phi = np.zeros(n)
    rows, cols = np.append(rows, np.arange(n)), np.append(cols, assign)
    while True:
        keys = np.unique(cols * n + rows)  # by head column; every column heads its own loop
        cols, rows = np.divmod(keys, n)
        tails, weights = assign[rows], c[rows, cols] - own[rows]
        heads = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])
        for _ in range(n + 1):
            new = np.minimum(phi, np.minimum.reduceat(phi[tails] + weights, heads))
            if np.array_equal(new, phi):
                break
            phi = new
        else:
            return None
        failed = []  # row-major indices of the pairs that price below phi
        for lo in range(0, n, BLOCK):
            via = c[lo:lo + BLOCK] - own[lo:lo + BLOCK, None]
            via += phi[assign[lo:lo + BLOCK], None]
            failed.append(np.flatnonzero(via < phi[None, :]) + lo * n)
        failed = np.concatenate(failed)
        if not len(failed):
            return own - phi[assign], phi
        rows, cols = np.append(rows, failed // n), np.append(cols, failed % n)


def solve_exact(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Optimal coupling and dual potentials for the discrete quadratic cost.

    Uses the multiscale assignment path when atom counts and weights match
    (duals recovered by shortest-path potentials), otherwise certified
    column generation on the LP. If the assignment duals do not settle,
    it warns with SolverFallbackWarning and solves the LP.
    """
    _check_instance(mu, nu)
    c = cost_matrix(mu.points, nu.points)
    equal_weights = (
        mu.count == nu.count
        and np.allclose(mu.weights, mu.weights[0], rtol=0, atol=1e-12)
        and np.allclose(nu.weights, mu.weights[0], rtol=0, atol=1e-12)
    )
    if equal_weights:
        assign, duals = _assignment(c, mu.points, nu.points)
        if duals is not None:
            r = np.arange(mu.count)
            mass = np.full(mu.count, mu.weights[0])
            cost = float(np.sum(mass * c[r, assign]))
            return Coupling(r, assign, mass, cost), DualPotentials(*duals)
        warnings.warn(
            f"assignment duals did not settle within {mu.count + 1} sweeps of a pass; "
            "solving the transport LP instead",
            SolverFallbackWarning,
            stacklevel=2,
        )
    return _solve_lp(mu, nu, c)


def brute_force_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Coupling:
    """Exact optimum by enumerating all permutations (equal weights, N <= 8)."""
    n = mu.count
    if nu.count != n or n > 8:
        raise ConfigError("oracle requires equal atom counts with N <= 8")
    if not (
        np.allclose(mu.weights, 1.0 / n, rtol=0, atol=1e-12)
        and np.allclose(nu.weights, 1.0 / n, rtol=0, atol=1e-12)
    ):
        raise ConfigError("oracle requires equal weights 1/N on both sides")
    c = cost_matrix(mu.points, nu.points)
    perms = np.array(list(itertools.permutations(range(n))))
    costs = c[np.arange(n)[None, :], perms].sum(axis=1) / n
    best = perms[np.argmin(costs)]
    mass = np.full(n, 1.0 / n)
    return Coupling(np.arange(n), best, mass, float(costs.min()))


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


def solve_entropic(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    reg: float,
    max_iter: int = 20_000,
    tol: float = 1e-8,
):
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
    within tol after max_iter sweeps, NaN included.
    """
    _check_instance(mu, nu)
    if reg <= 0:
        raise ConfigError("regularization must be positive")
    c = cost_matrix(mu.points, nu.points)
    a, b = mu.weights, nu.weights
    f = c.min(axis=1)
    g = np.zeros(nu.count)
    kernel = _kernel(f, g, c, reg)
    u, v = np.ones(mu.count), np.ones(nu.count)

    def row_violation():
        return np.max(np.abs(u * (kernel @ v) - a))

    violation = np.inf
    for it in range(max_iter):
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
        if it % 10 == 9 or it == max_iter - 1:
            violation = row_violation()
            if violation <= tol:
                break
    else:
        violation = row_violation()
    if not violation <= tol:
        raise ConvergenceError(
            f"marginal violation {violation:.3e} > {tol} after {max_iter} iterations"
        )
    kernel *= u[:, None]
    kernel *= v[None, :]
    plan = _round_to_marginals(kernel, a, b)
    return _coupling_from_dense(plan, c), DualPotentials(f + reg * np.log(u), g + reg * np.log(v))


def truncate_support(coupling: Coupling, rel_tol: float) -> Coupling:
    """Drop entries below rel_tol times the largest mass in their row.

    Used to sharpen the support of regularized plans before geometric
    extraction; the result is for support analysis only and no longer
    satisfies the marginals exactly.
    """
    n_rows = int(coupling.rows.max()) + 1 if coupling.size else 0
    row_max = np.zeros(n_rows)
    np.maximum.at(row_max, coupling.rows, coupling.mass)
    keep = coupling.mass >= rel_tol * row_max[coupling.rows]
    return Coupling(
        coupling.rows[keep], coupling.cols[keep], coupling.mass[keep], coupling.total_cost
    )


def total_cost_of(coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    c = pair_costs(mu.points, nu.points, coupling.rows, coupling.cols)
    return float(np.sum(coupling.mass * c))


def cyclical_monotonicity_violation(
    coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure, block: int = 2048
) -> float:
    """Largest positive gain from swapping the targets of two support pairs.

    Zero (up to solver tolerance) exactly when the support admits no
    improving two-cycle, the optimality fingerprint of the plan.
    Equals twice the negative part of the worst support monotonicity dot,
    computed in the separable form of support_monotonicity_min: O(n s)
    work and O(block n) memory for n sources and s support entries.
    """
    return max(0.0, -2.0 * support_monotonicity_min(coupling, mu, nu, block))


def support_monotonicity_min(
    coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure, block: int = 2048
) -> float:
    """min over support pairs of (x_i - x_k) . (y_j - y_l); >= 0 at optimality.

    Separable form: the term for pairs (i, j) and (k, l) is
    D[i, k] + D[k, i] with D[i, k] = min over j in supp(i) of
    x_i . y_j - x_k . y_j, so the minimum over all pairs is the minimum of
    D + D^T. The sources, sorted by row, are cut into chunks of about
    `block` support entries (a source is never split). For each pair of
    chunks A <= B, D[A, B] and the transpose of D[B, A] are built in the
    same sources-of-A by sources-of-B layout, each by one matmul and one
    minimum.reduceat over the entries of each source, so no transpose is
    taken. That is O(n s) work for n sources and s entries in place of
    O(s^2), and O(block n) working memory: no n x n, s x n or s x s array.
    Returns inf for an empty coupling.
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
    edges = np.unique(np.append(np.searchsorted(first, np.arange(0, s, block)), len(first)))
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


def brenier_potential(
    duals: DualPotentials, nu: DiscreteMeasure, x: np.ndarray, tie_tol: float = 1e-8
):
    """Correlation-form convex potential and its discrete subdifferential at x.

    Returns (value, argmax indices): value = max_j (x . y_j - phi_corr_j)
    with the correlation-form dual phi_corr_j = -phi_j / 2 (from
    c = 2 - 2 x.y), and every j within tie_tol of the maximum. For sources
    of a solved instance the argmax set contains all targets carrying
    coupling mass, and the value equals 1 - psi_i / 2 there.
    """
    scores = nu.points @ np.asarray(x, dtype=float) + duals.phi / 2.0
    value = float(scores.max())
    argmax = np.nonzero(scores >= value - tie_tol)[0]
    return value, argmax


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
        except (StopIteration, ValueError) as exc:
            raise SolverError(f"{path}: line {reader.line_num}: {exc!r}") from None
    rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
    for side, idx, count in (("source", rows, mu.count), ("target", cols, nu.count)):
        if idx.size and (idx.min() < 0 or idx.max() >= count):
            raise SolverError(f"{path}: {side} index outside [0, {count})")
    coupling = Coupling(rows, cols, np.array(mass), 0.0)
    coupling.total_cost = total_cost_of(coupling, mu, nu)
    return coupling


def save_duals_json(duals: DualPotentials, total_cost: float, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(
            {
                "phi": [float(v) for v in duals.phi],
                "psi": [float(v) for v in duals.psi],
                "total_cost": float(total_cost),
            },
            sort_keys=True,
        ))
