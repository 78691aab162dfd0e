"""Correctness gates on a run directory, computed by the benchmark itself.

The run directory is read back with the package's public loaders
(``load_measure``, ``load_coupling_csv``) and ``duals.json``; every
certificate is recomputed here rather than taken from ``checks.json``,
whose ``duality_gap`` check is one-sided.
"""

import json
import math

import numpy as np
from sphere_ot import measures, solver
from sphere_ot.errors import SolverError

TOL = 1e-8
WARP_COST_TOL = 1e-12


def load_run(run_dir):
    """Measures, coupling and dual potentials stored in a run directory."""
    mu = measures.load_measure(run_dir / "mu.json")
    nu = measures.load_measure(run_dir / "nu.json")
    coupling = solver.load_coupling_csv(run_dir / "coupling.csv", mu, nu)
    with open(run_dir / "duals.json") as fh:
        raw = json.load(fh)
    duals = solver.DualPotentials(np.asarray(raw["psi"], float), np.asarray(raw["phi"], float))
    return mu, nu, coupling, duals


def certify(run_dir, reg=None):
    """Optimality certificate of a solved run directory.

    With ``reg`` None the run is exact: marginals, two-sided primal-dual
    gap, full-matrix dual feasibility and complementary slackness, all
    within TOL. With an entropic ``reg``: marginals and dual feasibility
    within TOL, and 0 <= cost - dual <= reg * ln(n m) + TOL.
    Returns (values, names of the failed gates, loaded coupling).
    """
    mu, nu, coupling, duals = load_run(run_dir)
    try:
        coupling.validate(mu, nu, TOL)
        marginals_ok = True
    except SolverError:
        marginals_ok = False
    dual = float(duals.psi @ mu.weights + duals.phi @ nu.weights)
    gap = coupling.total_cost - dual
    values = {
        "marginal_error": max(
            float(np.max(np.abs(coupling.row_marginal(mu.count) - mu.weights))),
            float(np.max(np.abs(coupling.col_marginal(nu.count) - nu.weights))),
        ),
        "primal": coupling.total_cost,
        "dual": dual,
        "gap": gap,
        "feasibility_gap": duals.feasibility_gap(mu, nu),
    }
    passed = {"marginals": marginals_ok, "dual_feasibility": values["feasibility_gap"] <= TOL}
    if reg is None:
        values["slackness_gap"] = duals.slackness_gap(coupling, mu, nu)
        passed["duality_gap"] = abs(gap) <= TOL
        passed["slackness"] = values["slackness_gap"] <= TOL
    else:
        values["gap_bound"] = reg * math.log(mu.count * nu.count) + TOL
        passed["entropic_gap"] = 0.0 <= gap <= values["gap_bound"]
    return values, [name for name, ok in passed.items() if not ok], coupling


def identity_pairing(coupling, count: int, expected_cost: float):
    """Failed gates of the warp instance: the plan must pair atom i with
    target i, and its cost must equal mean |x - T(x)|^2."""
    order = np.argsort(coupling.rows, kind="stable")
    failed = []
    if not (
        coupling.size == count
        and np.array_equal(coupling.rows[order], np.arange(count))
        and np.array_equal(coupling.cols[order], np.arange(count))
    ):
        failed.append("identity_pairing")
    if abs(coupling.total_cost - expected_cost) > WARP_COST_TOL:
        failed.append("warp_cost")
    return failed


def shift_psi(run_dir, amount: float = 1.0) -> None:
    """Fault injection for the self-test: add ``amount`` to every psi_i."""
    path = run_dir / "duals.json"
    with open(path) as fh:
        raw = json.load(fh)
    raw["psi"] = [v + amount for v in raw["psi"]]
    with open(path, "w") as fh:
        json.dump(raw, fh, sort_keys=True)


def flip_byte(path) -> None:
    """Fault injection for the self-test: change one byte in the middle of a file."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
