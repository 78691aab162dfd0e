#!/usr/bin/env python3
"""Sweep cap concentration against a uniform target and track the bivalent set.

For each concentration the instance is solved exactly, the two-valued map
extracted, and the bivalent geometry summarized: region fractions, normal
jump statistics, worst collinearity ratio, and the inner-map constants.
Writes one JSON with all rows (plot-ready, no rendering here).
"""

import argparse
import json
from pathlib import Path

import numpy as np

from sphere_ot import maps, measures, pipeline, regularity, solver


def run_one(kappa: float, mesh_count: int, seed: int) -> dict:
    mesh = measures.quasi_uniform_mesh(2, mesh_count, seed)
    mu = measures.sample_density(pipeline.builtin_density(f"cap:{kappa}", 2), mesh)
    nu = measures.uniform_measure(mesh)
    coupling, _ = solver.solve_exact(mu, nu)
    mm = maps.extract_multimap(coupling, mu, nu, 2.0 * mesh.spacing)
    mm = maps.classify_regions(mm, mesh.spacing)
    s2 = mm.indices_in("S2")
    row = {
        "kappa": kappa,
        "mesh": mesh_count,
        "regions": mm.region_counts(),
        "bivalent_fraction": len(s2) / mm.count,
        "anomalies": len(mm.anomalies),
        "total_cost": coupling.total_cost,
    }
    if len(s2):
        row["lambda_min"] = float(mm.jump[s2].min())
        row["lambda_max"] = float(mm.jump[s2].max())
        row["worst_collinearity"] = float(np.max(mm.residual[s2] / mm.jump[s2]))
        usable = mm.usable_s2()
        if len(usable) >= 2:
            try:
                consts = regularity.region_constants(mm, usable)
                row["k_U"] = consts.k_U
                row["C_plus"] = consts.C_plus
                row["C_minus_proof"] = consts.C_minus_proof
                row["bound_ratio"] = regularity.t_minus_bound_check(mm, usable)
            except Exception as exc:  # diagnostics stay best-effort per row
                row["constants_error"] = str(exc)
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mesh", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kappas", type=float, nargs="+",
                        default=[0.5, 0.8, 0.9, 0.95, 0.98])
    parser.add_argument("--out", default="bivalent_study.json")
    args = parser.parse_args()

    rows = []
    for kappa in args.kappas:
        row = run_one(kappa, args.mesh, args.seed)
        rows.append(row)
        frac = row["bivalent_fraction"]
        print(f"kappa={kappa:.2f}: bivalent fraction {frac:.3f} "
              f"(regions {row['regions']})")
    Path(args.out).write_text(json.dumps(rows, indent=1, sort_keys=True))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
