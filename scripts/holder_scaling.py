#!/usr/bin/env python3
"""Exponent estimates of the solved outer map across mesh resolutions.

Solves the gradient-warp instance (target atoms are the sources pushed by
the gradient of |y + s e|, so the identity pairing is provably optimal) at
several mesh sizes and reports the envelope-fit exponent and constant of
the outer map on the interior univalent region.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from sphere_ot import maps, measures, regularity, solver


def run_one(count: int, shift: float, seed: int) -> dict:
    mesh = measures.quasi_uniform_mesh(2, count, seed)
    moved = mesh.points + shift * np.array([0.0, 0.0, 1.0])
    moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    w = np.full(count, 1.0 / count)
    mu = measures.DiscreteMeasure(2, mesh.points, w, mesh.cell_areas)
    nu = measures.DiscreteMeasure(2, moved, w.copy(), mesh.cell_areas.copy())
    coupling, _ = solver.solve_exact(mu, nu)
    mm = maps.extract_multimap(coupling, mu, nu, 2.0 * mesh.spacing)
    mm = maps.classify_regions(mm, mesh.spacing)
    s1 = mm.interior_s1()
    fit = regularity.holder_fit(mm.points[s1], mm.plus[s1], region="S1")
    return {
        "mesh": count,
        "spacing": mesh.spacing,
        "alpha_hat": fit.alpha_hat,
        "C_hat": fit.C_hat,
        "pairs": fit.pair_count,
        "window": list(fit.scale_window),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000])
    parser.add_argument("--shift", type=float, default=0.35)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="holder_scaling.json")
    args = parser.parse_args()

    rows = []
    for count in args.sizes:
        row = run_one(count, args.shift, args.seed)
        rows.append(row)
        print(f"mesh {count:5d}: alpha_hat={row['alpha_hat']:.3f} "
              f"C_hat={row['C_hat']:.3f} ({row['pairs']} pairs)")
    Path(args.out).write_text(json.dumps(rows, indent=1, sort_keys=True))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
