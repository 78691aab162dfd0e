#!/usr/bin/env python3
"""Survey the structural cost conditions across the alignment range.

Tracks the determinant of the mixed derivative matrix and the cross-
curvature on null direction pairs as the source-target alignment sweeps
from coincidence toward the boundary, including the empirical 2/(x.y)
law for the raw fourth difference. Output is a plot-ready JSON table.
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np

from sphere_ot import geometry, mtw


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--samples-per-dot", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="mtw_survey.json")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    dots = np.linspace(0.12, 0.98, 15)
    rows = []
    for dot in dots:
        dets = []
        curvs = []
        for _ in range(args.samples_per_dot):
            x = geometry.random_sphere_points(args.n, 1, rng)[0]
            d = geometry.tangent_frame(x)[0]
            y = geometry.geodesic_step(x, d, math.acos(dot))
            dets.append(abs(np.linalg.det(geometry.cross_derivative_frame(x, y))))
            p, pbar = mtw.random_null_pairs(x, y, 1, rng)[0]
            curvs.append(mtw.cross_curvature(x, y, p, pbar))
        rows.append({
            "alignment": float(dot),
            "det_mean": float(np.mean(dets)),
            "det_expected": float(2.0**args.n * dot),
            "curvature_min": float(np.min(curvs)),
            "curvature_mean": float(np.mean(curvs)),
            "curvature_law": 2.0 / float(dot),
        })
        print(f"x.y={dot:.3f}: |det|={np.mean(dets):.4f} "
              f"(expect {2.0**args.n * dot:.4f}), "
              f"curvature min {np.min(curvs):.3f} (law {2.0/dot:.3f})")
    Path(args.out).write_text(json.dumps(rows, indent=1, sort_keys=True))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
