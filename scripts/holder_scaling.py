#!/usr/bin/env python3
"""Exponent estimates of the solved outer map across mesh resolutions.

Solves the gradient-warp instance (target atoms are the sources pushed by
the gradient of |y + s e|, so the identity pairing is provably optimal) at
several mesh sizes, each as one `run_pipeline` run kept under
<out stem>.runs/ beside the output, and reports the envelope-fit exponent
and constant of the outer map on the interior univalent region.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from sphere_ot import measures, pipeline


def run_one(count: int, shift: float, seed: int, runs: Path) -> dict:
    mesh = measures.quasi_uniform_mesh(2, count, seed)
    moved = mesh.points + shift * np.array([0.0, 0.0, 1.0])
    moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    w = np.full(count, 1.0 / count)
    runs.mkdir(parents=True, exist_ok=True)
    specs = []
    for side, points in (("mu", mesh.points), ("nu", moved)):
        specs.append(str(runs / f"mesh-{count}-{side}.json"))
        measures.save_measure(measures.DiscreteMeasure(2, points, w, mesh.cell_areas), specs[-1])
    config = pipeline.RunConfig(n=2, mesh_count=count, seed=seed,
                                output_dir=runs / f"mesh-{count}")
    result = pipeline.run_pipeline(config, *specs)
    with open(result.output_dir / "holder_reports.json") as fh:
        fit = json.load(fh)["outer_on_S1_interior"]
    return {
        "mesh": count,
        "spacing": result.summary["mesh_spacing"],
        "alpha_hat": fit["alpha_hat"],
        "C_hat": fit["C_hat"],
        "pairs": fit["pair_count"],
        "window": fit["scale_window"],
        "exit_code": result.exit_code,
        "checks_failed": result.summary["checks_failed"],
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
        row = run_one(count, args.shift, args.seed, Path(args.out).with_suffix(".runs"))
        rows.append(row)
        print(f"mesh {count:5d}: alpha_hat={row['alpha_hat']:.3f} "
              f"C_hat={row['C_hat']:.3f} ({row['pairs']} pairs, exit {row['exit_code']})")
    Path(args.out).write_text(json.dumps(rows, indent=1, sort_keys=True))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
