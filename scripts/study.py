#!/usr/bin/env python3
"""Run a study grid through `run_pipeline` and write one row per run.

The grid is a JSON object with exactly the keys "n" (sphere dimension),
"meshes", "seeds" and "instances". An instance is a measure pair
{"mu": spec, "nu": spec}, each spec as `sphere-ot solve` takes it, or
{"warp": s}: the mesh's points against their push-forward under the
gradient of |y + s e|, e the last axis, for which the identity pairing is
optimal. Each instance, mesh and seed is one run, kept in a directory of
its own under <out stem>.runs/ beside the output. Its row reads that run's
summary and artifacts: exit code, failed checks, every check's value by
name, regions, bivalent fraction, cost, spacing, anomaly count, the lambda
range on S2, the envelope fits and the bivalent constants (null where a
run has none).

    python3 scripts/study.py scripts/grids/bivalent.json --out bivalent.json
"""

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from sphere_ot import measures, pipeline

GRID_KEYS = {"n", "meshes", "seeds", "instances"}


def warp_specs(n: int, count: int, seed: int, shift: float, prefix: Path) -> list:
    """Measure files <prefix>-mu.json and <prefix>-nu.json of the warp instance."""
    prefix.parent.mkdir(parents=True, exist_ok=True)
    mesh = measures.quasi_uniform_mesh(n, count, seed)
    moved = mesh.points + shift * np.eye(n + 1)[-1]
    moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    w = np.full(count, 1.0 / count)
    specs = []
    for side, points in (("mu", mesh.points), ("nu", moved)):
        specs.append(f"{prefix}-{side}.json")
        measures.save_measure(measures.DiscreteMeasure(n, points, w, mesh.cell_areas), specs[-1])
    return specs


def run_row(n: int, instance: dict, count: int, seed: int, runs: Path) -> dict:
    """One run of the instance, kept under runs, and its row."""
    if "warp" in instance:
        name = f"warp-{instance['warp']}"
    else:
        name = f"{Path(instance['mu']).name}-{Path(instance['nu']).name}"
    run_dir = runs / f"{name}-mesh-{count}-seed-{seed}"
    specs = (warp_specs(n, count, seed, instance["warp"], run_dir) if "warp" in instance
             else (instance["mu"], instance["nu"]))
    config = pipeline.RunConfig(n=n, mesh_count=count, seed=seed, output_dir=run_dir)
    result = pipeline.run_pipeline(config, *specs)
    summary = result.summary
    found = {stem: json.loads((run_dir / f"{stem}.json").read_text()) for stem in
             ("checks", "regions", "multimap", "holder_reports", "constants")}
    jumps = [a["lambda"] for a in found["multimap"]["atoms"] if a["region"] == "S2"]
    return {
        "instance": instance,
        "mesh": count,
        "seed": seed,
        "exit_code": result.exit_code,
        "checks_failed": summary["checks_failed"],
        "checks": {c["name"]: c["value"] for c in found["checks"]},
        "regions": summary["source_regions"],
        "bivalent_fraction": summary["bivalent_fraction"],
        "total_cost": summary["total_cost"],
        "spacing": summary["mesh_spacing"],
        "anomalies": len(found["regions"]["anomalies"]),
        "lambda_min": min(jumps, default=None),
        "lambda_max": max(jumps, default=None),
        "fits": found["holder_reports"],
        **found["constants"],  # constants, inner_bound_ratio, injectivity
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("grid", help="grid JSON file")
    parser.add_argument("--out", required=True, help="output JSON table")
    args = parser.parse_args()

    grid = json.loads(Path(args.grid).read_text())
    missing, unknown = sorted(GRID_KEYS - set(grid)), sorted(set(grid) - GRID_KEYS)
    if missing or unknown:
        sys.exit(f"{args.grid}: missing keys {missing}, unknown keys {unknown}")
    for instance in grid["instances"]:
        if set(instance) not in ({"mu", "nu"}, {"warp"}):
            sys.exit(f"{args.grid}: instance {instance} is neither mu/nu nor warp")

    out = Path(args.out)
    rows = []
    for instance, count, seed in itertools.product(grid["instances"], grid["meshes"],
                                                   grid["seeds"]):
        rows.append(run_row(grid["n"], instance, count, seed, out.with_suffix(".runs")))
        print(f"{instance} mesh {count} seed {seed}: exit {rows[-1]['exit_code']}, "
              f"regions {rows[-1]['regions']}, cost {rows[-1]['total_cost']:.6f}")
    out.write_text(json.dumps(rows, indent=1, sort_keys=True))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
