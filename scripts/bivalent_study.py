#!/usr/bin/env python3
"""Sweep cap concentration against a uniform target and track the bivalent set.

Each concentration is one exact `run_pipeline` run, kept in a directory
of its own under <out stem>.runs/ beside the output. Its row reads the
region fractions, normal jump statistics, worst collinearity ratio,
inner-map constants and check results from that run. Writes one JSON with
all rows (plot-ready, no rendering here).
"""

import argparse
import json
from pathlib import Path

from sphere_ot import pipeline


def run_one(kappa: float, mesh_count: int, seed: int, runs: Path) -> dict:
    config = pipeline.RunConfig(n=2, mesh_count=mesh_count, seed=seed,
                                output_dir=runs / f"cap-{kappa}")
    result = pipeline.run_pipeline(config, f"cap:{kappa}", "uniform")
    regions, multimap, found = (json.loads((result.output_dir / f"{name}.json").read_text())
                                for name in ("regions", "multimap", "constants"))
    row = {
        "kappa": kappa,
        "mesh": mesh_count,
        "regions": result.summary["source_regions"],
        "bivalent_fraction": result.summary["bivalent_fraction"],
        "anomalies": len(regions["anomalies"]),
        "total_cost": result.summary["total_cost"],
        "exit_code": result.exit_code,
        "checks_failed": result.summary["checks_failed"],
    }
    jumps = [a["lambda"] for a in multimap["atoms"] if a["region"] == "S2"]
    if jumps:
        row["lambda_min"], row["lambda_max"] = min(jumps), max(jumps)
        row["worst_collinearity"] = next(c.value for c in result.checks
                                         if c.name == "collinearity")
    if found["constants"] is not None:
        row.update({k: found["constants"][k] for k in ("k_U", "C_plus", "C_minus_proof")})
    if found["inner_bound_ratio"] is not None:
        row["bound_ratio"] = found["inner_bound_ratio"]
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
        row = run_one(kappa, args.mesh, args.seed, Path(args.out).with_suffix(".runs"))
        rows.append(row)
        print(f"kappa={kappa:.2f}: bivalent fraction {row['bivalent_fraction']:.3f} "
              f"(regions {row['regions']}, exit {row['exit_code']})")
    Path(args.out).write_text(json.dumps(rows, indent=1, sort_keys=True))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
