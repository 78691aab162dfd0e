"""Command-line front end: gen, solve, extract, diagnose, mtw, report.

Exit codes: 0 success, 1 configuration error, 2 invariant violation,
3 solver failure, 4 I/O failure.
"""

import argparse
import math
import sys
from pathlib import Path

from . import maps as maps_mod
from . import measures as measures_mod
from . import pipeline as pipe
from . import regularity as reg_mod
from . import solver as solver_mod
from .errors import (ConfigError, DomainError, InsufficientDataError, SolverError,
                     SphereOTError)


def _add_mesh_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=2, help="sphere dimension")
    p.add_argument("--mesh", type=int, default=200, help="atoms of a built-in density's mesh")
    p.add_argument("--seed", type=int, default=0, help="seed of a built-in density's mesh")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphere-ot",
        description="Quadratic-cost transport between sphere measures: "
        "solve, extract the two-valued map, classify regions, run diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a measure JSON from a density spec")
    _add_mesh_args(g)
    g.add_argument("--density", default="uniform", help="uniform | cap:K | band:K")
    g.add_argument("--out", required=True, help="output measure JSON path")

    s = sub.add_parser("solve", help="run the full pipeline into an output directory")
    _add_mesh_args(s)
    s.add_argument("--mu", default="uniform", help="density spec or measure JSON path")
    s.add_argument("--nu", default="uniform", help="density spec or measure JSON path")
    s.add_argument("--solver", choices=("exact", "entropic"), default="exact")
    s.add_argument("--reg", type=float, default=0.01, help="entropic regularization")
    s.add_argument("--out", default="run", help="output directory")

    e = sub.add_parser("extract", help="re-extract maps from a solved run directory")
    e.add_argument("--run", required=True)

    d = sub.add_parser("diagnose", help="recompute regularity reports for a run")
    d.add_argument("--run", required=True)

    m = sub.add_parser("mtw", help="structural-condition sweep for the sphere cost")
    m.add_argument("--n", type=int, default=2)
    m.add_argument("--out", default="mtw", help="output directory")

    r = sub.add_parser("report", help="aggregate run artifacts into one report")
    r.add_argument("--run", required=True)
    r.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _cmd_gen(args) -> int:
    mesh = measures_mod.quasi_uniform_mesh(args.n, args.mesh, args.seed)
    measure = measures_mod.sample_density(pipe.builtin_density(args.density, args.n), mesh)
    measures_mod.save_measure(measure, args.out)
    print(f"wrote {measure.count} atoms to {args.out}")
    return pipe.EXIT_OK


def _cmd_solve(args) -> int:
    config = pipe.RunConfig(
        n=args.n,
        mesh_count=args.mesh,
        seed=args.seed,
        solver=args.solver,
        reg=args.reg,
        output_dir=Path(args.out),
    )
    result = pipe.run_pipeline(config, args.mu, args.nu)
    for check in result.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.claim} "
              f"(value={check.value:.3e}, tolerance={check.tolerance:.3e})")
    print(f"regions: {result.summary['source_regions']} | "
          f"targets: {result.summary['target_regions']} | "
          f"cost: {result.summary['total_cost']:.6e}")
    if result.exit_code != 0:
        failed = ", ".join(result.summary["checks_failed"])
        print(f"invariant violations: {failed}", file=sys.stderr)
    return result.exit_code


def _run_entries(path: Path, valid, *keys) -> list:
    """The entries under keys of a run directory's JSON file; OSError naming
    the file when it is not JSON, lacks one of them or one fails valid."""
    data = pipe.read_run_json(path)
    try:
        values = [data[key] for key in keys]
    except (KeyError, TypeError) as exc:
        raise OSError(f"{path}: malformed run file: {exc!r}") from None
    for key, value in zip(keys, values):
        if not valid(value):
            raise OSError(f"{path}: malformed run file: {key} is {value!r}")
    return values


def _is_scale(value) -> bool:
    """A finite positive number; bool, though an int, is none."""
    return type(value) in (int, float) and 0 < value < math.inf


def _load_run(run_dir: Path):
    """A solved run's measures, the support its maps were read from, and the
    scales it recorded in summary.json: (coupling, mu, nu, merge_tol,
    zero_tol, mesh_spacing)."""
    if not run_dir.is_dir():
        raise OSError(f"run directory {run_dir} does not exist")
    mu = measures_mod.load_measure(run_dir / "mu.json")
    nu = measures_mod.load_measure(run_dir / "nu.json")
    if nu.n != mu.n:
        raise DomainError(f"{run_dir / 'nu.json'}: a measure on S^{nu.n}, "
                          f"but mu.json is on S^{mu.n}")
    coupling = solver_mod.load_coupling_csv(run_dir / "coupling.csv", mu, nu)
    [solver] = _run_entries(run_dir / "config.json", lambda v: v in ("exact", "entropic"),
                            "solver")
    scales = _run_entries(run_dir / "summary.json", _is_scale,
                          "merge_tol", "zero_tol", "mesh_spacing")
    return (pipe.extraction_support(coupling, solver), mu, nu, *scales)


def _cmd_extract(args) -> int:
    run_dir = Path(args.run)
    coupling, mu, nu, merge_tol, zero_tol, _ = _load_run(run_dir)
    mm = pipe.map_stage(coupling, mu, nu, merge_tol, zero_tol, run_dir)[0]
    print(f"regions: {mm.region_counts()} anomalies: {len(mm.anomalies)}")
    return pipe.EXIT_OK


def _cmd_diagnose(args) -> int:
    coupling, mu, nu, merge_tol, zero_tol, spacing = _load_run(Path(args.run))
    mm = maps_mod.extract_multimap(coupling, mu, nu, merge_tol, zero_tol)
    window = reg_mod.scale_window(spacing)
    fits, skipped = pipe._holder_reports(mm, window)
    for name, rep in fits.items():
        print(f"{name}: alpha={rep.alpha_hat:.4f} (C={rep.C_hat:.3f}, pairs={rep.pair_count})")
    for name, reason in skipped.items():
        print(f"{name}: skipped ({reason})")
    try:
        constants, ratio = pipe._bivalent_constants(mm, window)
    except InsufficientDataError as exc:
        print(f"bivalent_constants: skipped ({exc})")
    else:
        print(f"bivalent constants: k={constants.k_U:.4f} C+={constants.C_plus:.4f} "
              f"C-(statement)={constants.C_minus_statement:.4f} "
              f"C-(proof)={constants.C_minus_proof:.4f} bound ratio={ratio:.4f}")
    return pipe.EXIT_OK


def _cmd_mtw(args) -> int:
    result = pipe.run_mtw_suite(args.n, Path(args.out))
    for check in result.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.claim} (value={check.value:.3e})")
    return result.exit_code


def _cmd_report(args) -> int:
    out = pipe.export_report(Path(args.run), args.format)
    print(f"wrote {out}")
    return pipe.EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "extract": _cmd_extract,
    "diagnose": _cmd_diagnose,
    "mtw": _cmd_mtw,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return pipe.EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return pipe.EXIT_SOLVER
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return pipe.EXIT_IO
    except SphereOTError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return pipe.EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
