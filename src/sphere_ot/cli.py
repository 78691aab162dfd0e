"""Command-line front end: gen, solve, extract, diagnose, report.

extract re-analyses a run directory's stored plan as solve analyses its
own (pipeline.analyse); diagnose only prints the fits and constants a run
recorded.

Exit codes: 0 success, 1 configuration error, 2 invariant violation,
3 solver failure, 4 I/O failure.
"""

import argparse
import functools
import sys
from pathlib import Path

from . import measures as measures_mod
from . import pipeline as pipe
from . import solver as solver_mod
from .errors import ConfigError, DomainError, SolverError, SphereOTError


def _add_mesh_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=2, help="sphere dimension")
    p.add_argument("--mesh", type=int, default=200, help="atoms of a built-in density's mesh")
    p.add_argument("--seed", type=int, default=0, help="seed of a built-in density's mesh")


@functools.cache  # built once per process: main parses with it on every call
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

    e = sub.add_parser("extract", help="re-analyse a solved run directory from its plan")
    e.add_argument("--run", required=True)

    d = sub.add_parser("diagnose", help="print a run's recorded fits and constants")
    d.add_argument("--run", required=True)

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
    return _print_result(pipe.run_pipeline(config, args.mu, args.nu))


def _print_result(result) -> int:
    """Print a run's check table and regions; returns its exit code."""
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


def _cmd_extract(args) -> int:
    """Re-analyse a run directory's stored plan and duals (pipeline.analyse)."""
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise OSError(f"run directory {run_dir} does not exist")
    mu = measures_mod.load_measure(run_dir / "mu.json")
    nu = measures_mod.load_measure(run_dir / "nu.json")
    if nu.n != mu.n:
        raise DomainError(f"{run_dir / 'nu.json'}: a measure on S^{nu.n}, "
                          f"but mu.json is on S^{mu.n}")
    coupling = solver_mod.load_coupling_csv(run_dir / "coupling.csv", mu, nu)
    duals = solver_mod.load_duals_json(run_dir / "duals.json", mu, nu)
    config = pipe.read_run_json(run_dir / "config.json")
    solver = config.get("solver") if isinstance(config, dict) else None
    if solver not in ("exact", "entropic"):
        raise OSError(f"{run_dir / 'config.json'}: malformed run file: solver is {solver!r}")
    return _print_result(pipe.analyse(mu, nu, coupling, duals, solver, run_dir))


def _cmd_diagnose(args) -> int:
    """Print the fits and constants a run recorded in holder_reports.json and
    constants.json; one the files lack is printed as skipped."""
    run_dir = Path(args.run)
    fits, saved = (pipe.read_run_json(run_dir / name)
                   for name in ("holder_reports.json", "constants.json"))
    names = ("outer_on_S1_interior", "outer_on_S2", "inner_on_S2")
    try:
        lines = [f"{name}: alpha={fits[name]['alpha_hat']:.4f} (C={fits[name]['C_hat']:.3f}, "
                 f"pairs={fits[name]['pair_count']})" for name in names if name in fits]
        lines += [f"{name}: skipped (not recorded)" for name in names if name not in fits]
        constants = saved["constants"]
        lines.append(
            "bivalent_constants: skipped (not recorded)" if constants is None
            else f"bivalent constants: k={constants['k_U']:.4f} C+={constants['C_plus']:.4f} "
            f"C-(statement)={constants['C_minus_statement']:.4f} "
            f"C-(proof)={constants['C_minus_proof']:.4f} "
            f"bound ratio={saved['inner_bound_ratio']:.4f}"
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise OSError(f"{run_dir}: malformed holder_reports.json or constants.json: "
                      f"{exc!r}") from None
    print("\n".join(lines))
    return pipe.EXIT_OK


def _cmd_report(args) -> int:
    out = pipe.export_report(Path(args.run), args.format)
    print(f"wrote {out}")
    return pipe.EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "extract": _cmd_extract,
    "diagnose": _cmd_diagnose,
    "report": _cmd_report,
}


# the errors a command reports by exit code, each with its code and the
# message's prefix; the first class that matches wins
FAILURES = (
    (ConfigError, pipe.EXIT_CONFIG, "configuration error"),
    (SolverError, pipe.EXIT_SOLVER, "solver failure"),
    (OSError, pipe.EXIT_IO, "I/O failure"),
    (SphereOTError, pipe.EXIT_INVARIANT, "invariant violation"),
)


def failure(exc: Exception) -> tuple:
    """(exit code, message) that main gives an error of one of the FAILURES classes."""
    for kind, code, prefix in FAILURES:
        if isinstance(exc, kind):
            return code, f"{prefix}: {exc}"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed the help (0) or a usage error (2)
        return pipe.EXIT_OK if exc.code == 0 else pipe.EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except (SphereOTError, OSError) as exc:
        code, message = failure(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
