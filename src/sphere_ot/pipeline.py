"""End-to-end runs: solve, analyse, export.

A run writes every artifact into one output directory: the two measures,
the coupling and dual potentials, the extracted map pair with region
labels, inverse maps, regularity reports, and a pass/fail check table.
run_pipeline writes the inputs, the plan and the duals, and analyse runs
every check and writes every other artifact; `sphere-ot extract` calls
analyse on a run directory's stored plan, so the directory is whole again.
All artifacts are byte-stable for a fixed seed on one machine and BLAS
thread count. Exit codes: 0 success, 1 configuration, 2 invariant
violation, 3 solver failure, 4 I/O failure.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import maps as maps_mod
from . import measures as measures_mod
from . import regularity as reg_mod
from . import solver as solver_mod
from .errors import ConfigError, InsufficientDataError, SphereOTError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_SOLVER = 3
EXIT_IO = 4

CAP_POWER = 16
BAND_POWER = 4
# entropic plans are cut to entries of at least this share of their row's
# largest mass before extraction, in a run and when it is re-analysed
ENTROPIC_SUPPORT_TOL = 1e-6
# every file that solve, extract and report write into a run directory; a
# solve deletes them all before it writes its own
RUN_FILES = (
    "config.json", "mu.json", "nu.json", "coupling.csv", "duals.json", "multimap.json",
    "inverse.json", "regions.json", "holder_reports.json", "constants.json",
    "beta_values.csv", "checks.json", "summary.json", "report.json", "report.csv",
)


@dataclass
class RunConfig:
    """Parameters of one pipeline run; mesh_count and seed place a built-in density's mesh."""

    n: int = 2
    mesh_count: int = 200
    seed: int = 0
    solver: str = "exact"
    reg: float = 0.01
    output_dir: Path = Path("run")

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError("sphere dimension must be >= 1")
        if self.mesh_count < self.n + 2:
            raise ConfigError(f"mesh_count must be at least {self.n + 2}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.solver not in ("exact", "entropic"):
            raise ConfigError("solver must be 'exact' or 'entropic'")
        if self.solver == "entropic" and not (0 < self.reg < math.inf):
            raise ConfigError("entropic regularization must be positive and finite")


def builtin_density(spec: str, n: int):
    """Density factory: 'uniform', 'cap:kappa', or 'band:kappa'.

    cap concentrates at the last coordinate axis with a strictly positive
    floor 1 - kappa; band concentrates around the corresponding equator.
    Both have unit mean against the surface measure on S^2.
    """
    if spec == "uniform":
        return lambda p: 1.0
    kind, _, arg = spec.partition(":")
    try:
        kappa = float(arg)
    except ValueError:
        raise ConfigError(f"malformed density spec {spec!r}") from None
    if not 0.0 < kappa < 1.0:
        raise ConfigError("density concentration must lie in (0, 1)")
    if kind == "cap":
        gain = CAP_POWER + 1.0
        return lambda p: (1.0 - kappa) + kappa * gain * ((1.0 + p[-1]) / 2.0) ** CAP_POWER
    if kind == "band":
        gain = 315.0 / 128.0  # unit mean of (1 - z^2)^4 on S^2
        return lambda p: (1.0 - kappa) + kappa * gain * (1.0 - p[-1] ** 2) ** BAND_POWER
    raise ConfigError(f"unknown density spec {spec!r}")


def is_builtin(spec: str) -> bool:
    """Whether spec names a built-in density rather than a measure file."""
    return spec == "uniform" or spec.partition(":")[0] in ("cap", "band")


def resolve_measure(spec: str, n: int, mesh=None) -> measures_mod.DiscreteMeasure:
    """A measure on S^n: a built-in density spec sampled on mesh, or a measure
    JSON file with no atom of weight at most solver.SUPPORT_EPS (the plan
    drops such masses, so extraction would find no coupling mass at the atom
    and the run would fail after the whole solve)."""
    if is_builtin(spec):
        return measures_mod.sample_density(builtin_density(spec, n), mesh)
    path = Path(spec)
    if path.exists():
        measure = measures_mod.load_measure(path)
        if measure.n != n:
            raise ConfigError(f"{path}: a measure on S^{measure.n}, but the run is on S^{n}")
        light = np.flatnonzero(measure.weights <= solver_mod.SUPPORT_EPS)
        if len(light):
            raise ConfigError(f"{path}: atom {light[0]} has weight {measure.weights[light[0]]:g}, "
                              f"not above the plan's cut {solver_mod.SUPPORT_EPS:g}")
        return measure
    raise ConfigError(f"measure spec {spec!r} is neither a built-in density nor a file")


@dataclass
class Check:
    """One line of the pass/fail table."""

    name: str
    claim: str
    passed: bool
    value: float
    tolerance: float
    required: bool = True

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "passed": bool(self.passed),
            "value": _json_number(self.value),
            "tolerance": float(self.tolerance),
            "required": bool(self.required),
        }


@dataclass
class RunResult:
    exit_code: int
    checks: list
    summary: dict


def _json_number(value):
    """value as a float, or None (JSON null) for NaN, which strict JSON has
    no token for."""
    return None if math.isnan(value) else float(value)


def _json_dump(obj, path: Path) -> None:
    """Write obj to path as every JSON file of a run is written: one
    json.dumps with sorted keys and no indentation, which takes the C
    encoder (json.dump, or any indent, never does)."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True))


def read_run_json(path: Path):
    """A run directory's JSON file; OSError naming the file when it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise OSError(f"{path}: malformed run file: {exc!r}") from None


def extraction_support(coupling, solver: str):
    """The coupling that map extraction and the cyclic check read: exact plans
    as they are; entropic plans without the entries below ENTROPIC_SUPPORT_TOL
    times the largest mass in their row. A cut plan keeps the uncut
    total_cost and no longer satisfies the marginals."""
    if solver == "exact":
        return coupling
    row_max = np.zeros(int(coupling.rows.max()) + 1 if coupling.size else 0)
    np.maximum.at(row_max, coupling.rows, coupling.mass)
    keep = coupling.mass >= ENTROPIC_SUPPORT_TOL * row_max[coupling.rows]
    return solver_mod.Coupling(
        coupling.rows[keep], coupling.cols[keep], coupling.mass[keep], coupling.total_cost
    )


def run_scales(mu, nu):
    """The run's scales, a function of its two measures alone, so a run
    directory is re-analysed at them from mu.json and nu.json: (merge_tol,
    zero_tol, spacing), with spacing the larger median nearest-neighbour
    distance of the two, merge radius 2 * spacing and zero band spacing."""
    spacing = max(measures_mod.median_spacing(mu.points), measures_mod.median_spacing(nu.points))
    return 2.0 * spacing, spacing, spacing


def run_pipeline(config: RunConfig, mu_spec: str, nu_spec: str) -> RunResult:
    """Solve one instance and write its inputs, plan, duals and analysis (analyse)."""
    config.validate()
    # the instance first, so a configuration error leaves no run directory
    mesh = (measures_mod.quasi_uniform_mesh(config.n, config.mesh_count, config.seed)
            if is_builtin(mu_spec) or is_builtin(nu_spec) else None)
    mu, nu = (resolve_measure(spec, config.n, mesh) for spec in (mu_spec, nu_spec))
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        # a rerun keeps nothing of an earlier run; the measures are already
        # read, so a spec pointing into out still works
        for name in RUN_FILES:
            (out / name).unlink(missing_ok=True)
        # the run's inputs before the solve, so a run whose solve or
        # analysis fails keeps them
        _json_dump(
            {k: (str(v) if isinstance(v, Path) else v)
             for k, v in dataclasses.asdict(config).items()},
            out / "config.json",
        )
        measures_mod.save_measure(mu, out / "mu.json")
        measures_mod.save_measure(nu, out / "nu.json")
    except OSError as exc:
        raise OSError(f"output directory {out} is not writable: {exc}") from exc

    if config.solver == "exact":
        coupling, duals = solver_mod.solve_exact(mu, nu)
    else:
        coupling, duals = solver_mod.solve_entropic(mu, nu, reg=config.reg)
    # the plan before any check, so that a run whose analysis raises can
    # still be re-analysed by extract
    solver_mod.save_coupling_csv(coupling, out / "coupling.csv")
    solver_mod.save_duals_json(duals, coupling.total_cost, out / "duals.json")
    return analyse(mu, nu, coupling, duals, config.solver, out)


def analyse(mu, nu, coupling, duals, solver: str, out: Path) -> RunResult:
    """Run every check of a solved plan and write every analysis artifact into
    out, from multimap.json to summary.json, at the scales of the two measures
    (run_scales); the exit code is EXIT_INVARIANT when a required check failed."""
    exact = solver == "exact"
    epsilon = measures_mod.default_epsilon(mu.n)
    merge_tol, zero_tol, spacing = run_scales(mu, nu)

    certificate = measures_mod.check_suitable(mu, nu, epsilon)
    checks = [Check(
        "suitability",
        "source density bounded above by 1/epsilon and target below by epsilon",
        certificate.upper_ok and certificate.lower_ok,
        float(epsilon), 0.0, required=False,
    )]
    marginal_err = coupling.validate(mu, nu, tol=math.inf)  # the line, not validate, fails
    checks.append(Check(
        "marginals", "coupling marginals match the prescribed weights",
        marginal_err <= 1e-8, marginal_err, 1e-8,
    ))
    support = extraction_support(coupling, solver)
    if exact:
        gap, feasibility, slackness, cyc = duals.certificate(coupling, mu, nu)
        checks.append(Check(
            "duality_gap", "primal cost meets the dual value", abs(gap) <= 1e-8, gap, 1e-8,
        ))
        checks.append(Check(
            "dual_feasibility", "no pair has psi_i + phi_j above its cost",
            feasibility <= 1e-8, feasibility, 1e-8,
        ))
        checks.append(Check(
            "complementary_slackness", "every support pair has psi_i + phi_j equal to its cost",
            slackness <= 1e-8, slackness, 1e-8,
        ))
        claim = ("value is 2 max(f, 0) + 2 s, the dual certificate's bound on every swap gain "
                 "c_ij + c_kl - c_il - c_kj of two support pairs (f: dual_feasibility, "
                 "s: complementary_slackness)")
    else:
        cyc = solver_mod.cyclical_monotonicity_violation(support, mu, nu)
        claim = "no two support pairs admit an improving swap"
    checks.append(Check("cyclical_monotonicity", claim, cyc <= 1e-9, cyc, 1e-9, required=exact))

    mm = maps_mod.extract_multimap(support, mu, nu, merge_tol, zero_tol)
    inv = maps_mod.invert_maps(support, mu, nu, merge_tol, zero_tol)
    nu1, nu_rest = maps_mod.nu1_split(mm, nu)
    maps_mod.save_multimap_json(mm, out / "multimap.json")
    _json_dump(_inverse_records(inv), out / "inverse.json")
    regions = {"source_regions": mm.region_counts(), "target_regions": inv.region_counts(),
               "anomalies": mm.anomalies, "nu1_mass": nu1.mass, "nu_rest_mass": nu_rest.mass}
    _json_dump(regions, out / "regions.json")

    checks.append(Check(
        "region_partition", "every source atom carries exactly one region label",
        bool(np.all(np.isin(mm.region, maps_mod.REGION_SOURCE))), float(mm.count), 0.0,
    ))
    lam_max = float(mm.jump.max()) if mm.count else 0.0
    checks.append(Check(
        "normal_jump_bound", "normal jump lambda stays within the diameter bound 2",
        lam_max <= 2.0 + 1e-9, lam_max, 2.0 + 1e-9,
    ))
    sign_anomalies = sum(a["kind"] == "bivalent sign structure" for a in mm.anomalies)
    checks.append(Check(
        "bivalent_signs",
        "bivalent atoms have positively aligned outer and negatively aligned inner images",
        sign_anomalies == 0, float(sign_anomalies), 0.0, required=exact,
    ))
    s2 = mm.indices_in("S2")
    if len(s2):
        collin = float(np.max(mm.residual[s2] / np.maximum(mm.jump[s2], 1e-15)))
        checks.append(Check(
            "collinearity",
            "outer minus inner image is normal to the source up to a tenth of the jump",
            collin <= 0.1, collin, 0.1, required=exact,
        ))
        outer_targets = np.unique(mm.other[~mm.inner & (mm.region[mm.own] == "S2")])
        checks.append(Check(
            "outer_image_univalent",
            "outer images of bivalent sources land in the univalent target region",
            bool(np.all(inv.region[outer_targets] == "T1")), float(len(outer_targets)), 0.0,
            required=exact,
        ))
    t2 = inv.indices_in("T2")
    probes = _dichotomy_probes(inv, t2)
    if len(t2) >= 2:
        mono = reg_mod.monotonicity_check(inv, t2)
        checks.append(Check(
            "inverse_monotonicity",
            "inner inverse map is monotone against target displacement",
            mono >= -1e-9, mono, 1e-9, required=exact,
        ))
        checks.append(Check(
            "angle_bound",
            "weighted-normal angles stay below half the complementary separation angle",
            all(rep.gamma_bound_ok for rep in probes.values()), float(len(t2)), 1e-9,
            required=exact,
        ))
    mass_split = abs(nu1.mass + nu_rest.mass - nu.mass)
    checks.append(Check(
        "target_split", "inner-image restriction and remainder partition the target mass",
        mass_split <= 1e-10, mass_split, 1e-10,
    ))

    window = reg_mod.scale_window(spacing)
    holder = {}
    for name, idx, values in (("outer_on_S1_interior", mm.interior_s1(), mm.plus),
                              ("outer_on_S2", s2, mm.plus), ("inner_on_S2", s2, mm.minus)):
        try:  # a region with too little data has no fit
            holder[name] = reg_mod.holder_fit(mm.points[idx], values[idx], window, name)
        except InsufficientDataError:
            pass
    try:
        # too little data when fewer than two usable S2 atoms have a pair in the window
        usable = mm.usable_s2()
        constants = reg_mod.region_constants(mm, usable, window)
        bound_ratio = reg_mod.t_minus_bound_check(mm, usable, window, constants)
    except InsufficientDataError:
        constants = bound_ratio = None
    else:
        checks.append(Check(
            "inner_bound",
            "inner-map displacements respect the proof-level constant",
            bound_ratio <= 1.0, bound_ratio, 1.0, required=exact,
        ))
    injectivity = None
    if len(t2) >= 2:
        try:
            # at the T2 atoms' own spacing, not the mesh's (see injectivity_lower_bound)
            t2_window = reg_mod.scale_window(measures_mod.median_spacing(inv.points[t2]))
            injectivity = reg_mod.injectivity_lower_bound(inv, t2, 4.0 * mu.n - 1.0, t2_window)
        except InsufficientDataError:
            pass

    _json_dump(
        {name: dataclasses.asdict(rep) for name, rep in holder.items()},
        out / "holder_reports.json",
    )
    _json_dump(
        {
            "constants": dataclasses.asdict(constants) if constants else None,
            "inner_bound_ratio": bound_ratio,
            "injectivity": dataclasses.asdict(injectivity) if injectivity else None,
        },
        out / "constants.json",
    )
    _write_beta_csv(probes, out / "beta_values.csv")
    _json_dump([c.as_dict() for c in checks], out / "checks.json")
    failed = [c.name for c in checks if c.required and not c.passed]

    summary = {
        "total_cost": coupling.total_cost,
        "support_size": coupling.size,
        "source_regions": mm.region_counts(),
        "target_regions": inv.region_counts(),
        "bivalent_fraction": float(len(s2)) / mm.count,
        "checks_failed": failed,
        "mesh_spacing": spacing,
        "merge_tol": merge_tol,
        "zero_tol": zero_tol,
    }
    _json_dump(summary, out / "summary.json")

    return RunResult(EXIT_INVARIANT if failed else EXIT_OK, checks, summary)


def _inverse_records(inv) -> dict:
    return {"n": inv.n, "atoms": maps_mod.atom_records(inv)}


def _dichotomy_probes(inv, t2) -> dict:
    """dichotomy_probe at each of the first 8 T2 centres, by centre; a centre
    whose weighted normals coincide is left out (its angle is undefined)."""
    probes = {}
    for center in t2[: min(len(t2), 8)]:
        try:
            probes[int(center)] = reg_mod.dichotomy_probe(inv, int(center))
        except SphereOTError:
            continue
    return probes


def _write_beta_csv(probes: dict, path: Path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["center", "other", "beta"])
        for center, rep in probes.items():
            for j, beta in zip(rep.others, rep.betas):
                writer.writerow([center, int(j), repr(float(beta))])


def export_report(run_dir: Path, fmt: str = "json") -> Path:
    """Aggregate a run directory into one deterministic report file."""
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise OSError(f"run directory {run_dir} does not exist")
    payload = {}
    for name in ("summary", "checks", "regions", "holder_reports", "constants"):
        path = run_dir / f"{name}.json"
        if path.exists():
            payload[name] = read_run_json(path)
    if fmt == "json":
        out = run_dir / "report.json"
        _json_dump(payload, out)
        return out
    if fmt == "csv":
        import csv

        out = run_dir / "report.csv"
        rows = _flatten("", payload)
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["key", "value"])
            for key, value in rows:
                writer.writerow([key, value])
        return out
    raise ConfigError(f"unknown report format {fmt!r}")


def _flatten(prefix: str, obj) -> list:
    if isinstance(obj, dict):
        rows = []
        for key in sorted(obj):
            rows.extend(_flatten(f"{prefix}{key}.", obj[key]))
        return rows
    if isinstance(obj, list):
        rows = []
        for i, item in enumerate(obj):
            rows.extend(_flatten(f"{prefix}{i}.", item))
        return rows
    return [(prefix.rstrip("."), _scalar(obj))]


def _scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return v
