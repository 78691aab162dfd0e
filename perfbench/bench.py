"""Workloads, timed loop and result line of the sphere-ot benchmark.

Load is a closed loop: one process, one operation at a time, the next one
starting when the previous returns. Each invocation is one workload in a
fresh process, so its peak memory is that workload's; peak_rss_mb is read
after the first op, before any gate runs. Inputs come from --seed only.
Every operation is checked by the gates in gates.py, the ops of the solve
workloads after the timed loop.
"""

import argparse
import collections
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import sphere_ot
from sphere_ot import cli, maps, measures, pipeline, regularity, solver

import gates
from spans import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
CAP = "cap:0.98"
REG = 0.01
WARP_SHIFT = 0.35
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
RUN = "run"
OK_EXIT = (pipeline.EXIT_OK, pipeline.EXIT_INVARIANT)
NOT_BYTE_STABLE = ("timings.json",)
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass(frozen=True)
class Workload:
    name: str
    mesh: int  # atoms per side in a measured op
    small: int  # atoms per side in warm-up ops and --smoke runs
    solver: str = "exact"
    warp: bool = False
    reanalyse: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("cap_lp", 500, 60),
    Workload("warp_assign", 3000, 200, warp=True),
    Workload("entropic_cap", 300, 60, solver="entropic"),
    Workload("reanalyse", 500, 60, reanalyse=True),
)}


class SetupError(RuntimeError):
    """The workload could not be prepared; the run prints no result."""


@dataclass
class OpRecord:
    op: int
    traced: bool
    seconds: float
    failures: list
    values: dict = field(default_factory=dict)
    digest: str = ""
    artifact_bytes: int = 0
    checks_failed: int = 0


def _inspect_run_dir(record: OpRecord, run_dir: Path) -> None:
    """Digest and size of the byte-stable artifacts, and the failed checks."""
    digest = hashlib.sha256()
    for path in sorted(run_dir.iterdir()):
        if path.name in NOT_BYTE_STABLE:
            continue
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
        record.artifact_bytes += len(data)
    record.digest = digest.hexdigest()
    with open(run_dir / "summary.json") as fh:
        record.checks_failed = len(json.load(fh)["checks_failed"])


class SolveBench:
    """One run_pipeline call per op, as `sphere-ot solve` makes it.

    Every op writes to the same directory name, so config.json and the
    digests do not depend on the op; the directory is then renamed aside
    and gated after the timed loop.
    """

    def __init__(self, workload: Workload, seed: int, mesh: int, inject: str | None):
        self.w, self.seed, self.mesh, self.inject = workload, seed, mesh, inject
        self.specs = None
        self.pending = []

    def _inputs(self, mesh: int, tag: str):
        """(mu spec, nu spec, expected warp cost); warp writes two measure files."""
        if not self.w.warp:
            return CAP, "uniform", None
        grid = measures.quasi_uniform_mesh(2, mesh, self.seed)
        moved = grid.points + WARP_SHIFT * np.array([0.0, 0.0, 1.0])
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        weights = np.full(mesh, 1.0 / mesh)
        paths = []
        for side, points in (("mu", grid.points), ("nu", moved)):
            paths.append(f"{tag}-{side}.json")
            measures.save_measure(
                measures.DiscreteMeasure(2, points, weights, grid.cell_areas), paths[-1]
            )
        expected = float(np.mean(np.sum((grid.points - moved) ** 2, axis=1)))
        return paths[0], paths[1], expected

    def _solve(self, mesh: int, specs, out: str) -> list:
        config = pipeline.RunConfig(
            n=2, mesh_count=mesh, seed=self.seed, solver=self.w.solver, reg=REG,
            output_dir=Path(out),
        )
        code = pipeline.run_pipeline(config, specs[0], specs[1]).exit_code
        return [] if code in OK_EXIT else [f"exit_code_{code}"]

    def setup_once(self) -> float:
        return 0.0

    def setup(self) -> None:
        """Write the inputs and warm up the same solver path on a small mesh."""
        self.specs = self._inputs(self.mesh, "in")
        failures = self._solve(self.w.small, self._inputs(self.w.small, "warm"), "warm")
        if failures:
            raise SetupError(f"warm-up solve failed: {failures}")
        shutil.rmtree("warm")

    def op(self, k: int) -> list:
        return self._solve(self.mesh, self.specs, RUN)

    def after_op(self, record: OpRecord) -> None:
        if Path(RUN).exists():
            os.rename(RUN, f"op{record.op}")
        self.pending.append(record)

    def finish(self) -> None:
        for record in self.pending:
            _check(self, record)

    def check(self, record: OpRecord) -> None:
        run_dir = Path(f"op{record.op}")
        if self.inject == "psi":
            gates.shift_psi(run_dir)
        reg = REG if self.w.solver == "entropic" else None
        record.values, failed, coupling = gates.certify(run_dir, reg)
        if self.w.warp:
            failed += gates.identity_pairing(coupling, self.mesh, self.specs[2])
        record.failures += failed
        _inspect_run_dir(record, run_dir)
        shutil.rmtree(run_dir)


class ReanalyseBench:
    """extract -> diagnose -> report through cli.main on one solved exact run.

    The ops rewrite the same directory, so each is gated right after it.
    """

    def __init__(self, workload: Workload, seed: int, mesh: int, inject: str | None):
        self.w, self.seed, self.mesh, self.inject = workload, seed, mesh, inject
        self.values, self.source_failures, self.reference = {}, [], b""

    def setup_once(self) -> float:
        """Solve the run directory in a child process, as `sphere-ot solve` does,
        so the solve's memory stays out of this process; then certify it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        argv = [
            sys.executable, "-m", "sphere_ot.cli", "solve", "--n", "2",
            "--mesh", str(self.mesh), "--seed", str(self.seed),
            "--mu", CAP, "--nu", "uniform", "--solver", "exact", "--out", RUN,
        ]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - start
        if proc.returncode not in OK_EXIT:
            raise SetupError(f"solve exited {proc.returncode}: {proc.stderr.strip()}")
        if self.inject == "psi":
            gates.shift_psi(Path(RUN))
        self.values, self.source_failures, _ = gates.certify(Path(RUN))
        self.reference = (Path(RUN) / "multimap.json").read_bytes()
        return seconds

    def setup(self) -> None:
        failures = self.op(-1)
        if failures:
            raise SetupError(f"warm-up re-analysis failed: {failures}")

    def op(self, k: int) -> list:
        failures = []
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("extract", "diagnose", "report"):
                code = cli.main([command, "--run", RUN])
                if code not in OK_EXIT:
                    failures.append(f"{command}_exit_code_{code}")
        return failures

    def after_op(self, record: OpRecord) -> None:
        _check(self, record)

    def finish(self) -> None:
        pass

    def check(self, record: OpRecord) -> None:
        path = Path(RUN) / "multimap.json"
        if self.inject == "multimap":
            gates.flip_byte(path)
        if path.read_bytes() != self.reference:
            record.failures.append("multimap_changed")
        record.failures += self.source_failures
        record.values = self.values
        _inspect_run_dir(record, Path(RUN))


def _check(bench, record: OpRecord) -> None:
    try:
        bench.check(record)
    except Exception:  # a gate that cannot read the outputs fails the op
        traceback.print_exc()
        record.failures.append("gate_raised")


def _tail(samples: list):
    """Highest whole percentile with at least ten samples above it, or None."""
    pct = math.floor(100.0 * (1.0 - 10.0 / len(samples)))
    if pct <= 50:
        return None
    return {"pct": pct, "value": statistics.quantiles(samples, n=100)[pct - 1]}


def _blas_threads():
    """Thread count of the loaded OpenBLAS, asked through its C API."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    with open("/proc/meminfo") as fh:
        mem_total = next(line.split()[1] for line in fh if line.startswith("MemTotal:"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sphere_ot").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_kb": int(mem_total),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sphere_ot": sphere_ot.__version__,
        "blas": blas.get("openblas configuration", blas.get("name")),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "platform": platform.platform(),
    }


def _layer_metrics(tracer: Tracer, records: list, workload: Workload) -> dict:
    """Median over the traced ops of every per-layer metric."""
    traced = [r for r in records if r.traced]
    per_op = []
    for r in traced:
        values = tracer.op_metrics(r.op)
        values["pipeline.artifact_bytes"] = r.artifact_bytes
        values["pipeline.checks_failed"] = r.checks_failed
        if workload.solver == "entropic":
            values["solver.entropic_gap"] = r.values.get("gap", 0.0)
        per_op.append(values)
    metrics = {name: statistics.median(v.get(name, 0.0) for v in per_op) for name in PER_LAYER}
    traced_s = statistics.median(r.seconds for r in traced)
    metrics["trace.op_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - statistics.median(
        r.seconds for r in records if not r.traced
    )
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="sphere-ot benchmark (see README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep starting ops until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate plain and traced ops, report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="measure on the small warm-up mesh (self-test)")
    parser.add_argument("--inject", choices=("psi", "multimap"), default=None,
                        help="self-test: shift psi by +1, or change one byte of multimap.json")
    args = parser.parse_args(argv)
    if args.inject == "multimap" and not WORKLOADS[args.workload].reanalyse:
        parser.error("--inject multimap applies to the reanalyse workload")
    return args


def run(args, workload: Workload, import_s: float) -> int:
    mesh = workload.small if args.smoke else workload.mesh
    bench_cls = ReanalyseBench if workload.reanalyse else SolveBench
    bench = bench_cls(workload, args.seed, mesh, args.inject)
    once_s = bench.setup_once()
    repeat_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        bench.setup()
        repeat_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(repeat_s) + once_s

    tracer = None
    if args.trace:
        tracer = Tracer({"pipeline": pipeline, "cli": cli, "measures": measures,
                         "solver": solver, "maps": maps, "regularity": regularity})
    records = []
    loop_start = time.perf_counter()
    while (not records or time.perf_counter() - loop_start < args.seconds
           or (tracer and len(records) < 2)):
        k = len(records)
        traced = tracer is not None and k % 2 == 1
        with tracer.op(k) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                failures = bench.op(k)
            except Exception:  # the op raised: count it as failed and go on
                traceback.print_exc()
                failures = ["op_raised"]
            seconds = time.perf_counter() - start
        if k == 0:  # what one `sphere-ot solve` process needs, whatever the op count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records.append(OpRecord(k, traced, seconds, failures))
        bench.after_op(records[-1])
    bench.finish()

    plain_s = [r.seconds for r in records if not r.traced]
    failed = [r for r in records if r.failures]
    spans_path = None
    if tracer is None:
        metrics = {"op_s": statistics.median(plain_s), "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    else:
        metrics = _layer_metrics(tracer, records, workload)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-s{args.seed}.json"
        tracer.write(spans_path)
    record = {
        "workload": workload.name,
        "op_metric": "reanalyse_s" if workload.reanalyse else "solve_s",
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "mesh": mesh,
        "machine": machine(),
        "op_s": {"median": statistics.median(plain_s), "samples": len(plain_s),
                 "tail": _tail(plain_s), "all": plain_s},
        "setup": {"import_s": import_s, "repeat_s": repeat_s, "once_s": once_s},
        "gates": records[0].values,
        "failures": collections.Counter(name for r in failed for name in r.failures),
        "digests": sorted({r.digest for r in records}),
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(start: float, argv=None) -> int:
    args = parse_args(argv)
    import_s = time.perf_counter() - start
    package = Path(sphere_ot.__file__).resolve().parent
    if package != (ROOT / "src" / "sphere_ot").resolve():
        print(f"perfbench: imported sphere_ot from {package}, not from this checkout",
              file=sys.stderr)
        return 1
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)  # relative artifact paths keep config.json and the digests stable
    try:
        return run(args, WORKLOADS[args.workload], import_s)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
