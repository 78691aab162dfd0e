"""Self-test of the benchmark on small meshes.

    python3 -m pytest perfbench -q

Every workload runs once traced and once untraced and must emit exactly the
metrics that BENCHMARK.json names, with their units, and pass its gates.
Injected faults (psi shifted by +1, one byte of multimap.json changed) must
turn every op into a failed op.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "0.5", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_gates_pass(workload, trace, key):
    record, res = result(bench("--workload", workload, "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1 + trace
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    assert len(record["digests"]) == 1, "artifacts differ between ops of one seed"


def test_solver_paths_seen_by_trace():
    paths = {}
    for workload in ("cap_lp", "warp_assign", "entropic_cap"):
        _, res = result(bench("--workload", workload, "--trace", "1"))
        m = res["metrics"]
        paths[workload] = (m["solver.path_lp_calls"]["value"],
                           m["solver.path_assignment_calls"]["value"],
                           m["solver.entropic_s"]["value"] > 0)
    assert paths == {"cap_lp": (1, 0, False), "warp_assign": (0, 1, False),
                     "entropic_cap": (0, 0, True)}


@pytest.mark.parametrize("workload, fault", [(w, "psi") for w in WORKLOADS]
                         + [("reanalyse", "multimap")])
def test_injected_fault_fails_every_op(workload, fault):
    record, res = result(bench("--workload", workload, "--inject", fault))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert record["failures"]


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
