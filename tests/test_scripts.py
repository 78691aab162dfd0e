"""Smoke runs of the experiment scripts at small sizes."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from sphere_ot import maps, pipeline
from sphere_ot.errors import ExtractionError

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(tmp_path, monkeypatch, script, args) -> list:
    out = tmp_path / "rows.json"
    monkeypatch.setattr(sys, "argv", [script, *args, "--out", str(out)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    return json.loads(out.read_text())


def _run_study(tmp_path, monkeypatch, grid) -> list:
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    return _run_script(tmp_path, monkeypatch, "study.py", [str(path)])


def test_study_cap_row(tmp_path, monkeypatch):
    rows = _run_study(tmp_path, monkeypatch, {
        "n": 2, "meshes": [200], "seeds": [0],
        "instances": [{"mu": "cap:0.98", "nu": "uniform"}]})
    [row] = rows
    assert row["instance"] == {"mu": "cap:0.98", "nu": "uniform"}
    assert (row["mesh"], row["seed"]) == (200, 0)
    assert 0.0 < row["lambda_min"] <= row["lambda_max"] <= 2.0
    assert row["regions"]["S2"] > 0
    assert row["checks"]["collinearity"] <= 0.1
    assert row["checks"]["inner_bound"] == row["inner_bound_ratio"] <= 1.0
    assert row["constants"]["k_U"] > 0
    assert abs(row["checks"]["duality_gap"]) <= 1e-8
    assert row["checks"]["dual_feasibility"] <= 1e-8
    assert row["checks"]["complementary_slackness"] <= 1e-8
    assert row["exit_code"] == (2 if row["checks_failed"] else 0)
    assert len(list(tmp_path.glob("rows.runs/*/checks.json"))) == 1


def test_study_warp_row(tmp_path, monkeypatch):
    rows = _run_study(tmp_path, monkeypatch, {
        "n": 2, "meshes": [250], "seeds": [0], "instances": [{"warp": 0.35}]})
    [row] = rows
    fit = row["fits"]["outer_on_S1_interior"]
    assert 0.0 < fit["alpha_hat"] <= 1.5 and fit["C_hat"] > 0 and fit["pair_count"] > 0
    assert row["regions"] == {"S0": 0, "S1": 250, "S2": 0}
    assert row["lambda_min"] is None and row["constants"] is None
    assert (row["exit_code"], row["checks_failed"]) == (0, [])
    assert len(list(tmp_path.glob("rows.runs/*/checks.json"))) == 1


def test_study_records_a_run_that_raises(tmp_path, monkeypatch):
    # the first run raises: the cap run's extraction (patched here), or the
    # warp instance's mesh of 3 points before its measure files are
    # written. Its row carries the exit code and message of `sphere-ot
    # solve` and null elsewhere, and the second run is solved and tabulated
    # as usual
    real = maps.extract_multimap
    calls = []

    def first_raises(*args):
        calls.append(len(calls))
        if len(calls) == 1:
            raise ExtractionError("target atom 23 has 3 image clusters")
        return real(*args)

    cases = [
        ({"n": 2, "meshes": [200], "seeds": [0, 1],
          "instances": [{"mu": "cap:0.98", "nu": "uniform"}]}, pipeline.EXIT_INVARIANT,
         "invariant violation: target atom 23 has 3 image clusters", ((200, 0), (200, 1)), "S2"),
        ({"n": 2, "meshes": [3, 60], "seeds": [0], "instances": [{"warp": 0.35}]},
         pipeline.EXIT_CONFIG, "configuration error: need at least 4 mesh points on S^2, got 3",
         ((3, 0), (60, 0)), "S1"),
    ]
    for case, (grid, code, error, runs, region) in enumerate(cases):
        (tmp_path / str(case)).mkdir()
        with monkeypatch.context() as patch:
            if case == 0:
                patch.setattr(maps, "extract_multimap", first_raises)
            failed, solved = _run_study(tmp_path / str(case), patch, grid)
        assert set(failed) == set(solved)
        assert (failed["exit_code"], failed["error"]) == (code, error)
        assert tuple((row["mesh"], row["seed"]) for row in (failed, solved)) == runs
        head = {"instance", "mesh", "seed", "exit_code", "error"}
        assert all(failed[key] is None for key in set(failed) - head)
        assert solved["error"] is None and solved["regions"][region] > 0
    assert len(calls) == 2


@pytest.mark.parametrize("grid_file", sorted((SCRIPTS / "grids").glob("*.json")),
                         ids=lambda p: p.name)
def test_committed_grid_instances_are_known(grid_file):
    grid = json.loads(grid_file.read_text())
    assert set(grid) == {"n", "meshes", "seeds", "instances"}
    for instance in grid["instances"]:
        if set(instance) == {"warp"}:
            assert isinstance(instance["warp"], float)
            continue
        assert set(instance) == {"mu", "nu"}
        for spec in instance.values():
            assert Path(spec).exists() or callable(pipeline.builtin_density(spec, grid["n"]))


@pytest.mark.parametrize("edit, key", [
    (lambda g: g.pop("meshes"), "meshes"),
    (lambda g: g.update(seed=g.pop("seeds")), "seed"),
    (lambda g: g.update(solver="entropic"), "solver"),
])
def test_study_rejects_grid_keys(tmp_path, monkeypatch, edit, key):
    grid = {"n": 2, "meshes": [60], "seeds": [0], "instances": [{"warp": 0.35}]}
    edit(grid)
    with pytest.raises(SystemExit, match=f"'{key}'"):
        _run_study(tmp_path, monkeypatch, grid)
    assert not (tmp_path / "rows.runs").exists()

