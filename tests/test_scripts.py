"""Smoke runs of the experiment scripts at small sizes."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(tmp_path, monkeypatch, script, args) -> list:
    out = tmp_path / "rows.json"
    monkeypatch.setattr(sys, "argv", [script, *args, "--out", str(out)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    return json.loads(out.read_text())


@pytest.mark.parametrize("script, args, keys", [
    ("bivalent_study.py", ["--mesh", "200", "--kappas", "0.98"],
     {"lambda_min", "worst_collinearity", "bound_ratio", "exit_code", "checks_failed"}),
    ("holder_scaling.py", ["--sizes", "250"],
     {"alpha_hat", "C_hat", "exit_code", "checks_failed"}),
])
def test_script_writes_rows(tmp_path, monkeypatch, script, args, keys):
    rows = _run_script(tmp_path, monkeypatch, script, args)
    assert len(rows) == 1
    assert keys <= set(rows[0])
    # each row's run directory is kept beside the output
    assert len(list(tmp_path.glob("rows.runs/*/checks.json"))) == 1


def test_mtw_survey_writes_rows(tmp_path, monkeypatch):
    rows = _run_script(tmp_path, monkeypatch, "mtw_survey.py", ["--samples-per-dot", "2"])
    assert len(rows) == 15
    assert {"alignment", "det_mean", "curvature_min", "curvature_law"} <= set(rows[0])
