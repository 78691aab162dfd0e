"""Smoke runs of the experiment scripts at small sizes."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, keys", [
    ("bivalent_study.py", ["--mesh", "200", "--kappas", "0.98"],
     {"lambda_min", "worst_collinearity", "bound_ratio"}),
    ("holder_scaling.py", ["--sizes", "250"], {"alpha_hat", "C_hat"}),
])
def test_script_writes_rows(tmp_path, monkeypatch, script, args, keys):
    out = tmp_path / "rows.json"
    monkeypatch.setattr(sys, "argv", [script, *args, "--out", str(out)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert keys <= set(rows[0])
