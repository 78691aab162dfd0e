import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_measure, warp
from sphere_ot import cli
from sphere_ot import measures as measures_mod
from sphere_ot import pipeline as pipe
from sphere_ot import solver as solver_mod
from sphere_ot.errors import ConfigError, SolverError

SRC = Path(__file__).resolve().parents[1] / "src"


class TestRunPipeline:
    def test_uniform_identity(self, tmp_path):
        config = pipe.RunConfig(n=2, mesh_count=150, seed=0, output_dir=tmp_path / "run")
        result = pipe.run_pipeline(config, "uniform", "uniform")
        assert result.exit_code == 0
        assert result.summary["total_cost"] <= 1e-10
        assert result.summary["source_regions"] == {"S0": 0, "S1": 150, "S2": 0}
        # diagonal coupling
        rows = []
        with open(tmp_path / "run" / "coupling.csv") as fh:
            next(fh)
            for line in fh:
                i, j, _ = line.split(",")
                rows.append((int(i), int(j)))
        assert all(i == j for i, j in rows)
        for name in (
            "config.json", "mu.json", "nu.json", "coupling.csv", "duals.json",
            "multimap.json", "inverse.json", "regions.json", "holder_reports.json",
            "constants.json", "beta_values.csv", "checks.json", "summary.json",
        ):
            assert (tmp_path / "run" / name).exists()

    def test_bivalent_instance_reported(self, tmp_path):
        config = pipe.RunConfig(n=2, mesh_count=220, seed=0, output_dir=tmp_path / "biv")
        result = pipe.run_pipeline(config, "cap:0.98", "uniform")
        assert result.summary["source_regions"]["S2"] > 0
        assert result.summary["bivalent_fraction"] > 0
        with open(tmp_path / "biv" / "regions.json") as fh:
            regions = json.load(fh)
        assert regions["source_regions"]["S2"] > 0
        assert regions["nu_rest_mass"] > 0

    def test_entropic_pipeline(self, tmp_path):
        config = pipe.RunConfig(
            n=2, mesh_count=80, seed=1, solver="entropic", reg=0.01,
            output_dir=tmp_path / "ent",
        )
        result = pipe.run_pipeline(config, "uniform", "uniform")
        assert result.exit_code == 0
        assert result.summary["source_regions"]["S1"] == 80

    def test_shifted_duals_fail_duality_gap(self, tmp_path, monkeypatch):
        real = solver_mod.solve_exact

        def shifted(mu, nu):
            coupling, duals = real(mu, nu)
            return coupling, solver_mod.DualPotentials(duals.psi + 1.0, duals.phi)

        monkeypatch.setattr(solver_mod, "solve_exact", shifted)
        config = pipe.RunConfig(n=2, mesh_count=80, seed=0, output_dir=tmp_path / "run")
        result = pipe.run_pipeline(config, "uniform", "uniform")
        assert result.exit_code == pipe.EXIT_INVARIANT
        assert "duality_gap" in result.summary["checks_failed"]

    def test_infeasible_duals_fail_dual_feasibility(self, tmp_path, monkeypatch):
        # raising phi_0 by eps and lowering psi_1 by eps * b_0 / a_1 keeps the
        # dual value, so duality_gap passes; pair (0, 0) of the identity plan
        # then has psi_0 + phi_0 eps above its cost
        real, eps = solver_mod.solve_exact, 1e-3

        def infeasible(mu, nu):
            coupling, duals = real(mu, nu)
            psi, phi = duals.psi.copy(), duals.phi.copy()
            phi[0] += eps
            psi[1] -= eps * nu.weights[0] / mu.weights[1]
            return coupling, solver_mod.DualPotentials(psi, phi)

        monkeypatch.setattr(solver_mod, "solve_exact", infeasible)
        config = pipe.RunConfig(n=2, mesh_count=80, seed=0, output_dir=tmp_path / "run")
        result = pipe.run_pipeline(config, "uniform", "uniform")
        assert result.exit_code == pipe.EXIT_INVARIANT
        checks = {c.name: c for c in result.checks}
        assert checks["duality_gap"].passed
        assert checks["dual_feasibility"].value == pytest.approx(eps)
        assert checks["complementary_slackness"].value == pytest.approx(eps)
        # an exact run's cyclic line is the certificate's bound 2f + 2s, so it fails with them
        assert checks["cyclical_monotonicity"].value == pytest.approx(4 * eps)
        assert result.summary["checks_failed"] == [
            "dual_feasibility", "complementary_slackness", "cyclical_monotonicity"]

    def test_extraction_support(self):
        coupling = solver_mod.Coupling(
            np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([1.0, 1e-9, 0.5]), 0.7
        )
        assert pipe.extraction_support(coupling, "exact") is coupling
        out = pipe.extraction_support(coupling, "entropic")
        assert set(zip(out.rows.tolist(), out.cols.tolist())) == {(0, 0), (1, 1)}
        assert out.mass.tolist() == [1.0, 0.5]
        assert out.total_cost == 0.7  # the uncut plan's cost

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            pipe.RunConfig(n=2, mesh_count=3, output_dir=tmp_path).validate()
        with pytest.raises(ConfigError):
            pipe.RunConfig(solver="magic", output_dir=tmp_path).validate()

    def test_unknown_density(self):
        with pytest.raises(ConfigError):
            pipe.builtin_density("blob:0.5", 2)
        with pytest.raises(ConfigError):
            pipe.builtin_density("cap:2.0", 2)
        with pytest.raises(ConfigError):
            pipe.builtin_density("cap:x", 2)

    def test_measure_file_spec(self, tmp_path):
        from sphere_ot import measures as me

        mesh = me.quasi_uniform_mesh(2, 60, 3)
        m = me.sample_density(lambda p: 1.0, mesh)
        path = tmp_path / "m.json"
        me.save_measure(m, path)
        config = pipe.RunConfig(n=2, mesh_count=60, seed=3, output_dir=tmp_path / "r")
        result = pipe.run_pipeline(config, str(path), "uniform")
        assert result.exit_code == 0

    def test_file_run_ignores_mesh_and_seed(self, tmp_path):
        # the scales come from the files' points: at mesh_count 200 the
        # spacing was the 200-point mesh's, not the 60-atom files'
        specs = []
        for density in ("cap:0.98", "uniform"):
            specs.append(str(tmp_path / f"{density}.json"))
            assert cli.main(["gen", "--mesh", "60", "--density", density, "--out", specs[-1]]) == 0
        runs = {"builtin": (60, 0, ("cap:0.98", "uniform"))}
        runs.update({f"files-{count}-{seed}": (count, seed, specs)
                     for count in (60, 200) for seed in (0, 7)})
        written = {}
        for tag, (count, seed, pair) in runs.items():
            config = pipe.RunConfig(n=2, mesh_count=count, seed=seed, output_dir=tmp_path / tag)
            pipe.run_pipeline(config, *pair)
            written[tag] = {path.name: path.read_bytes() for path in (tmp_path / tag).iterdir()
                            if path.name != "config.json"}
        assert len(written["builtin"]) == 12
        for tag, files in written.items():
            assert files == written["builtin"], tag

    def test_file_on_another_sphere(self, tmp_path):
        from sphere_ot import measures as me

        path = tmp_path / "s1.json"
        me.save_measure(me.sample_density(lambda p: 1.0, me.quasi_uniform_mesh(1, 60, 0)), path)
        with pytest.raises(ConfigError, match=r"a measure on S\^1, but the run is on S\^2"):
            pipe.resolve_measure(str(path), 2)

    def test_bivalent_signs_counts_sign_anomalies(self, tmp_path):
        # this run has one univalent anomaly and no sign anomaly; the check's
        # value counted both kinds
        run = tmp_path / "r"
        config = pipe.RunConfig(n=2, mesh_count=200, seed=0, output_dir=run)
        pipe.run_pipeline(config, "uniform", "cap:0.98")
        anomalies = json.loads((run / "regions.json").read_text())["anomalies"]
        assert [a["kind"] for a in anomalies] == ["univalent negative alignment"]
        checks = {c["name"]: c for c in json.loads((run / "checks.json").read_text())}
        assert checks["bivalent_signs"]["value"] == 0.0 and checks["bivalent_signs"]["passed"]


def _bound_instance(spec, n, count, target_count):
    """(mu, nu): the density spec against uniform, on the mesh of count atoms
    and on that of target_count (seed 1) if it differs; spec "warp" is the
    mesh against its push-forward at equal weights, so the assignment path."""
    mesh = measures_mod.quasi_uniform_mesh(n, count, 0)
    if spec == "warp":
        return make_measure(mesh.points), make_measure(warp(mesh.points))
    target = mesh if target_count == count else measures_mod.quasi_uniform_mesh(n, target_count, 1)
    return pipe.resolve_measure(spec, n, mesh), pipe.resolve_measure("uniform", n, target)


def _checks(result):
    return {c.name: c for c in result.checks}


class TestCyclicBound:
    """An exact run's certificate lines are DualPotentials.certificate, its
    cyclical_monotonicity line 2 max(f, 0) + 2 s, the bound on every swap gain;
    an entropic run's is the direct check."""

    @pytest.mark.parametrize("instance", [
        ("cap:0.98", 1, 300, 300), ("cap:0.98", 2, 200, 200), ("band:0.5", 2, 500, 500),
        ("uniform", 2, 200, 200), ("cap:0.98", 3, 300, 300), ("warp", 2, 300, 300),
        ("cap:0.98", 2, 250, 500),
    ], ids=["s1-cap-300", "cap-200", "band-500", "uniform-200", "s3-cap-300", "warp-300",
            "cap-250-uniform-500"])
    def test_line_is_certificate_bound(self, tmp_path, instance):
        mu, nu = _bound_instance(*instance)
        coupling, duals = solver_mod.solve_exact(mu, nu)
        checks = _checks(pipe.analyse(mu, nu, coupling, duals, "exact", tmp_path))
        lines = [checks[name].value for name in (
            "duality_gap", "dual_feasibility", "complementary_slackness", "cyclical_monotonicity")]
        assert np.array(lines).tobytes() == np.array(duals.certificate(coupling, mu, nu)).tobytes()
        f, s = checks["dual_feasibility"].value, checks["complementary_slackness"].value
        line = checks["cyclical_monotonicity"]
        assert line.value == 2.0 * max(f, 0.0) + 2.0 * s and line.passed
        # both are rounded, so the bound may read an ulp or so below the direct value
        assert line.value >= solver_mod.cyclical_monotonicity_violation(coupling, mu, nu) - 1e-15

    def test_improving_swap_fails(self, tmp_path):
        mu, nu = _bound_instance("warp", 2, 300, 300)
        coupling, duals = solver_mod.solve_exact(mu, nu)
        # swap the targets of the entries of atom 0 and of the atom farthest from it
        far = int(np.argmax(np.linalg.norm(mu.points - mu.points[0], axis=1)))
        at = [int(np.flatnonzero(coupling.rows == i)[0]) for i in (0, far)]
        cols = coupling.cols.copy()
        cols[at] = cols[at[::-1]]
        swapped = solver_mod.Coupling(coupling.rows, cols, coupling.mass, coupling.total_cost)
        direct = solver_mod.cyclical_monotonicity_violation(swapped, mu, nu)
        assert direct > 1e-9
        result = pipe.analyse(mu, nu, swapped, duals, "exact", tmp_path)
        line = _checks(result)["cyclical_monotonicity"]
        assert not line.passed and line.value >= direct - 1e-15
        assert "cyclical_monotonicity" in result.summary["checks_failed"]

    def test_nan_duals_give_failing_null(self, tmp_path):
        mu, nu = _bound_instance("cap:0.98", 2, 200, 200)
        coupling, duals = solver_mod.solve_exact(mu, nu)
        duals.psi[0] = np.nan
        assert np.isnan(duals.certificate(coupling, mu, nu)[3])
        result = pipe.analyse(mu, nu, coupling, duals, "exact", tmp_path)
        assert not _checks(result)["cyclical_monotonicity"].passed
        assert "cyclical_monotonicity" in result.summary["checks_failed"]
        with open(tmp_path / "checks.json") as fh:
            line = {c["name"]: c for c in json.load(fh)}["cyclical_monotonicity"]
        assert line["value"] is None and not line["passed"]

    def test_entropic_line_is_direct_check(self, tmp_path):
        mesh = measures_mod.quasi_uniform_mesh(2, 120, 0)
        mu, nu = (pipe.resolve_measure(spec, 2, mesh) for spec in ("cap:0.98", "uniform"))
        coupling, duals = solver_mod.solve_entropic(mu, nu, reg=0.01)
        checks = _checks(pipe.analyse(mu, nu, coupling, duals, "entropic", tmp_path))
        support = pipe.extraction_support(coupling, "entropic")
        direct = solver_mod.cyclical_monotonicity_violation(support, mu, nu)
        assert checks["cyclical_monotonicity"].value == direct


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        out = []
        for tag in ("a", "b"):
            config = pipe.RunConfig(n=2, mesh_count=90, seed=5, output_dir=tmp_path / tag)
            pipe.run_pipeline(config, "cap:0.9", "uniform")
            pipe.export_report(tmp_path / tag, "json")
            pipe.export_report(tmp_path / tag, "csv")
            out.append(tmp_path / tag)
        for name in ("report.json", "report.csv", "coupling.csv", "checks.json",
                     "multimap.json", "summary.json"):
            assert (out[0] / name).read_bytes() == (out[1] / name).read_bytes(), name

    def test_json_csv_same_content(self, tmp_path):
        config = pipe.RunConfig(n=2, mesh_count=70, seed=2, output_dir=tmp_path / "r")
        pipe.run_pipeline(config, "uniform", "uniform")
        jpath = pipe.export_report(tmp_path / "r", "json")
        cpath = pipe.export_report(tmp_path / "r", "csv")
        with open(jpath) as fh:
            payload = json.load(fh)
        csv_rows = {}
        with open(cpath) as fh:
            next(fh)
            import csv as csv_mod

            for key, value in csv_mod.reader(fh):
                csv_rows[key] = value
        cost_key = "summary.total_cost"
        assert cost_key in csv_rows
        assert float(csv_rows[cost_key]) == payload["summary"]["total_cost"]
        spacing_key = "summary.mesh_spacing"
        assert float(csv_rows[spacing_key]) == payload["summary"]["mesh_spacing"]

    def test_json_artifacts_sorted_and_unindented(self, tmp_path, capsys):
        # every JSON file that solve, extract and report write is one
        # json.dumps(obj, sort_keys=True)
        run = tmp_path / "run"
        code = cli.main(["solve", "--mesh", "220", "--seed", "1", "--mu", "cap:0.98",
                         "--out", str(run)])
        assert cli.main(["extract", "--run", str(run)]) == code
        assert cli.main(["report", "--run", str(run)]) == 0
        paths = sorted(run.glob("*.json"))
        assert len(paths) == 12
        for path in paths:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True), path.name

    def test_missing_run_dir(self, tmp_path):
        with pytest.raises(OSError):
            pipe.export_report(tmp_path / "nope", "json")


class TestCLI:
    def test_solve_identity_exit_zero(self, tmp_path, capsys):
        code = cli.main([
            "solve", "--n", "2", "--mesh", "120", "--mu", "uniform", "--nu", "uniform",
            "--solver", "exact", "--out", str(tmp_path / "run"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "'S1': 120" in out

    def test_solve_bivalent_reports_s2(self, tmp_path, capsys):
        code = cli.main([
            "solve", "--n", "2", "--mesh", "220", "--mu", "cap:0.98", "--nu", "uniform",
            "--out", str(tmp_path / "biv"),
        ])
        out = capsys.readouterr().out
        assert code in (0, 2)  # coarse meshes may trip resolution-limited bounds
        summary = json.loads((tmp_path / "biv" / "summary.json").read_text())
        assert summary["source_regions"]["S2"] > 0

    def test_small_mesh_config_error(self, tmp_path, capsys):
        code = cli.main(["solve", "--mesh", "3", "--n", "2", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_gen_and_reuse(self, tmp_path, capsys):
        mpath = tmp_path / "cap.json"
        assert cli.main([
            "gen", "--n", "2", "--mesh", "80", "--density", "cap:0.9", "--out", str(mpath)
        ]) == 0
        assert mpath.exists()
        code = cli.main([
            "solve", "--n", "2", "--mesh", "80", "--mu", str(mpath), "--nu", "uniform",
            "--out", str(tmp_path / "run"),
        ])
        assert code in (0, 2)

    def test_extract_and_diagnose(self, tmp_path, capsys):
        code = cli.main([
            "solve", "--n", "2", "--mesh", "220", "--mu", "cap:0.98", "--nu", "uniform",
            "--out", str(tmp_path / "run"),
        ])
        assert cli.main(["extract", "--run", str(tmp_path / "run")]) == code
        assert cli.main(["diagnose", "--run", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "bivalent constants" in out

    def test_extract_rewrites_every_map_artifact(self, tmp_path, capsys):
        # every analysis artifact, with the check table and exit code of the
        # solve (2 here: outer_image_univalent fails at this mesh)
        run = tmp_path / "run"
        code = cli.main(["solve", "--mesh", "200", "--mu", "cap:0.98", "--out", str(run)])
        printed = capsys.readouterr()
        assert code == pipe.EXIT_INVARIANT
        names = ("multimap.json", "inverse.json", "regions.json", "holder_reports.json",
                 "constants.json", "beta_values.csv", "checks.json", "summary.json")
        written = {name: (run / name).read_bytes() for name in names}
        for name in names:
            (run / name).write_text("{}")
        assert cli.main(["extract", "--run", str(run)]) == code
        assert capsys.readouterr() == printed
        assert {name: (run / name).read_bytes() for name in names} == written

    def test_extract_with_shifted_duals_fails_the_certificate(self, tmp_path, capsys):
        # psi + 1 in duals.json: the plan is unchanged, its duals no longer certify it
        run = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "60", "--out", str(run)]) == 0
        raw = json.loads((run / "duals.json").read_text())
        raw["psi"] = [v + 1.0 for v in raw["psi"]]
        (run / "duals.json").write_text(json.dumps(raw))
        assert cli.main(["extract", "--run", str(run)]) == pipe.EXIT_INVARIANT
        failed = {c["name"] for c in json.loads((run / "checks.json").read_text())
                  if not c["passed"]}
        assert {"duality_gap", "dual_feasibility"} <= failed
        summary = json.loads((run / "summary.json").read_text())
        assert {"duality_gap", "dual_feasibility"} <= set(summary["checks_failed"])
        assert "invariant violations: duality_gap, dual_feasibility" in capsys.readouterr().err

    def test_diagnose_agrees_with_run(self, tmp_path, capsys):
        # diagnose fits at the run's scale window; at a window of its own it
        # printed an interior-S1 exponent of 0.6344 here against 0.8846
        run = tmp_path / "run"
        cli.main(["solve", "--mesh", "220", "--seed", "1", "--mu", "cap:0.98", "--out", str(run)])
        capsys.readouterr()
        assert cli.main(["diagnose", "--run", str(run)]) == 0
        out = capsys.readouterr().out.splitlines()
        fits = json.loads((run / "holder_reports.json").read_text())
        assert set(fits) == {"outer_on_S1_interior", "outer_on_S2", "inner_on_S2"}
        for name, rep in fits.items():
            assert (f"{name}: alpha={rep['alpha_hat']:.4f} (C={rep['C_hat']:.3f}, "
                    f"pairs={rep['pair_count']})") in out
        saved = json.loads((run / "constants.json").read_text())
        constants = saved["constants"]
        assert (f"bivalent constants: k={constants['k_U']:.4f} C+={constants['C_plus']:.4f} "
                f"C-(statement)={constants['C_minus_statement']:.4f} "
                f"C-(proof)={constants['C_minus_proof']:.4f} "
                f"bound ratio={saved['inner_bound_ratio']:.4f}") in out

    @pytest.mark.parametrize("solve", [
        ["--mesh", "220", "--seed", "1", "--mu", "cap:0.98"],
        ["--mesh", "80", "--seed", "1", "--mu", "cap:0.98", "--solver", "entropic"],
    ], ids=["exact", "entropic"])
    def test_reanalysis_reads_no_summary(self, tmp_path, capsys, solve):
        # the scales come from mu.json and nu.json (pipeline.run_scales), so a
        # run directory without summary.json is re-analysed as it was solved
        run = tmp_path / "run"
        codes = {"extract": cli.main(["solve", *solve, "--out", str(run)]), "diagnose": 0}
        names = ("multimap.json", "inverse.json", "regions.json")
        written = {name: (run / name).read_bytes() for name in names}
        capsys.readouterr()
        printed = {}
        for command in ("extract", "diagnose"):
            assert cli.main([command, "--run", str(run)]) == codes[command]
            printed[command] = capsys.readouterr().out
        (run / "summary.json").unlink()
        for name in names:
            (run / name).write_text("{}")
        for command in ("extract", "diagnose"):
            assert cli.main([command, "--run", str(run)]) == codes[command]
            assert capsys.readouterr().out == printed[command]
        assert {name: (run / name).read_bytes() for name in names} == written

    def test_failed_analysis_keeps_the_plan(self, tmp_path, capsys):
        # on S^3 at 1000 x 1000 atoms the inverse extraction raises after the
        # solve; the run's inputs and plan are written before any check, so
        # extract re-raises the same error from them. The run goes into the
        # directory of a whole S^2 run, of which it keeps no file
        mu, nu = str(tmp_path / "mu.json"), str(tmp_path / "nu.json")
        for path, seed, density in ((mu, "0", "cap:0.98"), (nu, "1", "uniform")):
            assert cli.main(["gen", "--n", "3", "--mesh", "1000", "--seed", seed,
                             "--density", density, "--out", path]) == 0
        run = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "60", "--out", str(run)]) == 0
        capsys.readouterr()
        code = cli.main(["solve", "--n", "3", "--mu", mu, "--nu", nu, "--out", str(run)])
        assert code == pipe.EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "has 3 image clusters" in err
        assert sorted(path.name for path in run.iterdir()) == [
            "config.json", "coupling.csv", "duals.json", "mu.json", "nu.json"]
        assert all(path.stat().st_size > 0 for path in run.iterdir())
        assert json.loads((run / "config.json").read_text())["n"] == 3
        assert cli.main(["extract", "--run", str(run)]) == pipe.EXIT_INVARIANT
        assert capsys.readouterr().err == err
        # diagnose prints the record, and this run recorded no fits
        assert cli.main(["diagnose", "--run", str(run)]) == pipe.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("I/O failure:") and "holder_reports.json" in err
        assert "Traceback" not in err

    def test_rerun_leaves_no_stale_artifacts(self, tmp_path, capsys, monkeypatch):
        # a solve deletes every file of an earlier run and writes the run's
        # inputs before it solves; measure specs pointing into the directory
        # are read first
        run = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "60", "--out", str(run)]) == 0
        written = {path.name: path.read_bytes() for path in run.iterdir()}
        assert cli.main(["report", "--run", str(run), "--format", "csv"]) == 0
        assert cli.main(["solve", "--mesh", "60", "--mu", str(run / "mu.json"),
                         "--nu", str(run / "nu.json"), "--out", str(run)]) == 0
        assert {path.name: path.read_bytes() for path in run.iterdir()} == written

        def fail(mu, nu):
            raise SolverError("no optimum")

        monkeypatch.setattr(solver_mod, "solve_exact", fail)
        capsys.readouterr()
        code = cli.main(["solve", "--n", "1", "--mesh", "60", "--out", str(run)])
        assert code == pipe.EXIT_SOLVER
        assert capsys.readouterr().err == "solver failure: no optimum\n"
        assert sorted(path.name for path in run.iterdir()) == ["config.json", "mu.json", "nu.json"]
        assert json.loads((run / "config.json").read_text())["n"] == 1
        assert cli.main(["report", "--run", str(run)]) == 0
        assert json.loads((run / "report.json").read_text()) == {}

    def test_unwritable_output_is_io_failure(self, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("")
        assert cli.main(["solve", "--mesh", "60", "--out", str(out)]) == pipe.EXIT_IO
        assert f"output directory {out} is not writable" in capsys.readouterr().err

    def test_diagnose_with_too_little_data(self, tmp_path, capsys):
        run = str(tmp_path / "tiny")
        assert cli.main(["solve", "--n", "2", "--mesh", "10", "--seed", "0",
                         "--mu", "uniform", "--nu", "uniform", "--out", run]) == 0
        capsys.readouterr()
        assert cli.main(["diagnose", "--run", run]) == 0
        assert "outer_on_S1_interior: skipped (not recorded)" in capsys.readouterr().out

    @pytest.mark.parametrize("mesh, seed", [(80, 1), (60, 0)])
    def test_entropic_extract_reads_pipeline_support(self, tmp_path, capsys, mesh, seed):
        run = tmp_path / "ent"
        code = cli.main([
            "solve", "--n", "2", "--mesh", str(mesh), "--seed", str(seed), "--mu", "cap:0.98",
            "--nu", "uniform", "--solver", "entropic", "--out", str(run),
        ])
        written = (run / "multimap.json").read_bytes()
        assert cli.main(["extract", "--run", str(run)]) == code
        assert (run / "multimap.json").read_bytes() == written

    def test_entropic_s3_light_clusters(self, tmp_path, capsys):
        # this support on S^3 holds image clusters lighter than 1e-8
        assert cli.main([
            "solve", "--n", "3", "--mesh", "150", "--mu", "cap:0.98", "--nu", "uniform",
            "--solver", "entropic", "--out", str(tmp_path / "s3"),
        ]) == 0

    @pytest.mark.parametrize("argv", [
        ["mtw", "--n", "2"], ["bogus"], ["solve", "--mesh", "abc"], ["report"], ["--help"],
    ])
    def test_usage_error_is_configuration_error(self, capsys, argv):
        # argparse's usage errors exit 1 with its message; --help exits 0
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if argv == ["--help"]:
            assert code == pipe.EXIT_OK and out.startswith("usage: sphere-ot") and err == ""
        else:
            assert code == pipe.EXIT_CONFIG and "sphere-ot" in err and "error:" in err

    def test_one_parser_per_process(self, capsys, monkeypatch):
        # build_parser runs once per process: every main call parses with its parser
        parsers, parse = [], argparse.ArgumentParser.parse_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            lambda self, argv: parsers.append(self) or parse(self, argv))
        assert cli.main(["report"]) == cli.main(["bogus"]) == pipe.EXIT_CONFIG
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    @pytest.mark.parametrize("argv", [
        ["solve", "--seed", "-1", "--mesh", "60"],
        ["solve", "--n", "1", "--seed", "-1", "--mesh", "60"],
        ["gen", "--seed", "-3"],
        ["gen", "--n", "-1"],
        ["solve", "--mu", "cap:1.5", "--mesh", "60"],
        ["solve", "--solver", "entropic", "--reg", "0", "--mesh", "60"],
        ["solve", "--n", "0", "--mesh", "60"],
        # a measure file on S^2 for a run on another sphere
        ["solve", "--n", "1", "--mu", "S2_FILE", "--nu", "S2_FILE"],
        ["solve", "--n", "3", "--mu", "S2_FILE", "--nu", "uniform"],
        # a measure file one of whose atoms weighs zero, or less than the
        # plan's support cut solver.SUPPORT_EPS = 1e-15
        ["solve", "--mu", "uniform", "--nu", "LIGHT_FILE:0.0"],
        ["solve", "--mu", "uniform", "--nu", "LIGHT_FILE:1e-16"],
    ])
    def test_configuration_error(self, tmp_path, capsys, argv):
        s2_file, light_file = str(tmp_path / "s2.json"), tmp_path / "light.json"
        if "S2_FILE" in argv:
            assert cli.main(["gen", "--n", "2", "--mesh", "60", "--out", s2_file]) == 0
            capsys.readouterr()
            argv = [s2_file if a == "S2_FILE" else a for a in argv]
        light = [float(a.partition(":")[2]) for a in argv if a.startswith("LIGHT_FILE:")]
        if light:
            assert cli.main(["gen", "--mesh", "60", "--out", str(light_file)]) == 0
            capsys.readouterr()
            data = json.loads(light_file.read_text())
            data["atoms"][0]["w"] += data["atoms"][2]["w"] - light[0]
            data["atoms"][2]["w"] = light[0]
            light_file.write_text(json.dumps(data))
            argv = [str(light_file) if a.startswith("LIGHT_FILE:") else a for a in argv]
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == pipe.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert s2_file in err or s2_file not in argv
        for weight in light:
            assert f"{light_file}: atom 2 has weight {weight:g}, not above the plan's cut" in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_with_two_files(self, tmp_path, capsys):
        # no mesh is built for two files, and the seed is still checked
        path = str(tmp_path / "m.json")
        assert cli.main(["gen", "--mesh", "60", "--out", path]) == 0
        capsys.readouterr()
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--seed", "-1", "--mu", path, "--nu", path, "--out", out]) == 1
        assert capsys.readouterr().err == "configuration error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_error_exit_of_the_process(self, tmp_path):
        # the module run as a script exits with main()'s code and prints
        # the message alone, with no traceback
        out = tmp_path / "out"
        done = subprocess.run([sys.executable, "-m", "sphere_ot.cli", "solve", "--seed", "-1",
                               "--mesh", "60", "--out", str(out)], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
        assert done.returncode == pipe.EXIT_CONFIG
        assert done.stderr.startswith("configuration error:")
        assert "Traceback" not in done.stderr
        assert not out.exists()

    def test_report_subcommand(self, tmp_path, capsys):
        cli.main(["solve", "--n", "2", "--mesh", "60", "--out", str(tmp_path / "run")])
        assert cli.main(["report", "--run", str(tmp_path / "run"),
                         "--format", "csv"]) == 0
        assert (tmp_path / "run" / "report.csv").exists()

    def test_malformed_coupling_file_is_solver_failure(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "60", "--out", str(run)]) == 0
        lines = (run / "coupling.csv").read_text().count("\n")
        with open(run / "coupling.csv", "a") as fh:
            fh.write("3,oops\n")
        capsys.readouterr()
        assert cli.main(["extract", "--run", str(run)]) == 3
        assert f"coupling.csv: line {lines + 1}:" in capsys.readouterr().err
        (run / "coupling.csv").write_text("")
        assert cli.main(["extract", "--run", str(run)]) == 3
        assert "coupling.csv: line 0:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"n": 2, "atoms": [', '{"atoms": []}',
                                      '{"n": 2, "atoms": [{"p": [0, 0, 1], "w": 1}]}'])
    def test_malformed_measure_file_is_invariant_violation(self, tmp_path, capsys, text):
        run = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "60", "--out", str(run)]) == 0
        (run / "mu.json").write_text(text)
        capsys.readouterr()
        assert cli.main(["extract", "--run", str(run)]) == 2
        assert "mu.json: not a measure file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["extract"])
    def test_measures_on_different_spheres_is_invariant_violation(self, tmp_path, capsys,
                                                                  command):
        run = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "60", "--out", str(run)]) == 0
        assert cli.main(["gen", "--n", "1", "--mesh", "60", "--out", str(run / "nu.json")]) == 0
        written = (run / "multimap.json").read_bytes()
        capsys.readouterr()
        assert cli.main([command, "--run", str(run)]) == 2
        assert "nu.json: a measure on S^1, but mu.json is on S^2" in capsys.readouterr().err
        assert (run / "multimap.json").read_bytes() == written

    def test_nan_weight_rejected_before_solving(self, tmp_path, capsys):
        path = tmp_path / "mu.json"
        assert cli.main(["gen", "--mesh", "60", "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        data["atoms"][0]["w"] = float("nan")
        path.write_text(json.dumps(data))
        capsys.readouterr()
        code = cli.main(["solve", "--mesh", "60", "--mu", str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "weights must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("mass", ["-0.5", "nan"])
    def test_coupling_mass_not_positive_is_solver_failure(self, tmp_path, capsys, mass):
        run = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "60", "--out", str(run)]) == 0
        written = (run / "multimap.json").read_bytes()
        lines = (run / "coupling.csv").read_text().splitlines()
        lines[-1] = lines[-1].rpartition(",")[0] + "," + mass
        (run / "coupling.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["extract", "--run", str(run)]) == 3
        assert f"coupling.csv: line {len(lines)}:" in capsys.readouterr().err
        assert (run / "multimap.json").read_bytes() == written

    def test_extract_of_plan_off_its_marginals_fails_the_line(self, tmp_path, capsys):
        # masses scaled by 1 + 1e-4 break the marginals by about 1e-6: the
        # marginals line fails, and extract rewrites the whole record, exit 2
        run = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "100", "--out", str(run)]) == 0
        lines = (run / "coupling.csv").read_text().splitlines()
        scaled = [lines[0]] + [f"{i},{j},{float(m) * (1 + 1e-4)!r}"
                               for i, j, m in (line.split(",") for line in lines[1:])]
        (run / "coupling.csv").write_text("\n".join(scaled) + "\n")
        capsys.readouterr()
        assert cli.main(["extract", "--run", str(run)]) == pipe.EXIT_INVARIANT
        checks = {c["name"]: c for c in json.loads((run / "checks.json").read_text())}
        assert not checks["marginals"]["passed"] and 1e-7 < checks["marginals"]["value"] < 1e-5
        assert "marginals" in json.loads((run / "summary.json").read_text())["checks_failed"]
        assert "invariant violations: marginals" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["extract"])
    @pytest.mark.parametrize("name, edit", [
        ("config.json", lambda text: "{}"),
        ("duals.json", lambda text: text[:-1]),
        ("duals.json", lambda text: json.dumps({"phi": json.loads(text)["phi"]})),
    ], ids=["config-without-solver", "duals-not-json", "duals-without-psi"])
    def test_malformed_run_file_is_io_failure(self, tmp_path, capsys, command, name, edit):
        run = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "60", "--out", str(run)]) == 0
        (run / name).write_text(edit((run / name).read_text()))
        written = {path.name: path.read_bytes() for path in run.iterdir()}
        capsys.readouterr()
        assert cli.main([command, "--run", str(run)]) == 4
        assert f"{name}: malformed run file" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in run.iterdir()} == written

    @pytest.mark.parametrize("key, edit", [
        ("psi", lambda values: values[:-1]),
        ("phi", lambda values: values + [0.0]),
        ("psi", lambda values: [float("nan")] + values[1:]),
        ("phi", lambda values: values[:-1] + [float("inf")]),
    ], ids=["psi-short", "phi-long", "psi-nan", "phi-inf"])
    def test_bad_duals_are_solver_failure(self, tmp_path, capsys, key, edit):
        run = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "60", "--out", str(run)]) == 0
        raw = json.loads((run / "duals.json").read_text())
        raw[key] = edit(raw[key])
        (run / "duals.json").write_text(json.dumps(raw))
        written = {path.name: path.read_bytes() for path in run.iterdir()}
        capsys.readouterr()
        assert cli.main(["extract", "--run", str(run)]) == pipe.EXIT_SOLVER
        err = capsys.readouterr().err
        assert err == f"solver failure: {run / 'duals.json'}: {key} is not 60 finite numbers\n"
        assert {path.name: path.read_bytes() for path in run.iterdir()} == written

    @pytest.mark.parametrize("command, name, key, value", [
        ("extract", "config.json", "solver", "bogus"),
    ])
    def test_bad_run_value_is_io_failure(self, tmp_path, capsys, command, name, key, value):
        run = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "60", "--out", str(run)]) == 0
        written = (run / "multimap.json").read_bytes()
        data = json.loads((run / name).read_text())
        data[key] = value
        (run / name).write_text(json.dumps(data))
        capsys.readouterr()
        assert cli.main([command, "--run", str(run)]) == 4
        assert f"{name}: malformed run file: {key} is {value!r}" in capsys.readouterr().err
        assert (run / "multimap.json").read_bytes() == written

    @pytest.mark.parametrize("name", ["summary.json", "checks.json"])
    def test_report_malformed_run_file_is_io_failure(self, tmp_path, capsys, name):
        run = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "60", "--out", str(run)]) == 0
        (run / name).write_text('{"a":')
        capsys.readouterr()
        assert cli.main(["report", "--run", str(run)]) == 4
        assert f"{name}: malformed run file" in capsys.readouterr().err
        assert not (run / "report.json").exists()

    @pytest.mark.parametrize("reg", ["nan", "inf"])
    def test_non_finite_reg_is_config_error(self, tmp_path, capsys, reg):
        out = tmp_path / "run"
        assert cli.main(["solve", "--mesh", "60", "--solver", "entropic", "--reg", reg,
                         "--out", str(out)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_report_missing_dir(self, tmp_path, capsys):
        assert cli.main(["report", "--run", str(tmp_path / "ghost")]) == 4
