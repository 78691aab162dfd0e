import json

import pytest

from sphere_ot import cli
from sphere_ot import pipeline as pipe
from sphere_ot import solver as solver_mod
from sphere_ot.errors import ConfigError


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
        m = me.uniform_measure(mesh)
        path = tmp_path / "m.json"
        me.save_measure(m, path)
        config = pipe.RunConfig(n=2, mesh_count=60, seed=3, output_dir=tmp_path / "r")
        result = pipe.run_pipeline(config, str(path), "uniform")
        assert result.exit_code == 0


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

    def test_missing_run_dir(self, tmp_path):
        with pytest.raises(OSError):
            pipe.export_report(tmp_path / "nope", "json")


class TestMTWSuite:
    def test_n2_suite_passes(self, tmp_path):
        result = pipe.run_mtw_suite(2, tmp_path / "mtw", samples=40, seed=0)
        assert result.exit_code == 0
        with open(tmp_path / "mtw" / "mtw_report.json") as fh:
            report = json.load(fh)
        assert report["twist"]["ratio"] == pytest.approx(2.0, abs=1e-10)
        assert report["cross_curvature"]["min"] > 0


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
        cli.main([
            "solve", "--n", "2", "--mesh", "220", "--mu", "cap:0.98", "--nu", "uniform",
            "--out", str(tmp_path / "run"),
        ])
        assert cli.main(["extract", "--run", str(tmp_path / "run")]) == 0
        assert cli.main(["diagnose", "--run", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "bivalent constants" in out

    def test_extract_rewrites_every_map_artifact(self, tmp_path, capsys):
        run = tmp_path / "run"
        cli.main(["solve", "--mesh", "200", "--mu", "cap:0.98", "--out", str(run)])
        names = ("multimap.json", "inverse.json", "regions.json")
        written = {name: (run / name).read_bytes() for name in names}
        for name in names:
            (run / name).write_text("{}")
        assert cli.main(["extract", "--run", str(run)]) == 0
        assert {name: (run / name).read_bytes() for name in names} == written

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

    def test_diagnose_with_too_little_data(self, tmp_path, capsys):
        run = str(tmp_path / "tiny")
        assert cli.main(["solve", "--n", "2", "--mesh", "10", "--seed", "0",
                         "--mu", "uniform", "--nu", "uniform", "--out", run]) == 0
        capsys.readouterr()
        assert cli.main(["diagnose", "--run", run]) == 0
        assert "outer_on_S1_interior: skipped (fewer than 2 pairs" in capsys.readouterr().out

    @pytest.mark.parametrize("mesh, seed", [(80, 1), (60, 0)])
    def test_entropic_extract_reads_pipeline_support(self, tmp_path, capsys, mesh, seed):
        run = tmp_path / "ent"
        cli.main([
            "solve", "--n", "2", "--mesh", str(mesh), "--seed", str(seed), "--mu", "cap:0.98",
            "--nu", "uniform", "--solver", "entropic", "--out", str(run),
        ])
        written = (run / "multimap.json").read_bytes()
        assert cli.main(["extract", "--run", str(run)]) == 0
        assert (run / "multimap.json").read_bytes() == written

    def test_entropic_s3_light_clusters(self, tmp_path, capsys):
        # this support on S^3 holds image clusters lighter than 1e-8
        assert cli.main([
            "solve", "--n", "3", "--mesh", "150", "--mu", "cap:0.98", "--nu", "uniform",
            "--solver", "entropic", "--out", str(tmp_path / "s3"),
        ]) == 0

    def test_mtw_subcommand(self, tmp_path, capsys):
        assert cli.main(["mtw", "--n", "2", "--samples", "30",
                         "--out", str(tmp_path / "mtw")]) == 0

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

    def test_report_missing_dir(self, tmp_path, capsys):
        assert cli.main(["report", "--run", str(tmp_path / "ghost")]) == 4
