"""Scenario configs, the runner's artifact contract, and the CLI."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from otflow import config, costs, flow, runner, serialize
from otflow.cli import main as cli_main
from otflow.config import (ConfigError, ScenarioConfig,
                           bundled_scenario_names, load_scenario)
from otflow.errors import MetricDegenerate
from otflow.flow import STEP_COLUMNS, Schedule

SUMMARY_KEYS = {"sigma", "R2", "C_harnack", "eps", "max_mass_err",
                "max_alignment", "stationary_residual", "K_measured"}


def edit_field_header(path, edit):
    """Rewrite the header of the field file at path by ``edit(header)``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    edit(header)
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode() + payload)


class TestConfigParsing:
    def test_bundled_scenarios_parse(self):
        names = bundled_scenario_names()
        assert "disk_cosine_perturbed" in names
        for name in names:
            cfg = load_scenario(name)
            spec, grid = cfg.build_problem()
            assert grid.n_r == cfg.grid["n_r"]

    def test_unknown_top_level_key_rejected(self):
        raw = load_scenario("disk_uniform_stationary").to_dict()
        raw["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            ScenarioConfig.from_dict(raw)

    def test_unknown_nested_key_rejected(self):
        raw = load_scenario("disk_uniform_stationary").to_dict()
        raw["time"] = dict(raw["time"], dt=0.1)
        with pytest.raises(ConfigError, match="dt"):
            ScenarioConfig.from_dict(raw)

    def test_schema_version_checked(self):
        raw = load_scenario("disk_uniform_stationary").to_dict()
        raw["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            ScenarioConfig.from_dict(raw)

    def test_missing_section_rejected(self):
        raw = load_scenario("disk_uniform_stationary").to_dict()
        del raw["target"]
        with pytest.raises(ConfigError, match="target"):
            ScenarioConfig.from_dict(raw)

    def test_unknown_initial_kind_rejected(self):
        raw = load_scenario("disk_uniform_stationary").to_dict()
        raw["initial"] = {"kind": "zeros"}
        with pytest.raises(ConfigError, match="zeros"):
            ScenarioConfig.from_dict(raw)

    def test_overrides(self):
        cfg = load_scenario("disk_uniform_stationary")
        out = cfg.with_overrides(grid=(16, 32), seed=7, stop_tol=1e-3)
        assert out.grid == {"n_r": 16, "n_s": 32}
        assert out.seed == 7
        assert out.time["stop_tol"] == 1e-3
        assert cfg.grid["n_r"] == 64      # original untouched

    def test_empty_time_and_tolerances_build_the_default_schedule(self):
        raw = load_scenario("disk_uniform_stationary").to_dict()
        raw["time"], raw["tolerances"] = {}, {}
        assert ScenarioConfig.from_dict(raw).build_schedule() == Schedule()

    def test_every_schedule_key_reaches_the_schedule(self):
        names = {f.name for f in dataclasses.fields(Schedule)}
        assert config._TIME_KEYS == names
        raw = load_scenario("disk_uniform_stationary").to_dict()
        raw["time"] = {"stop_tol": 2e-8, "t_max": 3, "snapshot_dt": 0.5}
        sched = ScenarioConfig.from_dict(raw).build_schedule()
        assert sched == Schedule(stop_tol=2e-8, t_max=3.0, snapshot_dt=0.5)
        assert type(sched.t_max) is float

    @pytest.mark.parametrize("fit", [
        {}, {"window": None}, {"window": [0, 1.5]}, {"u_tail_trim": -3},
        {"u_tail_trim": 1.0, "min_samples": 8}])
    def test_well_formed_fit_accepted(self, fit):
        raw = load_scenario("disk_uniform_stationary").to_dict()
        raw["fit"] = fit
        assert ScenarioConfig.from_dict(raw).fit == fit

    @pytest.mark.parametrize("grid", [(2, 64), (16, 33), (16, 6)])
    def test_invalid_grid_override_rejected(self, grid):
        with pytest.raises(ConfigError, match="grid"):
            load_scenario("disk_uniform_stationary").with_overrides(grid=grid)

    def test_audit_only_scenario_refuses_to_run(self):
        cfg = load_scenario("peanut_source_audit")
        spec, grid = cfg.build_problem()
        with pytest.raises(ConfigError, match="audits only"):
            cfg.build_initial(spec, grid)


class TestFieldFiles:
    def test_round_trip(self, tmp_path, stationary_state):
        grid = stationary_state.grid
        path = tmp_path / "u.field"
        serialize.write_field(path, stationary_state.u, grid, 1.25, "u")
        header, data = serialize.read_field(path)
        assert header["t"] == 1.25
        assert header["grid"]["domain"]["kind"] == "disk"
        np.testing.assert_array_equal(data, stationary_state.u)

    def test_diagnostics_csv_round_trip(self, tmp_path, rng):
        rows = rng.normal(size=(7, len(STEP_COLUMNS)))
        path = tmp_path / "diag.csv"
        serialize.write_diagnostics_csv(path, rows)
        again = serialize.read_diagnostics_csv(path)
        np.testing.assert_array_equal(rows, again)
        assert open(path).readline().strip() == ",".join(STEP_COLUMNS)


class TestRunner:
    def test_stationary_scenario(self, tmp_path):
        cfg = load_scenario("disk_uniform_stationary").with_overrides(
            grid=(24, 48))
        result = runner.run_scenario(cfg, output_root=str(tmp_path))
        assert result.status == 0
        assert result.summary["sigma"] is None
        assert result.summary["stationary_residual"] <= 1e-8
        assert set(result.summary) == SUMMARY_KEYS
        out = result.outdir
        for fname in ("manifest.json", "diagnostics.csv", "summary.json",
                      "snap_0000_u.field"):
            assert os.path.exists(os.path.join(out, fname))
        assert os.path.exists(os.path.join(out, "audits", "convexity.json"))

    def test_mass_imbalance_exits_2(self, tmp_path):
        raw = load_scenario("disk_uniform_stationary").to_dict()
        raw["target_density"] = {"name": "uniform", "scale": 1.01}
        cfg = ScenarioConfig.from_dict(raw)
        result = runner.run_scenario(cfg, output_root=str(tmp_path))
        assert result.status == 2
        assert result.error["error"] == "MassImbalance"
        report = json.load(open(os.path.join(result.outdir, "error.json")))
        assert report["error"] == "MassImbalance"

    def test_projected_start_not_c_convex_exits_1_with_witness(self, tmp_path):
        # at 4x8 W(u0) is positive definite, but the boundary projection
        # leaves it indefinite at a node
        cfg = load_scenario("offset_disks_sqrt").with_overrides(grid=(4, 8))
        result = runner.run_scenario(cfg, output_root=str(tmp_path))
        assert result.status == 1
        report = json.load(open(os.path.join(result.outdir, "error.json")))
        assert report == result.error
        assert report["error"] == "NotCConvex"
        assert "after the boundary projection" in report["detail"]
        _, grid = cfg.build_problem()
        i, j = report["witness"]["node"]
        assert report["witness"]["x"] == grid.nodes[i, j].tolist()
        assert report["witness"]["min_eig_W"] < 0

    def test_lost_obliqueness_at_start_exits_1(self, tmp_path,
                                               quarter_turned_beta):
        cfg = load_scenario("disk_uniform_stationary").with_overrides(
            grid=(16, 32))
        result = runner.run_scenario(cfg, output_root=str(tmp_path))
        assert result.status == 1
        report = json.load(open(os.path.join(result.outdir, "error.json")))
        assert report == result.error
        assert report["error"] == "ObliquenessLost"

    def test_perturbed_run_with_audits(self, tmp_path):
        cfg = load_scenario("disk_cosine_perturbed").with_overrides(
            grid=(24, 48), stop_tol=1.5e-3)
        cfg.time = dict(cfg.time, t_max=6.0)
        cfg.fit = {"u_tail_trim": 1.0, "min_samples": 8}
        result = runner.run_scenario(cfg, output_root=str(tmp_path))
        assert result.status == 0
        assert result.summary["sigma"] is not None
        assert result.summary["eps"] is not None
        audits = os.path.join(result.outdir, "audits")
        assert os.path.exists(os.path.join(audits, "harnack.csv"))
        header = open(os.path.join(audits, "harnack.csv")).readline().strip()
        assert header == "t,node,F,dbetaF_direct,dbetaF_closed,term1,term2,term3"
        # trajectory reloads into a live object
        traj, manifest = serialize.load_trajectory(result.outdir)
        assert manifest["converged"]
        assert len(traj.snapshots) == len(manifest["snapshots"])
        state = traj.final_state()
        assert state.valid

    def test_determinism_bytes(self, tmp_path):
        cfg = load_scenario("disk_cosine_perturbed").with_overrides(
            grid=(16, 32), stop_tol=1e-15)
        cfg.time = dict(cfg.time, t_max=0.25)
        blobs = []
        for sub in ("a", "b"):
            res = runner.run_scenario(cfg, output_root=str(tmp_path / sub))
            blobs.append(open(os.path.join(res.outdir, "diagnostics.csv"),
                              "rb").read())
        assert blobs[0] == blobs[1]

    def test_replay_matches_original_summary(self, tmp_path):
        cfg = load_scenario("disk_cosine_perturbed").with_overrides(
            grid=(16, 32), stop_tol=2e-3)
        cfg.time = dict(cfg.time, t_max=4.0)
        res = runner.run_scenario(cfg, output_root=str(tmp_path))
        original = json.load(open(os.path.join(res.outdir, "summary.json")))
        replayed = runner.replay_diagnostics(res.outdir)
        for key in ("stationary_residual", "max_mass_err"):
            assert replayed[key] == pytest.approx(original[key], rel=1e-12)


    def test_shared_gap_series_writes_the_same_bytes(self, tmp_path):
        cfg = load_scenario("disk_cosine_perturbed").with_overrides(
            grid=(16, 32), stop_tol=2e-3)
        cfg.time = dict(cfg.time, t_max=4.0)
        res = runner.run_scenario(cfg, output_root=str(tmp_path / "run"))
        assert res.status == 0
        # the same post-pass with each reader building its own series
        traj, _ = serialize.load_trajectory(res.outdir)
        alone = tmp_path / "alone"
        os.makedirs(alone / "audits")
        serialize.write_json(str(alone / "summary.json"),
                             runner.build_summary(traj, cfg))
        runner.harnack_audit(traj, str(alone / "audits"))
        for name in ("summary.json", "audits/harnack.csv",
                     "audits/harnack_summary.json"):
            shared = open(os.path.join(res.outdir, name), "rb").read()
            assert shared == (alone / name).read_bytes(), name


class TestCLI:
    def run_cli(self, *argv):
        return cli_main(list(argv))

    def test_list(self, capsys):
        assert self.run_cli("list") == 0
        out = capsys.readouterr().out
        assert "disk_uniform_stationary" in out

    def test_run_and_audits(self, tmp_path, capsys):
        code = self.run_cli("run", "disk_cosine_perturbed", "--grid", "16x32",
                            "--stop-tol", "2e-3", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        outdir = payload["outdir"]
        assert set(payload["summary"]) == SUMMARY_KEYS
        assert self.run_cli("audit-km", outdir) == 0
        capsys.readouterr()
        assert self.run_cli("replay-diagnostics", outdir) == 0
        line = json.loads(capsys.readouterr().out)
        assert set(line) == SUMMARY_KEYS
        # first line of the km report is a valid record
        rec = json.loads(open(os.path.join(outdir, "audits", "km.jsonl"))
                         .readline())
        assert {"lhs", "rhs", "rel_error", "node"} <= set(rec)

    def test_run_validation_failure_exit_2(self, tmp_path, capsys):
        bad = load_scenario("disk_uniform_stationary").to_dict()
        bad["target_density"] = {"name": "uniform", "scale": 1.02}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = self.run_cli("run", str(path), "--out", str(tmp_path / "runs"))
        assert code == 2
        err = capsys.readouterr().err
        assert "MassImbalance" in err

    @pytest.mark.parametrize("section,value,match", [
        ("cost", {"name": "no_such_cost"}, "no_such_cost"),
        ("cost", {"name": "inner_product", "h_fd": -1.0}, "h_fd"),
        ("source", {"radius": 1.0}, "kind"),
        ("target", {"kind": "hexagon"}, "hexagon"),
        ("target_density", {"name": "gaussian"}, "gaussian"),
        ("source", {"kind": "blob", "radius": 1.0, "eps": 1.5}, "eps"),
        ("grid", {"n_r": 3, "n_s": 64}, "n_r"),
        ("grid", {"n_r": 16, "n_s": 33}, "n_s"),
        ("grid", {"n_r": 16, "n_s": 6}, "n_s"),
        ("grid", {"n_r": "16", "n_s": 32}, "n_r"),
        ("time", {"stop_tol": 1e-8, "c_stab": 0.3}, "c_stab"),
        ("tolerances", {"boundary_tol": 1e-11}, "boundary_tol"),
        ("cost", {"name": "inner_product", "newton_tol": 1e-11}, "newton_tol"),
        ("time", {"stop_tol": 1e-8, "t_max": "abc"}, "t_max"),
        ("time", {"stop_tol": 1e-8, "snapshot_dt": 0}, "snapshot_dt"),
        ("fit", {"window": 5}, "window"),
        ("fit", {"window": [0, "a"]}, "window"),
        ("fit", {"window": [0, 1, 2]}, "window"),
        ("fit", {"min_samples": "x"}, "min_samples"),
        ("fit", {"min_samples": True}, "min_samples"),
        ("fit", {"u_tail_trim": "abc"}, "u_tail_trim"),
        ("fit", {"window": [0, 10 ** 400]}, "window"),
        ("time", {"stop_tol": 1e-8, "t_max": 10 ** 400}, "t_max"),
        ("source", {"kind": "disk", "radius": 1.0, "center": [0, 0, 0]},
         "center"),
        ("source", {"kind": "disk", "radius": 1.0, "center": [0, "x"]},
         "center"),
        ("target_density", {"name": "cosine_bump", "k": "x"},
         "cosine_bump k"),
        ("target_density", {"name": "cosine_bump", "k": True},
         "cosine_bump k"),
        ("source", {"kind": "blob", "radius": 1.0, "eps": 0.2, "k": 2.5},
         "blob k"),
        ("seed", "abc", "seed"),
        ("seed", 1.5, "seed"),
        ("seed", True, "seed"),
        ("name", 7, "name"),
        ("output_dir", 5, "output_dir"),
        ("audits", {"harnack": "yes"}, "harnack"),
        ("time", {"stop_tol": 1e-8, "snapshot_dt": 1e-300}, "snapshot_dt"),
        # below flow.MIN_SNAPSHOT_DT a landing could skip super-steps
        ("time", {"snapshot_dt": 1e-9, "t_max": 5e-8}, "snapshot_dt"),
        ("time", {"snapshot_dt": 2e-9, "t_max": 1e-7}, "snapshot_dt"),
        ("time", {"snapshot_dt": 3e-9, "t_max": 1.5e-7}, "snapshot_dt"),
        # above that floor, 20,000 snapshots pass MAX_SNAPSHOTS
        ("time", {"t_max": 200.0, "snapshot_dt": 0.01}, "t_max"),
    ])
    def test_malformed_config_exit_2_with_error_json(self, tmp_path, capsys,
                                                     section, value, match):
        bad = load_scenario("disk_uniform_stationary").to_dict()
        bad[section] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = self.run_cli("run", str(path), "--out", str(tmp_path / "runs"))
        assert code == 2
        # under the config's stem when parsing fails, under its name when
        # building the problem does
        [path] = (tmp_path / "runs").glob("*/error.json")
        report = json.load(open(path))
        assert report["error"] == "ConfigError"
        assert match in report["detail"]
        assert json.loads(capsys.readouterr().err) == report

    @pytest.mark.parametrize("grid", ["2x64", "16x33"])
    def test_invalid_grid_override_exit_2_with_error_json(self, tmp_path, capsys,
                                                          grid):
        code = self.run_cli("run", "disk_uniform_stationary", "--grid", grid,
                            "--out", str(tmp_path))
        assert code == 2
        report = json.load(open(tmp_path / "disk_uniform_stationary" / "error.json"))
        assert report["error"] == "ConfigError" and "grid" in report["detail"]
        assert json.loads(capsys.readouterr().err) == report

    def test_unknown_scenario_exit_2(self, capsys):
        assert self.run_cli("run", "not_a_scenario") == 2
        assert "no bundled scenario" in capsys.readouterr().err

    def test_audit_convexity(self, capsys):
        assert self.run_cli("audit-convexity", "disk_uniform_stationary") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta"] == pytest.approx(1.0, rel=0.02)
        assert report["delta_star"] == pytest.approx(0.5, rel=0.02)

    def test_audit_convexity_out_writes_its_stdout(self, tmp_path, capsys):
        out = tmp_path / "audit"
        assert self.run_cli("audit-convexity", "disk_uniform_stationary",
                            "--out", str(out)) == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.load(open(out / "convexity.json")) == printed
        assert printed["bitwist_ok"] is True

    def test_config_that_is_not_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,')
        code = self.run_cli("run", str(path), "--out", str(tmp_path / "runs"))
        assert code == 2
        report = json.load(open(tmp_path / "runs" / "broken" / "error.json"))
        assert report["error"] == "ConfigError"
        assert "not valid JSON" in report["detail"]
        assert json.loads(capsys.readouterr().err) == report

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert self.run_cli("run", str(path), "--out", str(tmp_path)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioNotFound"
        assert str(path) in err["detail"]
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize("section", ["time", "fit", "audits"])
    def test_section_that_is_not_an_object_exit_2(self, tmp_path, capsys,
                                                  section):
        bad = load_scenario("disk_uniform_stationary").to_dict()
        bad[section] = [1, 2]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = self.run_cli("run", str(path), "--out", str(tmp_path / "runs"))
        assert code == 2
        report = json.load(open(tmp_path / "runs" / "bad" / "error.json"))
        assert report["error"] == "ConfigError"
        assert f"section '{section}' must be an object" in report["detail"]
        capsys.readouterr()

    @pytest.mark.parametrize("grid", ["16", "16x", "axb", "16x32x2"])
    def test_malformed_grid_flag_exit_2(self, capsys, grid):
        with pytest.raises(SystemExit) as exc:
            self.run_cli("run", "disk_uniform_stationary", "--grid", grid)
        assert exc.value.code == 2
        assert "grid must look like 64x128" in capsys.readouterr().err

    def test_run_directory_without_manifest_exit_1(self, tmp_path, capsys):
        outdir = tmp_path / "empty_run"
        outdir.mkdir()
        for command in ("replay-diagnostics", "audit-km", "audit-harnack"):
            assert self.run_cli(command, str(outdir)) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "OTFlowError"
            assert err["detail"] == f"missing manifest.json in {outdir}"

    def test_diagnostics_with_a_wrong_header_exit_1(self, tmp_path, capsys):
        code = self.run_cli("run", "disk_cosine_perturbed", "--grid", "16x32",
                            "--stop-tol", "5e-3", "--out", str(tmp_path))
        assert code == 0
        outdir = json.loads(capsys.readouterr().out)["outdir"]
        path = os.path.join(outdir, "diagnostics.csv")
        lines = open(path).read().splitlines()
        lines[0] = lines[0].replace("dt", "tau")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        for command in ("replay-diagnostics", "audit-km", "audit-harnack"):
            assert self.run_cli(command, outdir) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "OTFlowError"
            assert "unexpected diagnostics columns" in err["detail"]
            assert path in err["detail"]

    def test_bitwist_failure_exit_2_with_error_json(self, tmp_path, capsys):
        # the sqrt cost's |det C| is 1/s^4 with s = sqrt(1 + |x - y|^2):
        # about 6e-10 between disks 200 apart, under the 1e-8 margin
        bad = load_scenario("offset_disks_sqrt").to_dict()
        bad["target"] = {"kind": "disk", "radius": 0.5, "center": [200.0, 0.0]}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(bad))
        code = self.run_cli("run", str(path), "--out", str(tmp_path / "runs"))
        assert code == 2
        report = json.load(open(tmp_path / "runs" / "offset_disks_sqrt"
                                / "error.json"))
        assert report["error"] == "BitwistFailure"
        assert report["detail"].startswith("BitwistFailure: min |det cross")
        assert json.loads(capsys.readouterr().err) == report

    def test_audit_convexity_config_error_writes_error_json(self, tmp_path,
                                                            capsys):
        bad = load_scenario("disk_uniform_stationary").to_dict()
        bad["cost"] = {"name": "nope"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "audit"
        assert self.run_cli("audit-convexity", str(path), "--out", str(out)) == 2
        report = json.load(open(out / "error.json"))
        assert report["error"] == "ConfigError" and "nope" in report["detail"]
        assert json.loads(capsys.readouterr().err) == report

    @pytest.mark.parametrize("damage", ["truncated", "other_grid",
                                        "other_time"])
    def test_corrupt_snapshot_exit_1(self, tmp_path, capsys, damage):
        code = self.run_cli("run", "disk_cosine_perturbed", "--grid", "16x32",
                            "--stop-tol", "5e-3", "--out", str(tmp_path))
        assert code == 0
        outdir = json.loads(capsys.readouterr().out)["outdir"]
        victim = os.path.join(outdir, "snap_0003_u.field")
        if damage == "truncated":
            with open(victim, "r+b") as fh:
                fh.truncate(os.path.getsize(victim) - 8)
        elif damage == "other_grid":
            # a well-formed field whose header names another grid
            edit_field_header(victim, lambda h: h["grid"].update(n_r=17))
        else:
            # a header time 1e-6 off its manifest entry's
            edit_field_header(victim, lambda h: h.update(t=h["t"] + 1e-6))
        for command in ("replay-diagnostics", "audit-km", "audit-harnack"):
            assert self.run_cli(command, outdir) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "OTFlowError"
            assert "snap_0003_u.field" in err["detail"]

    @pytest.mark.parametrize("damage", ["truncated", "no_config", "no_snapshots",
                                        "no_converged", "empty_snapshots",
                                        "no_origin", "unsorted"])
    def test_corrupt_manifest_exit_1(self, tmp_path, capsys, damage):
        code = self.run_cli("run", "disk_cosine_perturbed", "--grid", "16x32",
                            "--stop-tol", "5e-3", "--out", str(tmp_path))
        assert code == 0
        outdir = json.loads(capsys.readouterr().out)["outdir"]
        path = os.path.join(outdir, "manifest.json")
        if damage == "truncated":
            text = '{"format": "otflow-traj'
        else:
            manifest = json.load(open(path))
            snapshots = manifest["snapshots"]
            if damage == "empty_snapshots":
                snapshots.clear()
            elif damage == "no_origin":         # the t = 0 entry dropped
                del snapshots[0]
            elif damage == "unsorted":
                snapshots.reverse()
            else:
                del manifest[damage[3:]]
            text = json.dumps(manifest)
        with open(path, "w") as fh:
            fh.write(text)
        assert self.run_cli("replay-diagnostics", outdir) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OTFlowError"
        assert "manifest.json" in err["detail"]

    def test_snapshot_within_time_tol_of_the_cadence_replays(self, tmp_path,
                                                             capsys):
        # 1.5e-9 off the 0.001 cadence: inside the gap series' cadence cut
        # (rtol 1e-6 plus TIME_TOL), so the series keeps it as on the cadence
        raw = load_scenario("disk_cosine_perturbed").with_overrides(
            grid=(16, 32)).to_dict()
        raw["time"] = dict(raw["time"], snapshot_dt=0.001, t_max=0.01)
        path = tmp_path / "short.json"
        path.write_text(json.dumps(raw))
        assert self.run_cli("run", str(path), "--out", str(tmp_path)) == 0
        outdir = json.loads(capsys.readouterr().out)["outdir"]
        manifest_path = os.path.join(outdir, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["snapshots"][3]["t"] = 0.0030000015
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        for name in ("snap_0003_u.field", "snap_0003_rate.field"):
            edit_field_header(os.path.join(outdir, name),
                              lambda h: h.update(t=0.0030000015))
        assert self.run_cli("replay-diagnostics", outdir) == 0
        assert self.run_cli("audit-harnack", outdir) == 0
        rows = open(os.path.join(outdir, "audits", "harnack.csv")).readlines()
        assert any(row.startswith("0.0030000015,") for row in rows)

    @pytest.mark.parametrize("damage", ["non_numeric", "short_row"])
    def test_corrupt_diagnostics_exit_1(self, tmp_path, capsys, damage):
        code = self.run_cli("run", "disk_cosine_perturbed", "--grid", "16x32",
                            "--stop-tol", "5e-3", "--out", str(tmp_path))
        assert code == 0
        outdir = json.loads(capsys.readouterr().out)["outdir"]
        path = os.path.join(outdir, "diagnostics.csv")
        lines = open(path).read().splitlines()
        cells = lines[3].split(",")
        if damage == "non_numeric":
            cells[2] = "abc"
        else:
            cells.pop()
        lines[3] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        for command in ("replay-diagnostics", "audit-km", "audit-harnack"):
            assert self.run_cli(command, outdir) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "OTFlowError"
            assert "diagnostics.csv, line 4" in err["detail"]

    @pytest.mark.parametrize("initial,match", [
        (None, "audits only"), ({"kind": "linear_scaling"}, "disk source")])
    def test_unbuildable_initial_potential_exit_2_with_error_json(
            self, tmp_path, capsys, initial, match):
        arg = "peanut_source_audit"         # bundled, with no initial potential
        if initial is not None:             # a blob source, which it needs not be
            cfg = dict(load_scenario(arg).to_dict(), initial=initial)
            arg = str(tmp_path / "peanut.json")
            with open(arg, "w") as fh:
                json.dump(cfg, fh)
        code = self.run_cli("run", arg, "--grid", "16x32",
                            "--out", str(tmp_path / "runs"))
        assert code == 2
        report = json.load(open(tmp_path / "runs" / "peanut_source_audit"
                                / "error.json"))
        assert json.loads(capsys.readouterr().err) == report
        assert report["error"] == "ConfigError" and match in report["detail"]

    def test_not_c_convex_start_reports_its_witness(self, tmp_path, capsys,
                                                    monkeypatch):
        def concave_bump(spec, grid):
            r2 = (grid.nodes ** 2).sum(-1)
            return r2 - 0.5 * r2 ** 2

        monkeypatch.setitem(flow.INITIAL_POTENTIALS, "linear_scaling",
                            concave_bump)
        code = self.run_cli("run", "disk_uniform_stationary", "--grid", "16x32",
                            "--out", str(tmp_path))
        assert code == 1
        report = json.load(open(tmp_path / "disk_uniform_stationary"
                                / "error.json"))
        assert json.loads(capsys.readouterr().err) == report
        assert report["error"] == "NotCConvex"
        witness = report["witness"]
        _, grid = load_scenario("disk_uniform_stationary").with_overrides(
            grid=(16, 32)).build_problem()
        i, j = witness["node"]
        assert witness["x"] == grid.nodes[i, j].tolist()
        assert witness["min_eig_W"] < 0
        assert np.linalg.norm(witness["x"]) > 0.5   # in the concave zone

    def test_singular_cross_hessian_exits_1_with_degenerate_cross(
            self, tmp_path, monkeypatch):
        cfg = load_scenario("offset_disks_sqrt").with_overrides(grid=(16, 32))
        _, grid = cfg.build_problem()
        node = grid.nodes[5, 3]
        make = costs._REGISTRY[cfg.cost["name"]]

        def singular_at_node():
            cost = make()
            cross = cost._cross

            def cross_fn(x, y):
                hit = np.all(x == node, axis=-1)[..., None, None]
                return np.where(hit, 0.0, cross(x, y))

            cost._cross = cross_fn
            return cost

        monkeypatch.setitem(costs._REGISTRY, cfg.cost["name"], singular_at_node)
        result = runner.run_scenario(cfg, output_root=str(tmp_path))
        assert result.status == 1
        report = json.load(open(os.path.join(result.outdir, "error.json")))
        assert report["error"] == "DegenerateCross"
        assert result.error == report

    def test_post_run_failure_exit_1_with_error_json(self, tmp_path, capsys,
                                                     monkeypatch):
        def degenerate(spec, seed=0):
            raise MetricDegenerate("injected audit failure")

        monkeypatch.setattr(runner, "convexity_audit", degenerate)
        code = self.run_cli("run", "disk_uniform_stationary", "--grid", "16x32",
                            "--out", str(tmp_path))
        assert code == 1
        report = json.load(open(tmp_path / "disk_uniform_stationary"
                                / "error.json"))
        assert json.loads(capsys.readouterr().err) == report
        assert report == {"error": "MetricDegenerate",
                          "detail": "injected audit failure"}

    def test_truncated_trajectory_reports_missing_file(self, tmp_path, capsys):
        code = self.run_cli("run", "disk_cosine_perturbed", "--grid", "16x32",
                            "--stop-tol", "5e-3", "--out", str(tmp_path))
        assert code == 0
        outdir = json.loads(capsys.readouterr().out)["outdir"]
        victims = [f for f in os.listdir(outdir) if f.endswith("_u.field")]
        os.remove(os.path.join(outdir, victims[-1]))
        code = self.run_cli("replay-diagnostics", outdir)
        assert code == 1
        assert victims[-1] in capsys.readouterr().err

    def test_missing_diagnostics_exits_1(self, tmp_path, capsys):
        code = self.run_cli("run", "disk_cosine_perturbed", "--grid", "16x32",
                            "--stop-tol", "5e-3", "--out", str(tmp_path))
        assert code == 0
        outdir = json.loads(capsys.readouterr().out)["outdir"]
        os.remove(os.path.join(outdir, "diagnostics.csv"))
        for command in ("replay-diagnostics", "audit-km", "audit-harnack"):
            assert self.run_cli(command, outdir) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "OTFlowError"
            assert "missing diagnostics.csv" in err["detail"]

    @pytest.mark.parametrize("source,match", [
        ({"kind": "disk", "radius": -1.0}, "radius"),
        ({"kind": "disk", "radius": 0.0}, "radius"),
        ({"kind": "blob", "radius": 0.0, "eps": 0.2, "k": 2}, "radius"),
        ({"kind": "ellipse", "a": -1.2, "b": 1.0}, "semi-axes"),
        ({"kind": "disk", "radius": float("inf")}, "radius"),
        ({"kind": "disk", "radius": 1.0, "center": [float("nan"), 0.0]},
         "center"),
    ], ids=["disk_negative", "disk_zero", "blob_zero", "ellipse_negative",
            "disk_infinite", "nan_center"])
    def test_degenerate_domain_exit_2(self, tmp_path, source, match):
        # in a subprocess with a timeout: a domain that slips past the
        # checks can leave the audits' interior sampler looping forever, and
        # that must fail this test, not hang the suite (json writes and reads
        # the non-finite values as the literals Infinity and NaN)
        bad = load_scenario("disk_uniform_stationary").to_dict()
        bad["source"] = source
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = ("import sys\n"
                "from otflow.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(config.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code, "run", str(path),
                              "--out", str(tmp_path / "runs")],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 2, out.stderr
        [err] = (tmp_path / "runs").glob("*/error.json")
        report = json.load(open(err))
        assert report["error"] == "ConfigError"
        assert match in report["detail"]
        assert json.loads(out.stderr) == report
