import itertools
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import cumvol.cli as cli
import cumvol.evolution as evolution
import cumvol.montecarlo as mc
from cumvol import (GriddedPdf, GridSpec, MassDefectError, cell_grid, default_y_grid,
                    gaussian, lorentzian, parse_noise_spec, power_volatility,
                    steady_state_volatility, tabulated, volatility_pdf, y_steps, z_steps)
from cumvol.cli import main
from cumvol.pdfgrid import csv_text
from helpers import sample_ks


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


def test_evolve_writes_densities_and_manifest(tmp_path):
    out = tmp_path / "run"
    code = run(["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "4",
                "--grid", "0,30,2048", "--out", str(out)])
    assert code == 0
    manifest = read_manifest(out)
    assert manifest["command"] == "evolve"
    assert len(manifest["outputs"]) == 4
    for name in manifest["outputs"]:
        f = out / name
        assert f.exists() and f.stat().st_size > 0
    first = (out / "rho_z_t0001.csv").read_text(encoding="utf-8").splitlines()
    assert first[0] == "x,density"
    # rows run through the first zero past the last positive value, on the
    # prefix of the manifest's grid
    assert manifest["grid"]["n_points"] == 2048
    grid = cell_grid(30.0, 2048)
    values = next(z_steps(0.2, gaussian(1.0), grid, 4)).pdf.values
    last = np.flatnonzero(values)[-1]
    assert last + 2 < 2048
    assert len(first) - 1 == max(16, last + 2)
    written = GriddedPdf.from_csv(out / "rho_z_t0001.csv", GridSpec(**manifest["grid"]))
    assert written.grid == GridSpec(grid.x_min, grid.h, last + 2)
    assert np.array_equal(written.values, values[:last + 2])
    steps = manifest["steps"]
    assert [s["t"] for s in steps] == [1, 2, 3, 4]
    assert all(s["mass_defect"] < 1e-3 for s in steps)
    assert steps[-1]["mean"] > steps[0]["mean"]


def test_evolve_default_grid(tmp_path):
    out = tmp_path / "rundef"
    code = run(["evolve", "--g", "0.2", "--noise", "gaussian:sigma=0.5", "--steps", "3",
                "--out", str(out)])
    assert code == 0
    assert read_manifest(out)["grid"]["n_points"] == 8192


def test_evolve_usage_errors(tmp_path):
    out = str(tmp_path / "x")
    assert run(["evolve", "--g", "0.2", "--noise", "gauss:sigma=1", "--steps", "3",
                "--out", out]) == 2
    assert run(["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "0",
                "--out", out]) == 2
    assert run(["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "3",
                "--grid", "1,5,100", "--out", out]) == 2
    assert run(["evolve", "--g", "0.2", "--noise", "gaussian:sigma=-1", "--steps", "3",
                "--out", out]) == 2


def test_volatility_until_converged(tmp_path):
    out = tmp_path / "vol"
    code = run(["volatility", "--g", "0.2", "--noise", "gaussian:sigma=0.1",
                "--until-converged", "--tol", "1e-7", "--out", str(out)])
    assert code == 0
    manifest = read_manifest(out)
    # the block restates neither config.tol nor a mode, and a converged
    # trace's length is its convergence step
    assert manifest["convergence"] == {"converged_at": len(manifest["steps"])}
    report = json.loads((out / "volatility_report.json").read_text(encoding="utf-8"))
    # each fact once: no width that restates variance or quantiles, and no
    # convergence step that restates the solver's or the manifest's
    assert set(report) == {"g", "noise", "variance", "quantiles", "sigma_a_sq",
                           "narrow_variance", "ratio_to_narrow", "truncated_mass", "solver"}
    assert set(report["quantiles"]) == {"q05", "q25", "q50", "q75", "q95"}
    assert report["ratio_to_narrow"] == pytest.approx(1.0, abs=0.05)
    # the report describes the final density of the iterated trace itself
    last = manifest["steps"][-1]
    assert manifest["convergence"]["converged_at"] == last["t"]
    assert report["variance"] == last["dz_variance"]
    assert report["solver"]["method"] == "power"
    assert report["solver"]["applications"] == last["t"] - 1
    # growth-increment densities settle: early steps change far more than late
    l1 = [s["y_l1_prev"] for s in manifest["steps"] if s["y_l1_prev"] is not None]
    assert l1[0] > 100 * l1[-1]


def test_volatility_builds_each_step_density_once(tmp_path, monkeypatch):
    # the report reads the final step's growth-increment density, and the
    # step loop writes that same density instead of building it again; every
    # file equals one written from the library's own densities and report
    calls = []

    def counted(p_y, grid=None):
        calls.append(p_y)
        return volatility_pdf(p_y, grid)

    monkeypatch.setattr(evolution, "volatility_pdf", counted)
    monkeypatch.setattr(cli, "volatility_pdf", counted)
    out = tmp_path / "vol"
    assert run(["volatility", "--g", "0.2", "--noise", "gaussian:sigma=0.1",
                "--until-converged", "--out", str(out)]) == 0
    monkeypatch.undo()
    trace = list(y_steps(0.2, gaussian(0.1), default_y_grid(0.2, gaussian(0.1), n_points=8192),
                     10_000, tol=1e-8))
    assert len(calls) == len(trace) == read_manifest(out)["convergence"]["converged_at"]
    ref = tmp_path / "ref"
    ref.mkdir()
    for rec in trace:
        name = f"rho_dz_t{rec.t:04d}.csv"
        (ref / name).write_bytes(volatility_pdf(rec.pdf).csv_bytes())
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    (ref / "volatility_report.json").write_bytes(
        cli._json_text(asdict(power_volatility(0.2, gaussian(0.1), trace[-1])[0]),
                       "volatility_report.json"))
    assert ((out / "volatility_report.json").read_bytes()
            == (ref / "volatility_report.json").read_bytes())


def test_volatility_csv_and_dz_grid_rebuild_the_full_density(tmp_path):
    # each step's dz grid is sized separately: the manifest row records it, so
    # the trimmed file padded with zero rows is the whole in-memory density
    out = tmp_path / "v"
    assert run(["volatility", "--g", "0.2", "--noise", "lorentzian:gamma=1", "--steps", "3",
                "--grid", "0,20,1024", "--out", str(out)]) == 0
    trace = list(y_steps(0.2, lorentzian(1.0), cell_grid(20.0, 1024), 3))
    rows = read_manifest(out)["steps"]
    assert len(rows) == len(trace) == 3
    for row, rec in zip(rows, trace):
        dz = volatility_pdf(rec.pdf)
        grid = GridSpec(**row["dz_grid"])
        assert grid == dz.grid
        kept = np.loadtxt(out / row["file"], delimiter=",", skiprows=1)[:, 1]
        assert kept.size < grid.n_points
        padded = np.concatenate((kept, np.zeros(grid.n_points - kept.size)))
        assert (csv_text("x,density", np.column_stack((grid.points(), padded)))
                == csv_text("x,density", np.column_stack((dz.grid.points(), dz.values))))


def test_volatility_large_drift_with_resolved_centre(tmp_path):
    # ybar(5, inf) spans 6.5 cells of the default y grid: dz stays near g
    out = tmp_path / "v"
    assert run(["volatility", "--g", "5", "--noise", "gaussian:sigma=1", "--steps", "3",
                "--out", str(out)]) == 0
    rows = read_manifest(out)["steps"]
    assert rows[-1]["dz_mean"] == pytest.approx(5.0, abs=0.02)


def test_volatility_steps_default_to_the_mode_and_are_echoed(tmp_path):
    # --steps is the horizon in both modes; left out it is 10000 with
    # --until-converged (this run converges at t = 95) and 50 without, and
    # the manifest echoes the horizon used
    fixed, plain = tmp_path / "fixed", tmp_path / "plain"
    argv = ["volatility", "--g", "0.2", "--noise", "gaussian:sigma=0.1"]
    assert run(argv + ["--until-converged", "--out", str(fixed)]) == 0
    manifest = read_manifest(fixed)
    assert manifest["config"]["steps"] == 10_000 and "max_steps" not in manifest["config"]
    assert manifest["convergence"]["converged_at"] == len(manifest["steps"]) == 95
    assert run(argv + ["--out", str(plain)]) == 0
    manifest = read_manifest(plain)
    assert manifest["config"]["steps"] == 50
    assert manifest["convergence"]["converged_at"] is None and len(manifest["steps"]) == 50
    assert "volatility_report.json" not in manifest["outputs"]


@pytest.mark.parametrize("argv", [
    ["volatility", "--noise", "gaussian:sigma=0.1", "--until-converged"],
    ["compare-saddle", "--sigma-sweep", "0.01"],
], ids=["volatility", "compare-saddle"])
def test_max_steps_is_usage_error(tmp_path, capsys, argv):
    # one horizon option per command: --steps, or the eigensolve's own cap
    out = tmp_path / "x"
    assert run(argv + ["--g", "0.2", "--max-steps", "5", "--out", str(out)]) == 2
    assert "unrecognized arguments: --max-steps" in capsys.readouterr().err
    assert not out.exists()


def test_volatility_rejects_nonpositive_drift_with_convergence_flag(tmp_path):
    code = run(["volatility", "--g", "-0.2", "--noise", "gaussian:sigma=0.1",
                "--until-converged", "--out", str(tmp_path / "vneg")])
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["volatility", "--g", "0.2", "--noise", "lorentzian:gamma=1", "--until-converged"],
    ["volatility", "--g", "0.1", "--noise", "table:{table}", "--until-converged"],
    ["volatility", "--g", "0.1", "--noise", "table:{table}", "--until-converged",
     "--grid", "0,20,1024"],
    ["compare-saddle", "--g", "-0.1", "--sigma-sweep", "0.01"],
], ids=["lorentzian", "table", "table-grid", "compare-saddle"])
def test_no_steady_state_where_y_has_no_stationary_law(tmp_path, capsys, monkeypatch, argv):
    # y is stationary exactly when g + E[a] > 0 and the noise variance is
    # finite. The uniform table on [-0.65, 0.35] at g = 0.1 has g + E[a] =
    # -0.05, and Lorentzian noise no mean: each is refused before the first
    # step, where the Lorentzian run wrote 1,302 files in 12 s
    def no_step(*args, **kwargs):
        raise AssertionError("the reversed recursion started")

    monkeypatch.setattr(cli, "y_steps", no_step)
    monkeypatch.setattr(evolution, "_perron_density", no_step)
    table = tmp_path / "uniform.csv"
    table.write_text("x,density\n-0.65,1\n0.35,1\n", encoding="utf-8")
    out = tmp_path / "x"
    argv = [a.format(table=table) for a in argv]
    assert run(argv + ["--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "domain error: y has no stationary law" in err and "Traceback" not in err
    assert not out.exists()


def test_volatility_until_converged_takes_a_tables_mean_as_drift(tmp_path):
    # uniform noise on [0.05, 0.35] at g = -0.05 has drift g + E[a] = 0.15: its
    # default grid is sized for that drift (at g alone, g <= 0, it has none),
    # and the power iteration's report agrees with the eigensolve's
    table = tmp_path / "uniform.csv"
    table.write_text("x,density\n0.05,1\n0.35,1\n", encoding="utf-8")
    out = tmp_path / "v"
    assert run(["volatility", "--g=-0.05", "--noise", f"table:{table}", "--until-converged",
                "--out", str(out)]) == 0
    report = json.loads((out / "volatility_report.json").read_text(encoding="utf-8"))
    solved = steady_state_volatility(-0.05, tabulated([(0.05, 1.0), (0.35, 1.0)]),
                                     grid=GridSpec(**read_manifest(out)["grid"]))
    assert report["g"] == -0.05 and report["solver"]["method"] == "power"
    assert report["variance"] == pytest.approx(solved.variance, rel=1e-5)
    assert report["narrow_variance"] == solved.narrow_variance
    assert report["ratio_to_narrow"] == pytest.approx(1.0, abs=0.01)


def test_converged_per_step_volatility_writes_no_report(tmp_path):
    # only --until-converged writes volatility_report.json: this run's trace
    # converges at t = 95 of its 200 steps
    out = tmp_path / "v"
    assert run(["volatility", "--g", "0.2", "--noise", "gaussian:sigma=0.1", "--steps", "200",
                "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["convergence"]["converged_at"] == 95
    assert "volatility_report.json" not in manifest["outputs"]
    assert not (out / "volatility_report.json").exists()


def test_compare_saddle_sweep(tmp_path):
    out = tmp_path / "sweep"
    code = run(["compare-saddle", "--g", "0.2", "--sigma-sweep", "0.0025,0.01",
                "--out", str(out)])
    assert code == 0
    rows = (out / "saddle_ratio.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0].startswith("sigma_a_sq,ratio")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert data.shape[0] == 2
    assert np.all(np.abs(data[:, 1] - 1.0) < 0.05)
    for point in read_manifest(out)["points"]:
        solver = point["solver"]
        assert solver["method"] == "arnoldi"
        assert point["converged_at"] == solver["applications"] > 0
        assert solver["residual_l1"] < 1e-8
        assert 0.0 < 1.0 - solver["eigenvalue"] < 1e-6


def test_compare_saddle_empty_sweep_is_usage_error(tmp_path):
    assert run(["compare-saddle", "--g", "0.1", "--sigma-sweep", ",",
                "--out", str(tmp_path / "s")]) == 2


def test_simulate_deterministic_summary(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = run(["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1",
                    "--paths", "500", "--steps", "5", "--seed", "11", "--out", str(out)])
        assert code == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_rejects_zero_paths(tmp_path):
    assert run(["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1",
                "--paths", "0", "--steps", "5", "--out", str(tmp_path / "s")]) == 2


def test_simulate_paths_csv_capped(tmp_path, monkeypatch):
    out = tmp_path / "paths"
    code = run(["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1",
                "--paths", "200", "--steps", "3", "--seed", "1", "--paths-csv",
                "--out", str(out)])
    assert code == 0
    lines = (out / "paths.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 201
    assert lines[0] == "path,z0,z1,z2,z3"

    # past the cap, the rows are the first paths of the whole ensemble, taken
    # across blocks (the last one partial), and the summary is its summary
    monkeypatch.setattr(mc, "BLOCK_PATHS", 4096)
    out = tmp_path / "capped"
    code = run(["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1",
                "--paths", "10050", "--steps", "3", "--seed", "1", "--paths-csv",
                "--out", str(out)])
    assert code == 0
    e = mc.simulate_stream(0.2, gaussian(1.0), t_max=3, n_paths=10_050, seed=1,
                           head_paths=10_050)
    expected = ["path,z0,z1,z2,z3\n"]
    for i, row in enumerate(e.head[:10_000]):
        expected.append(f"{i}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    assert (out / "paths.csv").read_bytes() == "".join(expected).encode("utf-8")
    summary = json.dumps(e.summary, indent=2, sort_keys=True) + "\n"
    assert (out / "summary.json").read_text(encoding="utf-8") == summary


def test_simulate_against_evolve_run(tmp_path, monkeypatch):
    ref = tmp_path / "ref"
    assert run(["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "5",
                "--grid", "0,40,4096", "--out", str(ref)]) == 0
    monkeypatch.setattr(mc, "BLOCK_PATHS", 4096)  # 20000 paths end in a partial block
    out = tmp_path / "mc"
    code = run(["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1",
                "--paths", "20000", "--steps", "5", "--seed", "3",
                "--against", str(ref), "--out", str(out)])
    assert code == 0
    ks = json.loads((out / "ks_report.json").read_text(encoding="utf-8"))
    assert len(ks["ks_per_step"]) == 5
    assert max(r["ks"] for r in ks["ks_per_step"]) < 0.02
    # the streamed counts give exactly the statistic of the whole ensemble
    z = mc.simulate_stream(0.2, gaussian(1.0), t_max=5, n_paths=20_000, seed=3,
                           head_paths=20_000).head
    manifest = read_manifest(ref)
    for row, step in zip(ks["ks_per_step"], manifest["steps"]):
        pdf = GriddedPdf.from_csv(ref / step["file"], GridSpec(**manifest["grid"]),
                                  truncated_mass=step["truncated_mass"])
        assert row["ks"] == sample_ks(z[:, row["t"]], pdf)
    # the trimmed files give the KS of the untrimmed in-memory densities
    trace = list(z_steps(0.2, gaussian(1.0), cell_grid(40.0, 4096), 5))
    for row, rec in zip(ks["ks_per_step"], trace):
        assert rec.pdf.grid.n_points == 4096
        assert row["ks"] == pytest.approx(sample_ks(z[:, rec.t], rec.pdf), abs=1e-12)


def test_simulate_against_without_manifest_fails_before_simulating(tmp_path, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --against")

    monkeypatch.setattr(cli, "simulate_stream", no_simulation)
    (tmp_path / "empty").mkdir()
    out = tmp_path / "mc"
    code = run(["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1",
                "--paths", "1000", "--steps", "5", "--against", str(tmp_path / "empty"),
                "--out", str(out)])
    assert code == 4
    assert not out.exists()


@pytest.mark.parametrize("text, cause", [
    (b"not json\n", "has no JSON manifest: Expecting value"),
    (b"\xff\n", "has no JSON manifest: 'utf-8' codec can't decode"),
    (b"[1, 2]\n", "has no run's manifest: not a JSON object"),
    (b'{"command": "evolve", "config": [1]}\n', "has no run's manifest: not a JSON object"),
], ids=["not-json", "not-utf8", "list", "config-list"])
def test_simulate_against_a_manifest_that_is_not_a_json_object_fails_before_simulating(
        tmp_path, monkeypatch, capsys, text, cause):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --against")

    monkeypatch.setattr(cli, "simulate_stream", no_simulation)
    ref = tmp_path / "ref"
    ref.mkdir()
    (ref / "manifest.json").write_bytes(text)
    out = tmp_path / "mc"
    assert run(["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1", "--paths", "1000",
                "--steps", "2", "--against", str(ref), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"domain error: --against run {ref} {cause}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("made_by, simulate_args, field", [
    (["volatility", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2",
      "--grid", "0,20,256"], ["--g", "0.2", "--noise", "gaussian:sigma=1"], "command"),
    (["compare-saddle", "--g", "0.5", "--sigma-sweep", "0.01"],
     ["--g", "0.5", "--noise", "gaussian:sigma=0.1"], "command"),
    (["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2",
      "--grid", "0,20,256"], ["--g", "0.5", "--noise", "gaussian:sigma=1"], "config.g"),
    (["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2",
      "--grid", "0,20,256"], ["--g", "0.2", "--noise", "lorentzian:gamma=1"], "config.noise"),
], ids=["volatility-run", "compare-saddle-run", "other-drift", "other-noise"])
def test_simulate_against_another_kind_of_run_fails_before_simulating(
        tmp_path, monkeypatch, capsys, made_by, simulate_args, field):
    # KS values against densities of another variable, drift or noise mean nothing
    ref = tmp_path / "ref"
    assert run(made_by + ["--out", str(ref)]) == 0

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --against")

    monkeypatch.setattr(cli, "simulate_stream", no_simulation)
    out = tmp_path / "mc"
    capsys.readouterr()
    assert run(["simulate", *simulate_args, "--paths", "1000", "--steps", "2",
                "--against", str(ref), "--out", str(out)]) == 4
    assert f"has {field} " in capsys.readouterr().err
    assert not out.exists()


def _nudge_one_x(run_dir):
    """Move the x value of row 10 of step 1's file up by one ulp."""
    path = run_dir / "rho_z_t0001.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    x, rest = lines[11].split(",", 1)
    lines[11] = f"{math.nextafter(float(x), math.inf)!r},{rest}"
    path.write_text("".join(lines), encoding="utf-8")


def _drop_grid(run_dir):
    manifest = read_manifest(run_dir)
    del manifest["grid"]
    (run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize("spoil", [_nudge_one_x, _drop_grid], ids=["x-one-ulp-off", "no-grid"])
def test_simulate_against_densities_off_the_manifest_grid_fails_before_simulating(
        tmp_path, monkeypatch, capsys, spoil):
    # a density is compared on its manifest's grid, node for node: a file
    # whose x column is not that grid's nodes, or a manifest without a grid,
    # is refused before any path is drawn
    ref = tmp_path / "ref"
    assert run(["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2",
                "--grid", "0,20,256", "--out", str(ref)]) == 0
    spoil(ref)

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --against")

    monkeypatch.setattr(cli, "simulate_stream", no_simulation)
    out = tmp_path / "mc"
    capsys.readouterr()
    assert run(["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1", "--paths", "1000",
                "--steps", "2", "--against", str(ref), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "has no densities on its manifest's grid" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_against_a_shorter_run_fails_before_simulating(tmp_path, monkeypatch, capsys):
    # steps past the evolve run's end used to drop out of ks_report.json unremarked
    ref = tmp_path / "ref"
    assert run(["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2",
                "--grid", "0,20,256", "--out", str(ref)]) == 0

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --against")

    monkeypatch.setattr(cli, "simulate_stream", no_simulation)
    out = tmp_path / "mc"
    capsys.readouterr()
    assert run(["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1", "--paths", "1000",
                "--steps", "5", "--against", str(ref), "--out", str(out)]) == 4
    assert "has no density for step 3" in capsys.readouterr().err
    assert not out.exists()


def test_volatility_narrow_noise_report_accuracy(tmp_path):
    out = tmp_path / "narrow"
    code = run(["volatility", "--g", "0.2", "--noise", "gaussian:sigma=0.01",
                "--until-converged", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "volatility_report.json").read_text(encoding="utf-8"))
    target = 1e-4 * math.tanh(0.1)
    assert report["variance"] == pytest.approx(target, rel=0.02)


def test_nonfinite_drift_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "x")
    for value in ("inf", "-inf"):
        assert run(["evolve", f"--g={value}", "--noise", "gaussian:sigma=1", "--steps", "3",
                    "--out", out]) == 2
        assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_nan_drift_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert run(["volatility", "--g", "nan", "--noise", "gaussian:sigma=1",
                "--until-converged", "--out", out]) == 2
    assert "finite" in capsys.readouterr().err
    assert run(["compare-saddle", "--g", "nan", "--sigma-sweep", "0.01", "--out", out]) == 2
    assert not (tmp_path / "x").exists()


def test_evolve_tol_is_usage_error(tmp_path, capsys):
    # evolve runs exactly --steps: z has no fixed point to stop at
    out = tmp_path / "x"
    assert run(["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "3",
                "--tol", "1e-3", "--out", str(out)]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["volatility", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "3"],
    ["volatility", "--g", "0.2", "--noise", "gaussian:sigma=1", "--until-converged"],
])
def test_infinite_tolerance_is_usage_error(tmp_path, capsys, command):
    # an infinite --tol would "converge" at once and only fail at the manifest,
    # after writing densities; it must be refused before anything is computed
    out = tmp_path / "x"
    assert run(command + ["--tol", "inf", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["2", "1", "0", "-1e-9"])
def test_compare_saddle_tolerance_outside_unit_interval_is_usage_error(tmp_path, capsys, tol):
    # compare-saddle's eigensolve stops by one rule, so it takes no --tol:
    # neither one that would stop it short nor one inside (0, 1)
    out = tmp_path / "x"
    for value in (tol, "1e-9"):
        assert run(["compare-saddle", "--g", "0.1", "--sigma-sweep", "0.01", f"--tol={value}",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --tol={value}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["5", "1", "0", "-1"])
def test_volatility_tolerance_outside_unit_interval_is_usage_error(tmp_path, capsys, tol):
    # --tol 5 used to stop after two steps with a far-from-steady report
    out = tmp_path / "x"
    assert run(["volatility", "--g", "0.2", "--noise", "gaussian:sigma=1", "--until-converged",
                "--tol", tol, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "(0, 1)" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["volatility", "--g", "70", "--noise", "gaussian:sigma=1"],
    ["compare-saddle", "--g", "70", "--sigma-sweep", "0.1"],
    ["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1e300", "--paths", "10",
     "--steps", "3"],
], ids=["volatility", "compare-saddle", "simulate"])
def test_failed_run_creates_no_output_directory(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert run(argv + ["--out", str(out)]) == 4
    assert "domain error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code, cause", [
    (["volatility", "--g", "0.2", "--noise", "gaussian:sigma=0.1", "--until-converged",
      "--steps", "5"], 3, "numerical failure: trace did not converge within horizon=5"),
    (["volatility", "--g", "0.2", "--noise", "gaussian:sigma=1e-160", "--until-converged"], 4,
     "domain error: volatility_report.json.ratio_to_narrow is not finite"),
    (["compare-saddle", "--g", "0.2", "--sigma-sweep", "1e-322"], 4,
     "domain error: manifest.json.points[0].ratio is not finite"),
    (["compare-saddle", "--g", "0.2", "--sigma-sweep", "5e-324"], 4,
     "domain error: narrow_variance at sigma_a_sq=4.94066e-324 underflows to 0"),
    (["volatility", "--g", "0.2", "--noise", "gaussian:sigma=2.2e-162", "--until-converged"], 4,
     "domain error: narrow_variance at sigma_a_sq=4.94066e-324 underflows to 0"),
    # one path has no sample variance: a usage error before any draw, not a
    # float64 overflow of its nan moments
    (["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1", "--paths", "1", "--steps", "2"],
     2, "invalid input: n_paths must be >= 2: one path has no sample variance"),
], ids=["volatility-unconverged", "volatility-report", "compare-saddle-inf",
        "compare-saddle-zero", "volatility-zero", "simulate-one-path"])
def test_failed_result_check_creates_no_output_directory(tmp_path, capsys, monkeypatch, recwarn,
                                                         argv, code, cause):
    # the results are checked before the first file is written. At these
    # widths compare-saddle's default y grid is refused (it would need more
    # than 2**21 points); the check does not depend on the grid (volatility
    # passes its own 8192). No run warns: at compare-saddle's widths the
    # eigensolve starts from y = 0, since the diffusion limit's law has no
    # finite shape there
    monkeypatch.setattr(evolution, "default_y_grid", lambda g, noise, n_points=None:
                        default_y_grid(g, noise, n_points or 4096))
    out = tmp_path / "x"
    assert run(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert cause in err and "Traceback" not in err
    assert not out.exists()
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


def test_y_grid_past_its_point_limit_is_refused_before_the_solve(tmp_path, capsys, monkeypatch):
    # sigma_a^2 = 1e-322 would need far more than 2**21 y points: the default
    # grid refuses it, so the eigensolve never starts and nothing is written
    def no_solve(*args):
        raise AssertionError("the eigensolve started")

    monkeypatch.setattr(evolution, "_perron_density", no_solve)
    out = tmp_path / "x"
    assert run(["compare-saddle", "--g", "0.2", "--sigma-sweep", "1e-322",
                "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "domain error: gaussian(sigma=9.94048e-162) at g=0.2 needs more than the y " \
           "grid's 2097152 points" in err and "Traceback" not in err
    assert not out.exists()


def test_small_drift_y_grid_is_refused_before_the_solve(tmp_path, capsys, monkeypatch):
    # at g = 1e-6 the stationary tail needs 19 M cells of width 0.005: the
    # default grid used to be clipped to 2^21 cells of width 0.046, on which
    # the eigensolve ran about 5 s and failed (exit 3)
    def no_solve(*args):
        raise AssertionError("the eigensolve started")

    monkeypatch.setattr(evolution, "_perron_density", no_solve)
    out = tmp_path / "x"
    assert run(["compare-saddle", "--g", "1e-6", "--sigma-sweep", "0.01",
                "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "2097152 points: cells of width 0.005 over" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["compare-saddle", "--g", "5e-17", "--sigma-sweep", "0.01"], 4),
    (["volatility", "--g", "1e-17", "--noise", "gaussian:sigma=1", "--until-converged"], 4),
    (["volatility", "--g", "1e-17", "--noise", "gaussian:sigma=1", "--steps", "3",
      "--grid", "0,20,1024"], 0),
], ids=["compare-saddle", "steady-state", "per-step"])
def test_drift_whose_exp_rounds_to_one_is_no_math_domain_error(tmp_path, capsys, argv, code):
    # ybar(g, inf) raised "math domain error" (exit 2) below g ~ 5.6e-17; the
    # steady states are now refused by the y grid's point limit and its centre
    # rule, and an explicit grid runs
    out = tmp_path / "x"
    assert run(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "math domain error" not in err and "Traceback" not in err
    assert out.exists() == (code == 0)


def test_evolve_at_zero_drift(tmp_path):
    # z's grid is sized by the finite sum ybar(0, t) = log(t + 1), which needs no g > 0
    out = tmp_path / "zero"
    assert run(["evolve", "--g", "0", "--noise", "gaussian:sigma=1", "--steps", "3",
                "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("rho_z_t*.csv")) == [
        "rho_z_t0001.csv", "rho_z_t0002.csv", "rho_z_t0003.csv"]


@pytest.mark.parametrize("g, noise", [("-0.2", "gaussian:sigma=1"), ("0", "gaussian:sigma=1"),
                                      ("-0.2", "lorentzian:gamma=1")])
def test_default_y_grid_refuses_a_drift_with_no_fixed_point(tmp_path, capsys, g, noise):
    # the default y grid is sized at y's fixed point, which needs g > 0; the
    # refusal names that cause, not an internal function, and writes nothing
    out = tmp_path / "x"
    argv = ["volatility", "--g", g, "--noise", noise, "--steps", "2"]
    assert run(argv + ["--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "default y grid" in err[0] and "g > 0" in err[0], err
    assert "ybar" not in err[0]
    assert not out.exists()
    # a given grid runs
    assert run(argv + ["--grid", "0,20,1024", "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["evolve", "volatility"])
@pytest.mark.parametrize("noise", ["gaussian:sigma=1e200", "table"])
def test_default_grid_whose_extent_overflows_is_domain_error(tmp_path, capsys, command, noise):
    # the grid sizing's upper end is inf: this exited 2 blaming a grid that was
    # never given, and a table this wide had a nan variance
    if noise == "table":
        table = tmp_path / "wide.csv"
        table.write_text("x,density\n-1e200,1\n1e200,1\n", encoding="utf-8")
        noise = f"table:{table}"
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        assert run([command, "--g", "0.2", "--noise", noise, "--steps", "2",
                    "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == ("cumvol: domain error: the default grid's upper end overflows float64 "
                   "for this noise and g\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["compare-saddle", "--g", "0.1", "--sigma-sweep", "0.01,inf"], "--sigma-sweep"),
    (["compare-saddle", "--g", "0.1", "--sigma-sweep", "0.01,nan"], "--sigma-sweep"),
    (["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1", "--paths", "10", "--steps", "2",
      "--seed", "-1"], "--seed"),
    (["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1", "--paths", "10", "--steps", "2",
      "--seed", "-1", "--against", "missing"], "--seed"),
], ids=["sweep-inf", "sweep-nan", "seed", "seed-against"])
def test_bad_numeric_value_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                                       option):
    # a non-finite variance used to be found after the earlier points were
    # solved, and a negative seed by numpy, neither naming the option
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("steady_state_volatility", "simulate_stream", "_load_against"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "x"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"argument {option}:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["evolve", "--noise", "gaussian:sigma=1", "--steps", "3"],
    ["volatility", "--noise", "gaussian:sigma=1"],
    ["compare-saddle", "--sigma-sweep", "0.01"],
    ["simulate", "--noise", "gaussian:sigma=1", "--paths", "10", "--steps", "3"],
])
def test_exponent_form_negative_number_is_a_value(command):
    # argparse's stock negative-number pattern has no exponent, so "-2e-1"
    # would be read as an option and "--g" would lack its argument
    args = cli.build_parser().parse_args(command + ["--g", "-2e-1", "--out", "-1E+2"])
    assert args.g == -0.2 and args.out == "-1E+2"


def test_exponent_form_negative_drift_runs(tmp_path):
    out = tmp_path / "neg"
    assert run(["evolve", "--g", "-2e-1", "--noise", "gaussian:sigma=1", "--steps", "2",
                "--grid", "0,20,1024", "--out", str(out)]) == 0
    assert read_manifest(out)["config"]["g"] == -0.2


def test_exponent_form_negative_tolerance_is_range_error(tmp_path, capsys):
    out = tmp_path / "x"
    assert run(["volatility", "--g", "0.2", "--noise", "gaussian:sigma=1", "--until-converged",
                "--tol", "-1e-9", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "(0, 1)" in err and "expected one argument" not in err
    assert not out.exists()


_IMPORT_GUARD = """
import sys
sys.path.insert(0, {src!r})
import cumvol, cumvol.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
out = {out!r}
for argv in (
    ["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2",
     "--grid", "0,20,1024", "--out", out + "/e"],
    ["volatility", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2",
     "--grid", "0,20,1024", "--out", out + "/v"],
    ["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1", "--paths", "2000",
     "--steps", "2", "--against", out + "/e", "--out", out + "/s"],
    ["compare-saddle", "--g", "0.5", "--sigma-sweep", "0.01", "--out", out + "/c"],
):
    assert cumvol.cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv[0], scipy_modules())
"""


def test_no_command_imports_scipy(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD.format(src=src, out=str(tmp_path))],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", [
    ["evolve", "--steps", "3"],
    ["volatility", "--steps", "3"],
    ["simulate", "--paths", "10", "--steps", "3"],
])
@pytest.mark.parametrize("family", ["gaussian:sigma=inf", "lorentzian:gamma=inf", "table"])
def test_nonfinite_noise_parameter_is_usage_error(tmp_path, capsys, command, family):
    if family == "table":
        table = tmp_path / "noise.csv"
        table.write_text("x,density\n-0.5,0.5\n0,inf\n0.5,0.5\n", encoding="utf-8")
        family = f"table:{table}"
    out = tmp_path / "x"
    assert run(command + ["--g", "0.2", "--noise", family, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_overflow_is_domain_error(tmp_path, capsys):
    # g*t overflows float64 from t=2 on; the log-space guard must report it
    # as a domain error (exit 4), not escape as a traceback
    code = run(["simulate", "--g", "1e308", "--noise", "gaussian:sigma=1", "--paths", "10",
                "--steps", "3", "--out", str(tmp_path / "x")])
    assert code == 4
    err = capsys.readouterr().err
    assert "domain error" in err and "g=1e+308" in err and "gaussian(sigma=1)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, field", [
    (["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1e300", "--paths", "10",
      "--steps", "3"], "summary.json.var_z[0]"),
    (["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2",
      "--grid", "0,1e308,100"], "manifest.json.steps[0].variance"),
])
def test_nonfinite_json_is_domain_error(tmp_path, capsys, argv, field):
    # numbers beyond float64 must not reach a JSON file as NaN or Infinity
    out = tmp_path / "x"
    assert run(argv + ["--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"domain error: {field} is not finite" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()
    assert not (out / "summary.json").exists()


def test_evolve_nonfinite_manifest_writes_no_density(tmp_path, capsys):
    # the manifest is checked before any density file is written, so a failed
    # run leaves no half-written output directory behind
    out = tmp_path / "x"
    assert run(["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2",
                "--grid", "0,1e308,100", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "domain error" in err and "Traceback" not in err
    assert not list(out.glob("*.csv")) and not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["evolve", "volatility"])
def test_per_step_run_memory_does_not_grow_with_the_horizon(tmp_path, command):
    # each step's density is dropped once its file is staged: ten times the
    # steps peak within 0.5 MB, where 180 more densities held would add 2.9 MB
    def peak(steps):
        tracemalloc.start()
        try:
            assert run([command, "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps",
                        str(steps), "--grid", "0,20,2048",
                        "--out", str(tmp_path / str(steps))]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(20), peak(200)
    assert long - short < 0.5e6, (short, long)


def _step_three_raises(monkeypatch, command, out):
    """Raise at step 3, the second StepOperator.apply (step 1 is its first());
    returns the temp files in ``out`` at each apply."""
    apply, seen = evolution.StepOperator.apply, []

    def failing(self, masses):
        seen.append(sorted(p.name for p in out.glob("*.tmp")))
        if len(seen) == 2:
            raise MassDefectError("mass defect at step 3")
        return apply(self, masses)

    monkeypatch.setattr(evolution.StepOperator, "apply", failing)
    return seen


def _nonfinite_second_row(monkeypatch, command, out):
    """Give step 2's row a nan mean: of z's density for evolve, of dz's for
    volatility; returns the temp files in ``out`` at that moment."""
    seen = []

    def poison(pdf):
        seen.append(sorted(p.name for p in out.glob("*.tmp")))
        object.__setattr__(pdf, "_mean", math.nan)  # where mean() keeps it

    if command == "evolve":
        stream = cli.z_steps

        def records(*args):
            for rec in stream(*args):
                if rec.t == 2:
                    poison(rec.pdf)
                yield rec

        monkeypatch.setattr(cli, "z_steps", records)
    else:
        dz_of, calls = cli.volatility_pdf, itertools.count(1)

        def volatility_pdf(p_y, grid=None):
            dz = dz_of(p_y, grid)
            if next(calls) == 2:
                poison(dz)
            return dz

        monkeypatch.setattr(cli, "volatility_pdf", volatility_pdf)
    return seen


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize("command, fail, at, code, cause", [
    ("evolve", _step_three_raises, 3, 3, "numerical failure: mass defect at step 3"),
    ("volatility", _step_three_raises, 3, 3, "numerical failure: mass defect at step 3"),
    ("evolve", _nonfinite_second_row, 2, 4,
     "domain error: manifest.json.steps[1].mean is not finite"),
    ("volatility", _nonfinite_second_row, 2, 4,
     "domain error: manifest.json.steps[1].dz_mean is not finite"),
], ids=["evolve-step-3", "volatility-step-3", "evolve-row-2", "volatility-row-2"])
def test_failed_per_step_run_leaves_out_as_it_found_it(tmp_path, capsys, monkeypatch, command,
                                                       fail, at, code, cause, existing):
    # each step's file is staged as a temp file in --out (here in a burst of
    # its own) and renamed into place only once the run has succeeded: a run
    # that fails part-way unlinks them and removes the --out it created
    monkeypatch.setattr(cli, "_STAGE_BYTES", 1)
    out = tmp_path / "new" / "run"
    if existing:
        out.mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    seen = fail(monkeypatch, command, out)
    assert run([command, "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "5",
                "--grid", "0,20,1024", "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert cause in err and "Traceback" not in err
    assert len(seen[-1]) == at - 1  # the earlier steps were staged on disk
    if existing:
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
        assert (out / "notes.txt").read_text(encoding="utf-8") == "kept\n"
    else:
        assert not (tmp_path / "new").exists()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("argv, cause", [
    (["volatility", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2",
      "--grid", "0,1e308,100"], "mean or width is not finite"),
    (["volatility", "--g", "1e308", "--noise", "gaussian:sigma=1", "--steps", "2"],
     "g=1e+308 puts the growth increment beyond the dz grid's cap of 60"),
    (["compare-saddle", "--g", "1e308", "--sigma-sweep", "0.1"],
     "g=1e+308 puts the growth increment beyond the dz grid's cap of 60"),
    # an explicit --grid skips the default grid's sizing, not the drift cap
    (["volatility", "--g", "100", "--noise", "gaussian:sigma=1", "--steps", "2",
      "--grid", "0,10,1000"], "g=100 puts the growth increment beyond the dz grid's cap of 60"),
    (["volatility", "--g", "1e308", "--noise", "gaussian:sigma=1", "--steps", "2",
      "--grid", "0,10,1000"], "g=1e+308 puts the growth increment beyond the dz grid's cap of 60"),
    # the default y grid's cells are wider than the steady centre ybar(20, inf)
    (["volatility", "--g", "20", "--noise", "gaussian:sigma=1", "--steps", "3"],
     "g=20 puts the reversed variable's steady centre"),
])
def test_unrepresentable_growth_increment_is_domain_error(tmp_path, capsys, argv, cause):
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        assert run(argv + ["--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "domain error: " in err and cause in err and "Traceback" not in err
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize("g, noise", [
    ("1e308", "gaussian:sigma=1"),    # the drift factors' log sum overflows
    ("400", "gaussian:sigma=1"),      # the grid-sizing variance's e^{2g} overflows
    ("1e308", "lorentzian:gamma=1"),
])
def test_evolve_overflowing_drift_is_domain_error(tmp_path, capsys, g, noise):
    out = tmp_path / "x"
    assert run(["evolve", "--g", g, "--noise", noise, "--steps", "3", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "domain error" in err and "overflows float64" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


_SMALL_RUNS = {
    "evolve": ["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2"],
    "volatility": ["volatility", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2"],
    "compare-saddle": ["compare-saddle", "--g", "0.5", "--sigma-sweep", "0.01"],
    "simulate": ["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1", "--paths", "1000",
                 "--steps", "2"],
}


# the file of each command that is blanked when it is staged
_BLANKED = {"evolve": "rho_z_t0002.csv", "volatility": "rho_dz_t0002.csv",
            "compare-saddle": "saddle_ratio.csv", "simulate": "summary.json"}


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_empty_output_fails_before_any_file_is_in_place(tmp_path, capsys, monkeypatch, command,
                                                        existing):
    # every command stages its files, and commit checks that each output the
    # manifest lists is staged and non-empty before it renames any of them:
    # no manifest vouches for a missing file, and --out is left as found
    monkeypatch.setattr(cli, "_STAGE_BYTES", 1)  # each file is on disk as a temp file
    add = cli._Staged.add

    def blank(self, name, data):
        add(self, name, b"" if name == _BLANKED[command] else data)

    monkeypatch.setattr(cli._Staged, "add", blank)
    out = tmp_path / "new" / "run"
    if existing:
        out.mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    assert run(_SMALL_RUNS[command] + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == (f"cumvol: numerical failure: output file {_BLANKED[command]} "
                   f"missing or empty\n")
    if existing:
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
    else:
        assert not (tmp_path / "new").exists()


def test_late_simulate_failure_leaves_out_as_it_found_it(tmp_path, capsys, monkeypatch):
    # a non-finite KS value fails the run after summary.json and paths.csv
    # are staged on disk: they are unlinked, and the parents made are removed
    ref = tmp_path / "ref"
    assert run(["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2",
                "--out", str(ref)]) == 0
    monkeypatch.setattr(cli, "_STAGE_BYTES", 1)
    stream = cli.simulate_stream

    def nonfinite_ks(*args, **kwargs):
        ens = stream(*args, **kwargs)
        ens.ks[2] = math.nan
        return ens

    monkeypatch.setattr(cli, "simulate_stream", nonfinite_ks)
    out = tmp_path / "new" / "sim"
    assert run(["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1", "--paths", "1000",
                "--steps", "2", "--paths-csv", "--against", str(ref), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == ("cumvol: domain error: ks_report.json.ks_per_step[1].ks is not finite: "
                   "the inputs' scale exceeds float64 here\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ref"]


@pytest.mark.parametrize("noise", ["gaussian:sigma=1", "lorentzian:gamma=1"])
def test_kernel_over_the_cap_is_domain_error(tmp_path, capsys, noise):
    # 16 cells of width 6.25e-10 need a kernel of about 1e10 cells, 137 GiB
    # for the Gaussian and more for the Lorentzian: refused before allocating
    out = tmp_path / "x"
    assert run(["evolve", "--g", "0.2", "--noise", noise, "--steps", "2",
                "--grid", "0,1e-8,16", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    label = parse_noise_spec(noise).label()
    assert err.startswith(f"cumvol: domain error: {label} needs a kernel of ")
    assert err.endswith(" cells at grid spacing 6.25e-10, more than 4194304\n")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_out_that_cannot_be_a_directory_is_usage_error(tmp_path, monkeypatch, capsys, command,
                                                       below):
    # an --out that is a file, or lies below one, is refused before any work:
    # simulate would otherwise draw all its paths before its first write
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking --out")

    for name in ("z_steps", "y_steps", "steady_state_volatility", "simulate_stream"):
        monkeypatch.setattr(cli, name, no_work)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n", encoding="utf-8")
    out = blocker / "sub" / "run" if below else blocker
    assert run(_SMALL_RUNS[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"cumvol: invalid input: --out {out}: {blocker} is not a directory\n"
    assert blocker.read_text(encoding="utf-8") == "kept\n"
    assert list(tmp_path.iterdir()) == [blocker]


def test_table_noise_that_is_a_directory_is_usage_error(tmp_path, monkeypatch, capsys):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --noise")

    monkeypatch.setattr(cli, "simulate_stream", no_simulation)
    out = tmp_path / "x"
    assert run(["simulate", "--g", "0.2", "--noise", f"table:{tmp_path}", "--paths", "1000",
                "--steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"noise table '{tmp_path}' is not an existing file" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_grid_point_cap_is_usage_error(tmp_path, capsys):
    # rejected while parsing, before any array is allocated
    out = tmp_path / "x"
    assert run(["evolve", "--g", "0.2", "--noise", "gaussian:sigma=1", "--steps", "2",
                "--grid", "0,5,100000000000", "--out", str(out)]) == 2
    assert "n <= 4194304" in capsys.readouterr().err
    assert not out.exists()
    assert cli._grid_arg(f"0,5,{1 << 22}") == (0.0, 5.0, 1 << 22)


def test_table_noise_round_trip(tmp_path):
    table = tmp_path / "noise.csv"
    table.write_text("x,density\n-0.5,0.5\n0,1.0\n0.5,0.5\n", encoding="utf-8")
    out = tmp_path / "tab"
    code = run(["evolve", "--g", "0.1", "--noise", f"table:{table}", "--steps", "3",
                "--grid", "0,10,1024", "--out", str(out)])
    assert code == 0
    assert len(read_manifest(out)["steps"]) == 3
