import json
import math

import numpy as np
import pytest

import cumvol.cli as cli
import cumvol.montecarlo as mc
from cumvol import GriddedPdf, gaussian
from cumvol.cli import main


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
    assert len(first) == 2049
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
    assert manifest["convergence"]["converged_at"] is not None
    report = json.loads((out / "volatility_report.json").read_text(encoding="utf-8"))
    assert report["ratio_to_narrow"] == pytest.approx(1.0, abs=0.05)
    # the report describes the final density of the iterated trace itself
    last = manifest["steps"][-1]
    assert report["converged_at"] == manifest["convergence"]["converged_at"] == last["t"]
    assert report["variance"] == last["dz_variance"]
    assert report["solver"]["method"] == "power"
    assert report["solver"]["applications"] == last["t"] - 1
    # growth-increment densities settle: early steps change far more than late
    l1 = [s["y_l1_prev"] for s in manifest["steps"] if s["y_l1_prev"] is not None]
    assert l1[0] > 100 * l1[-1]


def test_volatility_rejects_nonpositive_drift_with_convergence_flag(tmp_path):
    code = run(["volatility", "--g", "-0.2", "--noise", "gaussian:sigma=0.1",
                "--until-converged", "--out", str(tmp_path / "vneg")])
    assert code == 4


def test_compare_saddle_sweep(tmp_path):
    out = tmp_path / "sweep"
    code = run(["compare-saddle", "--g", "0.2", "--sigma-sweep", "0.0025,0.01",
                "--out", str(out), "--tol", "1e-8"])
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

    # past the cap, the rows are the first paths of the in-memory ensemble,
    # taken across blocks (the last one partial), and the summary is its summary
    monkeypatch.setattr(mc, "BLOCK_PATHS", 4096)
    out = tmp_path / "capped"
    code = run(["simulate", "--g", "0.2", "--noise", "gaussian:sigma=1",
                "--paths", "10050", "--steps", "3", "--seed", "1", "--paths-csv",
                "--out", str(out)])
    assert code == 0
    e = mc.simulate(0.2, gaussian(1.0), t_max=3, n_paths=10_050, seed=1)
    expected = ["path,z0,z1,z2,z3\n"]
    for i, row in enumerate(e.z[:10_000]):
        expected.append(f"{i}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    assert (out / "paths.csv").read_bytes() == "".join(expected).encode("utf-8")
    summary = json.dumps(e.summary(), indent=2, sort_keys=True) + "\n"
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
    # the streamed counts give exactly the in-memory ensemble's statistic
    e = mc.simulate(0.2, gaussian(1.0), t_max=5, n_paths=20_000, seed=3)
    steps = read_manifest(ref)["steps"]
    for row, step in zip(ks["ks_per_step"], steps):
        pdf = GriddedPdf.from_csv(ref / step["file"], truncated_mass=step["truncated_mass"])
        assert row["ks"] == mc.empirical_cdf_distance(e, row["t"], pdf)


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
