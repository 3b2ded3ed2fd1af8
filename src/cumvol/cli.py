"""Command-line front end.

Subcommands:

* ``evolve``          -- density of log cumulative production per time step
* ``volatility``      -- reversed recursion + growth-increment densities
* ``compare-saddle``  -- exact-vs-narrow-formula ratio over a noise sweep
* ``simulate``        -- Monte Carlo oracle, optionally checked against a run

Exit codes: 0 success, 2 usage error, 3 numerical-invariant failure,
4 domain-validity failure. Every run writes a manifest.json listing the
produced files plus convergence and truncation diagnostics; data files are
written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConvergenceError, DomainError, MassDefectError
from .evolution import (
    EvolutionConfig,
    _quantile_fields,
    default_y_config,
    default_y_grid,
    default_z_grid,
    evolve_y,
    evolve_z,
    steady_state_volatility,
    trace_volatility,
    volatility_pdf,
)
from .montecarlo import simulate_stream
from .noise import gaussian, parse_noise_spec
from .pdfgrid import GriddedPdf, GridSpec, atomic_write_text, cell_grid, write_csv

DEFAULT_GRID_POINTS = 8192
MAX_GRID_POINTS = 1 << 22  # above the default grids' cap of 1 << 21

# argparse reads a token that starts with '-' as an option unless it matches
# the parser's negative-number pattern, whose stock form has no exponent: with
# it, "--tol -1e-9" fails with "expected one argument" while "--tol -0.1" parses.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


# ----------------------------------------------------------------------
# argument helpers
# ----------------------------------------------------------------------


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _relative_tol(text: str) -> float:
    value = _finite_float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a tolerance in (0, 1), got {text!r}")
    return value


def _noise_arg(text: str):
    try:
        return parse_noise_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _grid_arg(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--grid expects min,max,n")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("--grid expects numbers min,max,n")
    if lo != 0.0:
        raise argparse.ArgumentTypeError("--grid must start at 0 (densities live on [0, max])")
    if not hi > lo:
        raise argparse.ArgumentTypeError("--grid needs max > min")
    if not 16 <= n <= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"--grid needs 16 <= n <= {MAX_GRID_POINTS}")
    return lo, hi, n


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _sweep_arg(text: str):
    items = [p for p in (s.strip() for s in text.split(",")) if p]
    if not items:
        raise argparse.ArgumentTypeError("--sigma-sweep must list at least one variance")
    try:
        values = [float(p) for p in items]
    except ValueError:
        raise argparse.ArgumentTypeError("--sigma-sweep expects comma-separated numbers")
    if any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("--sigma-sweep variances must be positive")
    return values


def _nonfinite_field(value, where: str) -> str | None:
    """Location of the first non-finite number in a JSON payload, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else where
    if isinstance(value, dict):
        items = ((f"{where}.{key}", v) for key, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for at, v in items:
        found = _nonfinite_field(v, at)
        if found is not None:
            return found
    return None


def _check_finite(payload, name: str) -> None:
    """A non-finite number in a JSON payload is a domain error naming its field."""
    where = _nonfinite_field(payload, name)
    if where is not None:
        raise DomainError(f"{where} is not finite: the inputs' scale exceeds float64 here")


def _write_json(path: Path, payload: dict) -> None:
    """Write strict JSON after ``_check_finite``."""
    _check_finite(payload, path.name)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
                      + "\n")


def _manifest(command: str, args_dict: dict, outputs: list, extra: dict) -> dict:
    payload = {
        "command": command,
        "tool": "cumvol",
        "version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": args_dict,
        "outputs": outputs,
    }
    payload.update(extra)
    return payload


def _write_manifest(out_dir: Path, payload: dict) -> None:
    """Write manifest.json, last: it vouches for every output it lists."""
    _write_json(out_dir / "manifest.json", payload)
    for name in payload["outputs"]:
        p = out_dir / name
        if not p.exists() or p.stat().st_size == 0:
            raise MassDefectError(f"output file {name} missing or empty")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_evolve(args) -> int:
    out_dir = Path(args.out)
    if args.grid is not None:
        grid = cell_grid(*args.grid[1:])
    else:
        grid = default_z_grid(args.g, args.noise, args.steps, n_points=DEFAULT_GRID_POINTS)
    trace = evolve_z(EvolutionConfig(g=args.g, noise=args.noise, grid=grid,
                                     horizon=args.steps))

    outputs = [f"rho_z_t{rec.t:04d}.csv" for rec in trace.steps]
    rows = [{"t": rec.t, "mean": rec.pdf.mean(), "variance": rec.pdf.variance(),
             "truncated_mass": rec.pdf.truncated_mass, "mass_defect": rec.mass_defect,
             "l1_prev": rec.l1_prev, **_quantile_fields(rec.pdf), "file": name}
            for rec, name in zip(trace.steps, outputs)]
    manifest = _manifest("evolve", _echo(args), outputs, {"grid": asdict(grid), "steps": rows})
    _check_finite(manifest, "manifest.json")  # before any density is written
    for rec, name in zip(trace.steps, outputs):
        rec.pdf.to_csv(out_dir / name)
    _write_manifest(out_dir, manifest)
    print(f"evolve: wrote {len(outputs)} density files to {out_dir}")
    return 0


def cmd_volatility(args) -> int:
    if args.steps is None:  # resolved before the config is echoed
        args.steps = 10_000 if args.until_converged else 50
    if args.until_converged and not args.g > 0.0:
        raise DomainError("--until-converged requires g > 0 (no fixed point otherwise)")
    out_dir = Path(args.out)
    if args.grid is not None:
        grid = cell_grid(*args.grid[1:])
    elif args.g > 0.0:
        grid = default_y_grid(args.g, args.noise, n_points=DEFAULT_GRID_POINTS)
    else:
        raise DomainError("g <= 0 needs an explicit --grid for the reversed variable")
    config = EvolutionConfig(g=args.g, noise=args.noise, grid=grid,
                             horizon=args.steps, convergence_tol=args.tol)
    trace = evolve_y(config)
    report = None
    if args.until_converged or (args.g > 0.0 and trace.converged_at is not None):
        report = asdict(trace_volatility(trace))  # ConvergenceError if not converged
        _check_finite(report, "volatility_report.json")  # before any density is written

    outputs, rows = [], []
    for rec in trace.steps:
        dz = volatility_pdf(rec.pdf)
        name = f"rho_dz_t{rec.t:04d}.csv"
        dz.to_csv(out_dir / name)
        outputs.append(name)
        rows.append({
            "t": rec.t,
            "file": name,
            "dz_grid": asdict(dz.grid),
            "dz_mean": dz.mean(),
            "dz_variance": dz.variance(),
            "truncated_mass": dz.truncated_mass,
            "y_l1_prev": rec.l1_prev,
        })

    if report is not None:
        _write_json(out_dir / "volatility_report.json", report)
        outputs.append("volatility_report.json")

    _write_manifest(out_dir, _manifest("volatility", _echo(args), outputs, {
        "grid": asdict(grid),
        "convergence": {"converged_at": trace.converged_at},
        "steps": rows,
    }))
    print(f"volatility: wrote {len(outputs)} files to {out_dir}")
    return 0


def _sweep_point(g: float, sigma_sq: float, tol: float) -> dict:
    rep = steady_state_volatility(default_y_config(g, gaussian(math.sqrt(sigma_sq)), tol))
    return {
        "sigma_a_sq": sigma_sq,
        "ratio": rep.ratio_to_narrow,
        "variance": rep.variance,
        "narrow_variance": rep.narrow_variance,
        "converged_at": rep.solver["applications"],
        "truncated_mass": rep.truncated_mass,
        "solver": rep.solver,
    }


def cmd_compare_saddle(args) -> int:
    if not args.g > 0.0:
        raise DomainError("compare-saddle requires g > 0")
    out_dir = Path(args.out)

    rows = [_sweep_point(args.g, s2, args.tol) for s2 in args.sigma_sweep]
    manifest = _manifest("compare-saddle", _echo(args), ["saddle_ratio.csv"], {"points": rows})
    _check_finite(manifest, "manifest.json")  # before the CSV is written

    columns = ("sigma_a_sq", "ratio", "variance", "narrow_variance", "truncated_mass")
    write_csv(out_dir / "saddle_ratio.csv", ",".join(columns),
              [[r[c] for c in columns] for r in rows])
    _write_manifest(out_dir, manifest)
    print(f"compare-saddle: wrote saddle_ratio.csv to {out_dir}")
    return 0


def _load_against(args) -> dict:
    """Densities of z_t, t <= --steps, written by a previous evolve run, by step.

    The run must be an ``evolve`` run with the same ``--g`` and noise, and
    must hold every step up to ``--steps``; noise labels compare at ``:g``
    precision (six significant digits). Each file's x column must be the
    nodes of the manifest's ``grid``, bit for bit.
    """
    against = args.against
    ref = Path(against) / "manifest.json"
    if not ref.exists():
        raise DomainError(f"--against directory {against} has no manifest.json")
    manifest = json.loads(ref.read_text(encoding="utf-8"))
    config = manifest.get("config", {})
    for field, found, wanted in (("command", manifest.get("command"), "evolve"),
                                 ("config.g", config.get("g"), args.g),
                                 ("config.noise", config.get("noise"), args.noise.label())):
        if found != wanted:
            raise DomainError(f"--against run {against} has {field} {found!r}, "
                              f"not {wanted!r}")
    rows = {row["t"]: row for row in manifest.get("steps", []) if "file" in row}
    missing = next((t for t in range(1, args.steps + 1) if t not in rows), None)
    if missing is not None:
        raise DomainError(f"--against run {against} has no density for step {missing}; "
                          f"--steps {args.steps} compares steps 1..{args.steps}")
    try:
        grid = GridSpec(**manifest["grid"])
        return {t: GriddedPdf.from_csv(Path(against) / rows[t]["file"], grid,
                                       rows[t].get("truncated_mass", 0.0))
                for t in range(1, args.steps + 1)}
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise DomainError(f"--against run {against} has no densities on its manifest's "
                          f"grid: {exc}") from exc


def cmd_simulate(args) -> int:
    targets = None if args.against is None else _load_against(args)
    out_dir = Path(args.out)
    cap = min(args.paths, 10_000) if args.paths_csv else 0
    run = simulate_stream(args.g, args.noise, t_max=args.steps, n_paths=args.paths,
                          seed=args.seed, targets=targets, head_paths=cap)
    _write_json(out_dir / "summary.json", run.summary)
    outputs = ["summary.json"]

    if args.paths_csv:
        header = "path," + ",".join(f"z{t}" for t in range(args.steps + 1))
        index = np.arange(run.head.shape[0], dtype=float)  # '%.17g' of i is str(i)
        write_csv(out_dir / "paths.csv", header, np.column_stack((index, run.head)))
        outputs.append("paths.csv")

    extra: dict = {"paths_csv_capped_at": 10_000 if args.paths_csv else None}
    if targets is not None:
        ks_rows = [{"t": t, "ks": ks} for t, ks in run.ks.items()]
        _write_json(out_dir / "ks_report.json", {"against": str(args.against),
                                                 "ks_per_step": ks_rows})
        outputs.append("ks_report.json")
        extra["ks_max"] = max((r["ks"] for r in ks_rows), default=None)

    _write_manifest(out_dir, _manifest("simulate", _echo(args), outputs, extra))
    print(f"simulate: wrote {len(outputs)} files to {out_dir}")
    return 0


def _echo(args) -> dict:
    skip = {"func"}
    out = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        out[key] = value.label() if hasattr(value, "label") else value
    return out


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cumvol",
        description="Exact distribution dynamics of log cumulative production "
                    "and its volatility under i.i.d. production noise.",
    )
    parser.add_argument("--version", action="version", version=f"cumvol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--g", type=_finite_float, required=True, help="drift per time step")
    common.add_argument("--noise", type=_noise_arg, required=True,
                        help="gaussian:sigma=S | lorentzian:gamma=G | table:PATH")
    common.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("evolve", parents=[common],
                       help="evolve the density of log cumulative production")
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--grid", type=_grid_arg, default=None,
                   help="min,max,n with min=0; default sized from the drift and "
                        f"noise width with {DEFAULT_GRID_POINTS} points")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("volatility", parents=[common],
                       help="evolve the reversed variable and emit growth-increment densities")
    p.add_argument("--steps", type=_positive_int, default=None,
                   help="horizon: the most steps to run (default 50, or 10000 with "
                        "--until-converged)")
    p.add_argument("--grid", type=_grid_arg, default=None)
    p.add_argument("--tol", type=_relative_tol, default=1e-8,
                   help="L1 distance between successive densities to stop at, in (0, 1)")
    p.add_argument("--until-converged", action="store_true",
                   help="iterate to the fixed point (requires g > 0)")
    p.set_defaults(func=cmd_volatility)

    p = sub.add_parser("compare-saddle",
                       help="ratio of exact steady-state volatility to the narrow-noise formula")
    p.add_argument("--g", type=_finite_float, required=True)
    p.add_argument("--sigma-sweep", type=_sweep_arg, required=True,
                   help="comma-separated noise variances sigma_a^2")
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=_relative_tol, default=1e-9,
                   help="in (0, 1): bounds the eigensolve's Ritz estimate relative to the "
                        "eigenvalue, not the variance's error (at g=0.03, sigma_a=2, tol 1e-9 "
                        "leaves 2.4e-6 relative)")
    p.set_defaults(func=cmd_compare_saddle)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo path oracle")
    p.add_argument("--paths", type=_positive_int, required=True)
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths-csv", action="store_true",
                   help="also write per-path z values (capped at 10000 paths)")
    p.add_argument("--against", default=None,
                   help="directory of a previous evolve run to compare against (KS per step)")
    p.set_defaults(func=cmd_simulate)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"cumvol: domain error: {exc}", file=sys.stderr)
        return 4
    except (MassDefectError, ConvergenceError) as exc:
        print(f"cumvol: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"cumvol: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
