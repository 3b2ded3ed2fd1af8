"""Command-line front end.

Subcommands:

* ``evolve``          -- density of log cumulative production per time step
* ``volatility``      -- reversed recursion + growth-increment densities
* ``compare-saddle``  -- exact-vs-narrow-formula ratio over a noise sweep
* ``simulate``        -- Monte Carlo oracle, optionally checked against a run

Exit codes: 0 success, 2 usage error, 3 numerical-invariant failure,
4 domain-validity failure. Every run writes a manifest.json listing the
produced files plus convergence and truncation diagnostics.

``main`` opens the run's one writer, ``_Staged``, and hands it to the
command. Its ``commit`` builds the manifest from what was staged: the
echoed arguments, every file as ``outputs`` and, for a per-step run, each
step's row as ``steps``. It renames the staged files into place, the
manifest last, only once the run has succeeded: a run that fails, a
non-converging ``--until-converged`` run included, leaves ``--out`` as it
found it. ``evolve`` and ``volatility`` iterate the public streams
``z_steps`` and ``y_steps`` and hand each step to ``_Staged.step``, which
checks its manifest row and stages its CSV text, so the density is dropped
and besides its manifest rows a run holds O(grid) memory whatever
``--steps`` is.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConvergenceError, DomainError, MassDefectError
from .evolution import (
    _quantile_fields,
    _stationary,
    default_y_grid,
    default_z_grid,
    power_volatility,
    steady_state_volatility,
    volatility_pdf,
    y_steps,
    z_steps,
)
from .montecarlo import simulate_stream
from .noise import gaussian, parse_noise_spec
from .pdfgrid import GriddedPdf, GridSpec, cell_grid, csv_text

DEFAULT_GRID_POINTS = 8192
MAX_GRID_POINTS = 1 << 22  # above the default grids' cap of 1 << 21

# Most bytes of staged file text that a run holds, the file being
# made included, before it writes them to temp files in one burst. Writing
# each step's file as soon as its step ended cost 9-17% of the six README
# per-step commands' time; bursts of 512 KiB cost about 1%, and 2 MiB
# bursts held 1.3 MB more at peak.
_STAGE_BYTES = 512 * 1024

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


def _int_at_least(low: int):
    """An argparse type for integers >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"value must be >= {low}, got {value}")
        return value
    return parse


def _sweep_arg(text: str):
    items = [p for p in (s.strip() for s in text.split(",")) if p]
    if not items:
        raise argparse.ArgumentTypeError("--sigma-sweep must list at least one variance")
    try:
        values = [float(p) for p in items]
    except ValueError:
        raise argparse.ArgumentTypeError("--sigma-sweep expects comma-separated numbers")
    if not all(0.0 < v < math.inf for v in values):  # nan fails too
        raise argparse.ArgumentTypeError(f"--sigma-sweep variances must be finite and "
                                         f"positive, got {text!r}")
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


def _json_text(payload: dict, name: str) -> bytes:
    """Strict JSON text of a file ``name``, after ``_check_finite``."""
    _check_finite(payload, name)
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


class _Staged:
    """The one writer of a run: ``main`` opens it for every command, and
    ``commit`` puts the staged files in place together, the manifest last.

    Opening it refuses an ``--out`` whose nearest existing path is not a
    directory, before any work. ``add`` holds a file's text in memory, and
    writes all the held text to temp files in the output directory, which
    the first such burst creates, once one more file of the same size would
    take it past ``_STAGE_BYTES``. Used as a context manager, a run that
    raises unlinks its temp files and removes the directories it created,
    so the output directory is left as it was found.
    """

    def __init__(self, args):
        self.args = args
        self.out_dir = Path(args.out)
        found = next((p for p in (self.out_dir, *self.out_dir.parents) if p.exists()), None)
        if found is not None and not found.is_dir():
            raise ValueError(f"--out {args.out}: {found} is not a directory")
        self.names: list[str] = []  # every file added, in order
        self.rows: list[dict] = []  # a per-step run's manifest rows, in step order
        self._held: list[bytes] = []  # text of the last names, not yet written
        self._held_bytes = 0
        self._temps: list[str] = []  # temp files of the first names
        self._made: list[Path] | None = None  # directories created, deepest first

    def __enter__(self) -> "_Staged":
        return self

    def __exit__(self, kind, value, traceback) -> None:
        if kind is None:
            return
        for tmp in self._temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        for made in self._made or ():
            with contextlib.suppress(OSError):
                made.rmdir()

    def add(self, name: str, data: bytes) -> None:
        self.names.append(name)
        self._held.append(data)
        self._held_bytes += len(data)
        if self._held_bytes + len(data) > _STAGE_BYTES:
            self._write_held()

    def step(self, name: str, row: dict, pdf: GriddedPdf) -> None:
        """Keep a step's manifest row, naming its file, and stage ``pdf`` as
        that file; the row is checked finite before the file is staged."""
        row["file"] = name
        _check_finite(row, f"manifest.json.steps[{len(self.rows)}]")
        self.rows.append(row)
        self.add(name, pdf.csv_bytes())

    def _write_held(self) -> None:
        if self._made is None:
            self._made = []
            for path in (self.out_dir, *self.out_dir.parents):
                if path.exists():
                    break
                self._made.append(path)
            self.out_dir.mkdir(parents=True, exist_ok=True)
        for data in self._held:
            fd, tmp = tempfile.mkstemp(dir=self.out_dir, suffix=".tmp")
            self._temps.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        self._held.clear()
        self._held_bytes = 0

    def commit(self, extra: dict) -> int:
        """Stage manifest.json, which echoes the run's arguments, lists every
        file staged so far as ``outputs``, holds a per-step run's rows as
        ``steps`` and adds ``extra``; then put every staged file in place, the
        manifest last, unless an output is empty. Returns the output count."""
        outputs = list(self.names)
        config = {key: value.label() if hasattr(value, "label") else value
                  for key, value in vars(self.args).items() if key != "func"}
        manifest = {"command": self.args.command, "tool": "cumvol", "version": __version__,
                    "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                    "config": config, "outputs": outputs, **extra}
        if self.rows:
            manifest["steps"] = self.rows
        self.add("manifest.json", _json_text(manifest, "manifest.json"))
        self._write_held()
        for tmp, name in zip(self._temps, outputs):
            if not os.path.getsize(tmp):
                raise MassDefectError(f"output file {name} missing or empty")
        for tmp, name in zip(self._temps, self.names):
            os.replace(tmp, self.out_dir / name)
        self._temps.clear()
        return len(outputs)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_evolve(args, staged: _Staged) -> int:
    grid = (cell_grid(*args.grid[1:]) if args.grid is not None
            else default_z_grid(args.g, args.noise, args.steps, n_points=DEFAULT_GRID_POINTS))
    for rec in z_steps(args.g, args.noise, grid, args.steps):
        staged.step(f"rho_z_t{rec.t:04d}.csv", {
            "t": rec.t, "mean": rec.pdf.mean(), "variance": rec.pdf.variance(),
            "truncated_mass": rec.pdf.truncated_mass, "mass_defect": rec.mass_defect,
            "l1_prev": rec.l1_prev, **_quantile_fields(rec.pdf)}, rec.pdf)
    count = staged.commit({"grid": asdict(grid)})
    print(f"evolve: wrote {count} density files to {staged.out_dir}")
    return 0


def cmd_volatility(args, staged: _Staged) -> int:
    if args.steps is None:  # resolved before the config is echoed
        args.steps = 10_000 if args.until_converged else 50
    # no step where y has no stationary law; a steady state's grid is sized at g + E[a]
    pair = _stationary(args.g, args.noise) if args.until_converged else (args.g, args.noise)
    grid = (cell_grid(*args.grid[1:]) if args.grid is not None
            else default_y_grid(*pair, n_points=DEFAULT_GRID_POINTS))
    for rec in y_steps(args.g, args.noise, grid, args.steps, args.tol):
        dz = volatility_pdf(rec.pdf)
        staged.step(f"rho_dz_t{rec.t:04d}.csv", {
            "t": rec.t, "dz_grid": asdict(dz.grid), "dz_mean": dz.mean(),
            "dz_variance": dz.variance(), "truncated_mass": dz.truncated_mass,
            "y_l1_prev": rec.l1_prev}, dz)
    if args.until_converged:
        # read from the final step's density, so each step's is built once
        report = power_volatility(args.g, args.noise, rec, dz)[0]
        staged.add("volatility_report.json", _json_text(asdict(report), "volatility_report.json"))
    count = staged.commit({"grid": asdict(grid),
                           "convergence": {"converged_at": rec.t if rec.converged else None}})
    print(f"volatility: wrote {count} files to {staged.out_dir}")
    return 0


def _sweep_point(g: float, sigma_sq: float) -> dict:
    rep = steady_state_volatility(g, gaussian(math.sqrt(sigma_sq)))
    return {
        "sigma_a_sq": sigma_sq,
        "ratio": rep.ratio_to_narrow,
        "variance": rep.variance,
        "narrow_variance": rep.narrow_variance,
        "converged_at": rep.solver["applications"],
        "truncated_mass": rep.truncated_mass,
        "solver": rep.solver,
    }


def cmd_compare_saddle(args, staged: _Staged) -> int:
    rows = [_sweep_point(args.g, s2) for s2 in args.sigma_sweep]
    columns = ("sigma_a_sq", "ratio", "variance", "narrow_variance", "truncated_mass")
    staged.add("saddle_ratio.csv", csv_text(",".join(columns),
                                            [[r[c] for c in columns] for r in rows]))
    staged.commit({"points": rows})
    print(f"compare-saddle: wrote saddle_ratio.csv to {staged.out_dir}")
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
    try:
        manifest = json.loads(ref.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DomainError(f"--against run {against} has no JSON manifest: {exc}") from exc
    config = manifest.get("config", {}) if isinstance(manifest, dict) else None
    if not isinstance(config, dict):
        raise DomainError(f"--against run {against} has no run's manifest: not a JSON object")
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


def cmd_simulate(args, staged: _Staged) -> int:
    targets = None if args.against is None else _load_against(args)
    cap = min(args.paths, 10_000) if args.paths_csv else 0
    run = simulate_stream(args.g, args.noise, t_max=args.steps, n_paths=args.paths,
                          seed=args.seed, targets=targets, head_paths=cap)
    extra: dict = {"paths_csv_capped_at": 10_000 if args.paths_csv else None}
    staged.add("summary.json", _json_text(run.summary, "summary.json"))
    if args.paths_csv:
        header = "path," + ",".join(f"z{t}" for t in range(args.steps + 1))
        index = np.arange(run.head.shape[0], dtype=float)  # '%.17g' of i is str(i)
        staged.add("paths.csv", csv_text(header, np.column_stack((index, run.head))))
    if targets is not None:
        ks_rows = [{"t": t, "ks": ks} for t, ks in run.ks.items()]
        staged.add("ks_report.json", _json_text({"against": str(args.against),
                                                 "ks_per_step": ks_rows}, "ks_report.json"))
        extra["ks_max"] = max((r["ks"] for r in ks_rows), default=None)
    count = staged.commit(extra)
    print(f"simulate: wrote {count} files to {staged.out_dir}")
    return 0


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
    p.add_argument("--steps", type=_int_at_least(1), required=True)
    p.add_argument("--grid", type=_grid_arg, default=None,
                   help="min,max,n with min=0; default sized from the drift and "
                        f"noise width with {DEFAULT_GRID_POINTS} points")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("volatility", parents=[common],
                       help="evolve the reversed variable and emit growth-increment densities")
    p.add_argument("--steps", type=_int_at_least(1), default=None,
                   help="horizon: the most steps to run (default 50, or 10000 with "
                        "--until-converged)")
    p.add_argument("--grid", type=_grid_arg, default=None)
    p.add_argument("--tol", type=_relative_tol, default=1e-8,
                   help="L1 distance between successive densities to stop at, in (0, 1)")
    p.add_argument("--until-converged", action="store_true",
                   help="iterate to the fixed point and report it (exit 4 unless g + E[a] > 0)")
    p.set_defaults(func=cmd_volatility)

    p = sub.add_parser("compare-saddle",
                       help="ratio of exact steady-state volatility to the narrow-noise formula")
    p.add_argument("--g", type=_finite_float, required=True)
    p.add_argument("--sigma-sweep", type=_sweep_arg, required=True,
                   help="comma-separated noise variances sigma_a^2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare_saddle)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo path oracle")
    p.add_argument("--paths", type=_int_at_least(1), required=True)
    p.add_argument("--steps", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
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
        with _Staged(args) as staged:  # refuses a bad --out before any work
            return args.func(args, staged)
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
