"""Benchmark of the cumvol command line.

One run drives ``cumvol.cli.main(argv)`` in this fresh interpreter as a
closed loop: a single caller runs the workload's commands back to back,
repeating the whole workload until ``--seconds`` are measured, with
``CUMVOL_THREADS=1``. Every output is checked against small reference
values in ``reference.json``. The last line of stdout is one JSON object
with the end-to-end metrics (``--trace 0``) or, from an outside-in traced
run, the per-layer metrics (``--trace 1``):

    python3 perfbench/run.py --workload saddle_sweep --seed 1 --seconds 20 --trace 0

The first iteration is a warm-up: checked, not timed. The end-to-end time
is ``wall_ref``, the median iteration's wall time counted in durations of
a fixed reference loop that ``speed.SpeedProbe`` times every 0.25 s while
the commands run, because the shared hosts this runs on drift in speed by
tens of percent within a minute; the plain ``wall_s`` median is printed
and kept in the result file beside it.

``--workload all`` runs every workload in its own process and prints one
table; ``--smoke`` shrinks the inputs so that this takes seconds, runs both
trace modes and checks that every metric named in BENCHMARK.json is
emitted with its unit:

    python3 perfbench/run.py --workload all --smoke

Run from the root of a checkout. Work files go to ``.perfbench_work/``;
each run leaves its full result (environment, samples, metrics) and, when
traced, its spans under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# numpy and cumvol are imported inside functions only: a module-level import
# would load numpy before ``import cumvol.cli`` is timed for setup_s.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

# import cumvol.cli in at least this many fresh interpreters besides this
# one; the median of all samples is setup_s
SETUP_SAMPLES = 2
# per-step statistics and sweep results must match the reference this closely
REL_TOL = 1e-6
ABS_TOL = 1e-12
# every density file must integrate to 1 this closely
MASS_TOL = 1e-6
# KS bound for the Monte Carlo check is KS_C / sqrt(n_paths): at C = 3 a
# single step exceeds it by sampling noise with probability 2*exp(-18),
# which leaves room for the grid's own discretisation error
KS_C = 3.0

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {src!r}); "
                "t = time.perf_counter(); import cumvol.cli; "
                "print(time.perf_counter() - t)")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One cumvol command; ``label`` names its output directory and reference."""

    label: str
    argv: tuple

    def out(self, work: Path) -> Path:
        return work / "out" / self.label

    def full_argv(self, work: Path) -> list:
        return [*self.argv, "--out", str(self.out(work))]


def saddle_sweep(smoke: bool, rng: random.Random, work: Path):
    """The paper's headline sweep; the seed only orders the sweep points."""
    g, sweep = ("0.5", ["0.01", "0.04"]) if smoke else (
        "0.1", ["0.01", "0.04", "0.16", "0.64", "1.0"])
    rng.shuffle(sweep)
    return [], [Command("sweep", ("compare-saddle", "--g", g, "--sigma-sweep", ",".join(sweep)))]


STEP_NOISES = (("gauss1", "gaussian:sigma=1"), ("gauss01", "gaussian:sigma=0.1"),
               ("lorentz1", "lorentzian:gamma=1"))


def step_outputs(smoke: bool, rng: random.Random, work: Path):
    """The six README per-step commands; the seed only orders them."""
    size = ("--steps", "3", "--grid", "0,20,1024") if smoke else ("--steps", "30")
    fixed = ("--tol", "1e-4", "--grid", "0,20,1024") if smoke else ()
    cmds = [Command(f"evolve_{name}", ("evolve", "--g", "0.2", "--noise", spec, *size))
            for name, spec in STEP_NOISES]
    cmds += [Command(f"volatility_{name}", ("volatility", "--g", "0.2", "--noise", spec, *size))
             for name, spec in STEP_NOISES if name != "gauss01"]
    cmds.append(Command("volatility_fixed_gauss01",
                        ("volatility", "--g", "0.2", "--noise", "gaussian:sigma=0.1",
                         "--until-converged", *fixed)))
    rng.shuffle(cmds)
    return [], cmds


def mc_oracle(smoke: bool, rng: random.Random, work: Path):
    """Monte Carlo oracle against an evolve run made before the timed region."""
    paths, steps = ("20000", "5") if smoke else ("1000000", "30")
    ref = Command("mc_reference", ("evolve", "--g", "0.2", "--noise", "gaussian:sigma=1",
                                   "--steps", steps))
    sim = Command("simulate", ("simulate", "--g", "0.2", "--noise", "gaussian:sigma=1",
                               "--paths", paths, "--steps", steps,
                               "--seed", str(rng.randrange(2**31)),
                               "--against", str(ref.out(work))))
    return [ref], [sim]


WORKLOADS = {"saddle_sweep": saddle_sweep, "step_outputs": step_outputs,
             "mc_oracle": mc_oracle}


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_xy(path: Path):
    import numpy as np

    text = path.read_text(encoding="utf-8")
    body = text[text.index("\n") + 1:].rstrip("\n").replace("\n", ",")
    return np.fromstring(body, sep=",").reshape(-1, 2).T


def _mismatch(what: str, got: list, want: list) -> list:
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, reference has {len(want)}"]
    for i, (a, b) in enumerate(zip(got, want)):
        if not abs(a - b) <= REL_TOL * abs(b) + ABS_TOL:
            return [f"{what}[{i}] = {a!r}, reference {b!r}"]
    return []


def facts(cmd: Command, out: Path) -> dict:
    """The small values of a compare-saddle, evolve or volatility command's
    outputs that reference.json stores."""
    argv = cmd.argv
    if argv[0] == "compare-saddle":
        lines = (out / "saddle_ratio.csv").read_text(encoding="utf-8").splitlines()[1:]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        return {"points": {repr(r[0]): [r[1], r[2]] for r in sorted(rows)}}
    manifest = _load_json(out / "manifest.json")
    prefix = "dz_" if argv[0] == "volatility" else ""
    found = {
        "files": sorted(manifest["outputs"]),
        "mean": [row[prefix + "mean"] for row in manifest["steps"]],
        "variance": [row[prefix + "variance"] for row in manifest["steps"]],
    }
    if (out / "volatility_report.json").exists():
        found["report_variance"] = _load_json(out / "volatility_report.json")["variance"]
    return found


def check(cmd: Command, out: Path, reference: dict) -> list:
    """Problems with a command's outputs; an empty list means they are correct."""
    argv = cmd.argv
    if argv[0] == "simulate":
        return _check_simulate(argv, out)
    want = reference.get(cmd.label)
    if want is None:
        return [f"{cmd.label}: no reference values"]
    got = facts(cmd, out)
    problems = []
    if argv[0] == "compare-saddle":
        manifest = _load_json(out / "manifest.json")
        if any(p["converged_at"] is None for p in manifest["points"]):
            problems.append("a sweep point did not converge")
        if sorted(got["points"]) != sorted(want["points"]):
            return problems + [f"sweep points {sorted(got['points'])} differ from the reference"]
        for key, values in want["points"].items():
            problems += _mismatch(f"sigma_a_sq={key} (ratio, variance)", got["points"][key], values)
        return problems
    listed = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    if got["files"] != want["files"] or listed != want["files"]:
        problems.append("output file list differs from the reference")
    for key in ("mean", "variance"):
        problems += _mismatch(f"{cmd.label} per-step {key}", got[key], want[key])
    if ("report_variance" in got) != ("report_variance" in want):
        problems.append("volatility_report.json presence differs from the reference")
    elif "report_variance" in want:
        problems += _mismatch("report variance", [got["report_variance"]],
                              [want["report_variance"]])
    import numpy as np

    for name in got["files"]:
        if name.endswith(".csv"):
            x, v = _read_xy(out / name)
            mass = float(np.trapezoid(v, x))
            if not abs(mass - 1.0) <= MASS_TOL:
                problems.append(f"{name} integrates to {mass!r}")
    return problems


def _check_simulate(argv: tuple, out: Path) -> list:
    paths = int(argv[argv.index("--paths") + 1])
    steps = int(argv[argv.index("--steps") + 1])
    summary = _load_json(out / "summary.json")
    ks_rows = _load_json(out / "ks_report.json")["ks_per_step"]
    ks_max = _load_json(out / "manifest.json")["ks_max"]
    bound = KS_C / math.sqrt(paths)
    problems = []
    if summary["n_paths"] != paths or len(summary["var_dz"]) != steps:
        problems.append("summary.json does not describe the requested ensemble")
    if [r["t"] for r in ks_rows] != list(range(1, steps + 1)):
        problems.append("ks_report.json does not cover every step")
    if ks_max is None or not ks_max < bound:
        problems.append(f"ks_max {ks_max!r} is not below {bound:.3g}")
    return problems


def digest(out: Path) -> tuple[str, int]:
    """Hash and total size of a command's outputs, ignoring the manifest timestamp."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        size += len(data)
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("created_utc", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def call_cli(cli, argv: list) -> int:
    """One operation: ``cli.main(argv)``; usage errors and crashes are failures."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) and exc.code else 2
        except Exception:
            traceback.print_exc()
            return 1


class Loop:
    """Runs a workload's commands back to back and checks every result."""

    def __init__(self, cli, cmds: list, work: Path, reference: dict, probe=None):
        self.cli, self.cmds, self.work, self.reference = cli, cmds, work, reference
        self.probe = probe  # a speed.SpeedProbe, or None to time without probes
        self.refs: list = []  # per probed iteration, its time in reference loops
        self.attempted = 0
        self.failed = 0
        self.expected: dict = {}  # label -> (passed first check, digest)
        self.output_bytes = 0
        self.problems: list = []

    def iterate(self) -> float:
        """Run every command once; returns the wall time of the commands,
        without the probes' own time when probed."""
        for cmd in self.cmds:
            shutil.rmtree(cmd.out(self.work), ignore_errors=True)
        gc.collect()
        codes = []
        if self.probe is not None:
            self.probe.start()
        t0 = time.perf_counter()
        for cmd in self.cmds:
            codes.append(call_cli(self.cli, cmd.full_argv(self.work)))
        wall = time.perf_counter() - t0
        if self.probe is not None:
            wall, refs = self.probe.stop()
            self.refs.append(refs)
        self.output_bytes = 0
        for cmd, code in zip(self.cmds, codes):
            self.attempted += 1
            ok = code == 0 and self._outputs_ok(cmd)
            if code != 0:
                self.problems.append(f"{cmd.label}: exit code {code}")
            self.failed += not ok
        return wall

    def _outputs_ok(self, cmd: Command) -> bool:
        out = cmd.out(self.work)
        try:
            found, size = digest(out)
            self.output_bytes += size
            if cmd.label not in self.expected:
                problems = check(cmd, out, self.reference)
                self.problems += [f"{cmd.label}: {p}" for p in problems]
                self.expected[cmd.label] = (not problems, found)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.problems.append(f"{cmd.label}: unreadable outputs ({exc!r})")
            return False
        passed, first = self.expected[cmd.label]
        if found != first:
            self.problems.append(f"{cmd.label}: outputs differ between iterations")
        return passed and found == first

    def warm_up(self) -> None:
        """One untimed iteration, checked like the rest: the first iteration
        in a fresh interpreter also pays for lazy imports and first-touch
        page faults that later ones do not."""
        self.iterate()
        self.refs.clear()

    def measure(self, budget: float, on_iteration=None) -> list:
        """Iterate until one more iteration would take the measured time past
        ``budget`` seconds; always at least once."""
        walls = []
        while True:
            walls.append(self.iterate())
            if on_iteration is not None:
                on_iteration(walls[-1])
            if sum(walls) + statistics.median(walls) > budget:
                return walls


def setup_samples(count: int) -> list:
    """Seconds to ``import cumvol.cli`` in ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=str(SRC))],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def import_pdfgrid_seconds(count: int) -> float:
    """Median cumulative import time of cumvol.pdfgrid from ``-X importtime``."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             f"import sys; sys.path.insert(0, {str(SRC)!r}); import cumvol.pdfgrid"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "cumvol.pdfgrid":
                samples.append(int(fields[1]) * 1e-6)
    return statistics.median(samples)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    with contextlib.suppress(OSError, ValueError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "CUMVOL_THREADS": os.environ.get("CUMVOL_THREADS"),
        "cpu": cpu,
        "cache": caches,
        "seed": seed,
    }


def metric_units() -> dict:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(args) -> int:
    if not (SRC / "cumvol" / "cli.py").is_file() or not REFERENCE.is_file():
        print(f"perfbench: no cumvol sources under {SRC} (run from a full checkout)",
              file=sys.stderr)
        return 2
    os.environ["CUMVOL_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cumvol.cli as cli
    own_import = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported cumvol from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    units = metric_units()[args.trace]
    size = "smoke" if args.smoke else "full"
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[size]
    env = environment(args.seed)
    work = WORK / f"{args.workload}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}"
    try:
        setup, cmds = WORKLOADS[args.workload](args.smoke, random.Random(args.seed), work)
        for cmd in setup:
            code = call_cli(cli, cmd.full_argv(work))
            if code != 0:
                print(f"perfbench: set-up command {cmd.label} exited {code}", file=sys.stderr)
                return 1
        probe = None
        if not args.trace:
            from speed import SpeedProbe

            probe = SpeedProbe()
        loop = Loop(cli, cmds, work, reference, probe)
        loop.warm_up()
        detail: dict = {"environment": env, "workload": args.workload, "size": size,
                        "commands": [c.full_argv(work) for c in cmds]}
        if args.trace:
            values = traced_metrics(loop, args.seconds, detail, results / f"{tag}-spans.csv.gz")
            samples = 1 if args.smoke else SETUP_SAMPLES
            values["setup.import_pdfgrid_s"] = import_pdfgrid_seconds(samples)
        else:
            # import samples after the first iterations rather than all at the
            # end, so that setup_s spans more of the run's host-speed drift
            setups = [own_import]
            wanted = 1 if args.smoke else SETUP_SAMPLES + 1
            walls = loop.measure(args.seconds, on_iteration=lambda _: setups.extend(
                setup_samples(min(1, wanted - len(setups)))))
            setups += setup_samples(wanted - len(setups))
            values = {
                "wall_ref": statistics.median(loop.refs),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            detail.update(wall_samples=walls, wall_s=statistics.median(walls),
                          wall_ref_samples=loop.refs, setup_samples=setups,
                          fail_ratio=loop.failed / loop.attempted)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = loop.failed == 0 and not loop.problems
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail.update(problems=loop.problems, result=result)
    (results / f"{tag}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    for problem in loop.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    info = {"environment": env}
    if not args.trace:
        info.update(wall_s=detail["wall_s"], fail_ratio=detail["fail_ratio"])
        print(f"{args.workload}: wall_s {detail['wall_s']:.4g} s and wall_ref "
              f"{values['wall_ref']:.4g} ref, medians of {len(walls)} samples; "
              f"fail_ratio {detail['fail_ratio']:g}")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def traced_metrics(loop: Loop, seconds: int, detail: dict, spans_path: Path) -> dict:
    """Untraced then traced iterations; per-layer metrics from the traced ones.

    Every traced iteration's outputs are compared with those of the first
    untraced one, so a wrapper that changed a result shows as a failure.
    """
    from tracer import LAYER_METRICS, Tracer

    plain = loop.measure(seconds / 2)
    tracer = Tracer()
    marks = [tracer.mark()]
    tracer.install()
    try:
        traced = loop.measure(seconds / 2, on_iteration=lambda _: marks.append(tracer.mark()))
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    iterations = list(zip(marks, marks[1:]))
    per_iteration = [tracer.layer_metrics(lo, hi) for lo, hi in iterations]
    coverage = [tracer.root_seconds(lo, hi) / wall for (lo, hi), wall in zip(iterations, traced)]
    if min(coverage) < 0.99:
        loop.problems.append(f"root spans cover only {min(coverage):.3f} of wall_s")
    values = {name: statistics.median(it[name] for it in per_iteration)
              for name in per_iteration[0]}
    values["cli.output_bytes"] = loop.output_bytes
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    detail.update(untraced_wall_samples=plain, traced_wall_samples=traced,
                  root_coverage=coverage, per_iteration=per_iteration,
                  layer_moves={name: moves for name, _, _, moves in LAYER_METRICS})
    return values


# ----------------------------------------------------------------------
# all workloads
# ----------------------------------------------------------------------


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    units = metric_units()
    modes = (0, 1) if args.smoke else (args.trace,)
    broken = []
    for trace in modes:
        rows = []
        for name in WORKLOADS:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            try:
                *_, info, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
            except ValueError:
                broken.append(f"{name} (trace {trace}): exit {proc.returncode}, no result")
                continue
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != units[trace]:
                broken.append(f"{name} (trace {trace}): metrics or units differ "
                              "from BENCHMARK.json")
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                broken.append(f"{name} (trace {trace}): exit {proc.returncode}, "
                              f"correct={result['correct']}, failed={result['failed']}")
            rows.append((name, result, info))
        if rows:
            _print_table(rows, units[trace])
    for problem in broken:
        print(f"perfbench: {problem}", file=sys.stderr)
    return 1 if broken else 0


def _print_table(rows: list, units: dict) -> None:
    """One column per workload: the result's metrics, then wall_s in plain
    seconds (trace 0 only) and fail_ratio."""
    units = {**units, **({"wall_s": "s"} if "wall_s" in rows[0][2] else {}),
             "fail_ratio": "ratio"}
    print("metric".ljust(32) + "".join(w.rjust(16) for w, _, _ in rows))
    for name, unit in units.items():
        cells = []
        for _, result, info in rows:
            if name == "fail_ratio":
                cells.append(f"{result['failed'] / result['attempted']:.6g}")
            elif name == "wall_s":
                cells.append(f"{info['wall_s']:.6g}")
            else:
                cells.append(f"{result['metrics'][name]['value']:.6g}")
        print(f"{name} [{unit}]".ljust(32) + "".join(c.rjust(16) for c in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs that run in seconds")
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.smoke:
            args.seconds = 1
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
