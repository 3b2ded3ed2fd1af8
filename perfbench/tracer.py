"""Outside-in tracing of cumvol's layers for the benchmark.

``Tracer.install`` replaces, from outside the package, every public function
of the ``evolution``, ``pdfgrid``, ``noise`` and ``montecarlo`` modules at
each name a cumvol module binds it under (``cumvol.cli.evolve_y``,
``cumvol.evolution.conv_mass_arrays``, ...), the public methods of
``GridSpec``, ``GriddedPdf``, ``NoiseModel`` and ``McEnsemble``, and
``cumvol.cli.main``, which gives the root span of each command. Every call
records a span (name, start, end, parent) in memory; ``uninstall`` puts the
originals back. Nothing under ``src/`` is changed.

``layer_metrics`` turns the spans of one workload iteration into the
per-layer metrics named in ``LAYER_METRICS``.
"""

from __future__ import annotations

import csv
import gzip
import inspect
import os
import sys
import time

import cumvol.cli
import cumvol.evolution
import cumvol.montecarlo
import cumvol.noise
import cumvol.pdfgrid
from cumvol.montecarlo import McEnsemble
from cumvol.noise import NoiseModel
from cumvol.pdfgrid import GriddedPdf, GridSpec

LAYER_MODULES = {
    "evolution": cumvol.evolution,
    "pdfgrid": cumvol.pdfgrid,
    "noise": cumvol.noise,
    "montecarlo": cumvol.montecarlo,
}
LAYER_CLASSES = {
    "pdfgrid": (GridSpec, GriddedPdf),
    "noise": (NoiseModel,),
    "montecarlo": (McEnsemble,),
}
ROOT_SPAN = "cli.main"

# Per-layer metrics: name, unit, which direction is better, and the
# end-to-end metric and workload a change to this layer should move.
LAYER_METRICS = (
    ("evolution.steps", "count", "lower", "wall_ref on saddle_sweep"),
    ("evolution.evolve_calls", "count", "lower", "wall_ref on step_outputs"),
    ("evolution.self_s", "s", "lower", "wall_ref on saddle_sweep"),
    ("evolution.step_ms", "ms", "lower", "wall_ref on saddle_sweep"),
    ("evolution.involution_s", "s", "lower", "wall_ref on step_outputs"),
    ("evolution.involution_calls", "count", "lower", "wall_ref on step_outputs"),
    ("evolution.trace_mb", "MB", "lower", "peak_rss_mb on saddle_sweep"),
    ("pdfgrid.conv_s", "s", "lower", "wall_ref on saddle_sweep"),
    ("pdfgrid.conv_calls", "count", "lower", "wall_ref on saddle_sweep"),
    ("pdfgrid.conv_bytes", "bytes", "lower", "wall_ref on saddle_sweep"),
    ("pdfgrid.stats_s", "s", "lower", "wall_ref on saddle_sweep"),
    ("pdfgrid.stats_calls_per_step", "calls/step", "lower",
     "wall_ref on saddle_sweep; must not rise on step_outputs"),
    ("pdfgrid.points_calls_per_step", "calls/step", "lower",
     "wall_ref on saddle_sweep; must not rise on step_outputs"),
    ("pdfgrid.csv_s", "s", "lower", "wall_ref on step_outputs"),
    ("pdfgrid.csv_bytes", "bytes", "lower", "wall_ref on step_outputs"),
    ("pdfgrid.csv_mb_per_s", "MB/s", "higher", "wall_ref on step_outputs"),
    ("pdfgrid.write_s", "s", "lower", "wall_ref on step_outputs"),
    ("pdfgrid.read_s", "s", "lower", "wall_ref on mc_oracle"),
    ("noise.kernel_s", "s", "lower", "wall_ref on saddle_sweep"),
    ("noise.kernel_calls", "count", "lower", "wall_ref on saddle_sweep"),
    ("noise.sample_s", "s", "lower", "wall_ref on mc_oracle"),
    ("montecarlo.simulate_self_s", "s", "lower", "wall_ref on mc_oracle"),
    ("montecarlo.summary_s", "s", "lower", "wall_ref on mc_oracle"),
    ("montecarlo.ks_s", "s", "lower", "wall_ref on mc_oracle"),
    ("montecarlo.path_steps_per_s", "steps/s", "higher", "wall_ref on mc_oracle"),
    ("montecarlo.ensemble_mb", "MB", "lower", "peak_rss_mb on mc_oracle"),
    ("cli.self_s", "s", "lower", "wall_ref on step_outputs"),
    ("cli.output_bytes", "bytes", "lower", "wall_ref on step_outputs"),
    ("setup.import_pdfgrid_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead_s", "s", "lower", "none: cost of tracing itself"),
)

EVOLVE = {"evolution.evolve_y", "evolution.evolve_z"}
INVOLUTION = {"evolution.volatility_pdf"}
CONV = {"pdfgrid.conv_mass_arrays"}
STATS = {f"pdfgrid.GriddedPdf.{m}" for m in (
    "integral", "moment", "mean", "variance", "std", "quantiles", "distance",
    "cdf_nodes", "cdf_at", "interp_at", "summary")}
POINTS = {"pdfgrid.GridSpec.points"}
CSV = {"pdfgrid.GriddedPdf.to_csv"}
WRITE = {"pdfgrid.atomic_write_text"}
READ = {"pdfgrid.GriddedPdf.from_csv"}
KERNEL = {"noise.NoiseModel.cell_masses"}
SAMPLE = {"noise.NoiseModel.sample", "noise.NoiseModel.sample_with"}
SIMULATE = {"montecarlo.simulate"}
SUMMARY = {"montecarlo.McEnsemble.summary"}
KS = {"montecarlo.empirical_cdf_distance"}

MB = 1e6


def _trace_size(args, kwargs, trace):
    return len(trace.steps), sum(rec.pdf.values.nbytes for rec in trace.steps)


def _conv_bytes(args, kwargs, out):
    return args[0].nbytes + args[1].nbytes + out.nbytes


def _csv_size(args, kwargs, _):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _ensemble_size(args, kwargs, ens):
    held = ens.z.nbytes + ens.dz.nbytes + (0 if ens.draws is None else ens.draws.nbytes)
    return ens.n_paths * ens.t_max, held


# Amounts recorded with a span when its call returns (computed from array
# sizes and file sizes, not timed).
MEASURES = {
    "evolution.evolve_y": _trace_size,
    "evolution.evolve_z": _trace_size,
    "pdfgrid.conv_mass_arrays": _conv_bytes,
    "pdfgrid.GriddedPdf.to_csv": _csv_size,
    "montecarlo.simulate": _ensemble_size,
}


class Tracer:
    """Span recorder that wraps cumvol's public callables while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.extras: list = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def _wrap(self, name, fn):
        names, parents, starts, ends, extras = (
            self.names, self.parents, self.starts, self.ends, self.extras)
        stack = self._stack
        measure = MEASURES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            extras.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if measure is not None:
                extras[idx] = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        sites = [m for n, m in sys.modules.items() if n == "cumvol" or n.startswith("cumvol.")]
        for layer, module in LAYER_MODULES.items():
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for site in sites:
                    if site.__dict__.get(attr) is fn:
                        self._set(site, attr, wrapped)
            for cls in LAYER_CLASSES.get(layer, ()):
                for attr, raw in vars(cls).copy().items():
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{cls.__name__}.{attr}"
                    if isinstance(raw, classmethod):
                        self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                    elif isinstance(raw, staticmethod):
                        self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
                    elif inspect.isfunction(raw):
                        self._set(cls, attr, self._wrap(name, raw))
        self._set(cumvol.cli, "main", self._wrap(ROOT_SPAN, cumvol.cli.main))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, used to slice spans per iteration."""
        return len(self.names)

    def root_seconds(self, lo: int, hi: int) -> float:
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi)
                   if self.parents[i] < lo)

    def write(self, path) -> None:
        """Write every span as gzipped CSV; ``root`` groups the spans of one command."""
        base = self.starts[0] if self.starts else 0.0
        roots = []
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "root", "name", "start_s", "end_s"])
            for i, name in enumerate(self.names):
                p = self.parents[i]
                roots.append(i if p < 0 else roots[p])
                out.writerow([i, p, roots[i], name,
                              f"{self.starts[i] - base:.9f}", f"{self.ends[i] - base:.9f}"])

    def layer_metrics(self, lo: int, hi: int) -> dict:
        """Per-layer metrics from the spans with indices in [lo, hi)."""
        names, parents = self.names, self.parents
        n = hi - lo
        dur = [self.ends[lo + k] - self.starts[lo + k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = parents[lo + k]
            if p >= lo:
                child[p - lo] += dur[k]

        def count(group):
            return sum(1 for k in range(n) if names[lo + k] in group)

        def outer(group):
            """Time inside the group, counting nested calls within it once."""
            inside = [False] * n
            total = 0.0
            for k in range(n):
                p = parents[lo + k]
                covered = p >= lo and inside[p - lo]
                member = names[lo + k] in group
                if member and not covered:
                    total += dur[k]
                inside[k] = covered or member
            return total

        def self_time(match):
            return sum(dur[k] - child[k] for k in range(n) if match(names[lo + k]))

        def extras(group):
            return [self.extras[lo + k] for k in range(n)
                    if names[lo + k] in group and self.extras[lo + k] is not None]

        def ratio(a, b):
            return a / b if b else 0.0

        traces = extras(EVOLVE)
        steps = sum(s for s, _ in traces)
        csv_s = outer(CSV)
        csv_bytes = sum(extras(CSV))
        simulate_s = outer(SIMULATE)
        ensembles = extras(SIMULATE)
        return {
            "evolution.steps": steps,
            "evolution.evolve_calls": count(EVOLVE),
            "evolution.self_s": self_time(lambda name: name.startswith("evolution.")),
            "evolution.step_ms": 1e3 * ratio(outer(EVOLVE), steps),
            "evolution.involution_s": outer(INVOLUTION),
            "evolution.involution_calls": count(INVOLUTION),
            "evolution.trace_mb": max((b for _, b in traces), default=0) / MB,
            "pdfgrid.conv_s": outer(CONV),
            "pdfgrid.conv_calls": count(CONV),
            "pdfgrid.conv_bytes": sum(extras(CONV)),
            "pdfgrid.stats_s": outer(STATS),
            "pdfgrid.stats_calls_per_step": ratio(count(STATS), steps),
            "pdfgrid.points_calls_per_step": ratio(count(POINTS), steps),
            "pdfgrid.csv_s": csv_s,
            "pdfgrid.csv_bytes": csv_bytes,
            "pdfgrid.csv_mb_per_s": ratio(csv_bytes / MB, csv_s),
            "pdfgrid.write_s": outer(WRITE),
            "pdfgrid.read_s": outer(READ),
            "noise.kernel_s": outer(KERNEL),
            "noise.kernel_calls": count(KERNEL),
            "noise.sample_s": outer(SAMPLE),
            "montecarlo.simulate_self_s": self_time(SIMULATE.__contains__),
            "montecarlo.summary_s": outer(SUMMARY),
            "montecarlo.ks_s": outer(KS),
            "montecarlo.path_steps_per_s": ratio(sum(s for s, _ in ensembles), simulate_s),
            "montecarlo.ensemble_mb": max((b for _, b in ensembles), default=0) / MB,
            "cli.self_s": self_time(ROOT_SPAN.__eq__),
        }
