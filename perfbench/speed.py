"""Host speed probe: times a fixed reference loop while a workload runs.

This benchmark runs on shared hosts whose speed drifts by tens of percent
within a minute, so the wall time of the same commands does too. The probe
tracks that drift: ``SpeedProbe.start`` arms a timer that, every
``PERIOD`` seconds, interrupts the commands between two Python bytecodes
and runs a ``ReferenceLoop`` (plain-Python float formatting, numpy FFTs and
normal sampling, the kinds of work cumvol does); a probe also runs just
before and just after the timed region.

``SpeedProbe.stop`` returns the commands' own wall time (the probes' time
taken out) and the same interval counted in reference-loop durations: each
stretch of command time between two probes is divided by the mean duration
of those two probes. A slower host lengthens the commands and the loop
alike, so the count stays put while a slower program raises it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# seconds between probes inside the timed region
PERIOD = 0.25


class ReferenceLoop:
    """About 9 ms of fixed work on an unloaded core, touching no cumvol code:
    plain-Python float formatting as in ``to_csv`` (about half the time),
    numpy FFT round trips as in the convolutions and normal sampling with
    ``exp`` over a 1 MB array as in the Monte Carlo paths (a quarter each).
    The host's drift slows each kind of work by a different share; this mix
    tracks it for all three workloads, where any one part alone tracks one
    of them markedly worse."""

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self._floats = self._rng.random(2000).tolist()
        self._signal = self._rng.random(1 << 15)
        self._paths = np.empty(1 << 17)

    def __call__(self) -> None:
        "".join(f"{x:.17g},{x:.17g}\n" for x in self._floats)
        for _ in range(2):
            spectrum = np.fft.rfft(self._signal)
            np.fft.irfft(spectrum * spectrum.conj(), self._signal.size)
        self._rng.standard_normal(out=self._paths)
        np.exp(self._paths, out=self._paths)


class SpeedProbe:
    """Times a ``ReferenceLoop`` around and inside one timed region."""

    def __init__(self):
        self._loop = ReferenceLoop()
        self._probes: list = []  # (start, end) of each probe, in order
        self._t0 = 0.0

    def _probe(self, *_) -> None:
        t = time.perf_counter()
        self._loop()
        self._probes.append((t, time.perf_counter()))

    def start(self) -> None:
        self._loop()  # warm the loop's caches before the first timing
        self._probes = []
        self._probe()
        self._t0 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> tuple[float, float]:
        """(command seconds, command time in reference-loop durations)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        probes = self._probes
        inner = [p for p in probes[1:] if p[1] <= t1]
        self._probe()
        bounds = [self._t0] + [t for probe in inner for t in probe] + [t1]
        durations = [end - start for start, end in [probes[0], *inner, self._probes[-1]]]
        seconds = refs = 0.0
        for i, (lo, hi) in enumerate(zip(bounds[::2], bounds[1::2])):
            seconds += hi - lo
            refs += (hi - lo) / ((durations[i] + durations[i + 1]) / 2)
        return seconds, refs
