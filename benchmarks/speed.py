"""Timing scaled to a reference machine speed by an interleaved probe.

On a host whose cores are shared with other tenants, the speed of the
same code changes by up to a factor of two in phases lasting well under
a second to tens of seconds, so two runs of identical work can disagree
by more than any useful regression bound.  The meter runs a short fixed
probe between short measured calls, and from a timer signal inside long
ones, and scales each region by `PROBE_REF_S / probe time`.  The probe
does what the decoders do most: gathers rows of a weight table, sums
them and takes a softmax.

Scaled times read as seconds on the reference machine: an uncontended
core of an Intel Xeon (2 vCPUs, Python 3.11, numpy 2.4) runs the probe
in PROBE_REF_S.  Every timing is returned as the pair [scaled, raw], so
numpy arithmetic on timings gives both figures at once; the raw figure
of every end-to-end metric stays in each run's report.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

PROBE_REF_S = 0.62e-3
PROBE_EVERY_S = 0.05  # re-probe after this much raw work in short regions
SAMPLE_EVERY_S = 0.1  # probe period inside long regions


class Meter:
    """Times regions of work and scales them by the current probe factor."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.random((4_000, 17))
        self._rows = rng.integers(4_000, size=(100, 12))
        self._since = 0.0
        self._frozen = False
        self.frozen_factor = 1.0
        self.factors: list[float] = []
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.factor = self.probe()

    def _probe_once(self) -> float:
        start = time.perf_counter()
        for rows in self._rows:
            s = self._table[rows].sum(axis=0)
            e = np.exp(s - s.max())
            e /= e.sum()
        return time.perf_counter() - start

    def probe(self) -> float:
        """Measure the machine's current speed; best of three short probes."""
        self.factor = PROBE_REF_S / min(self._probe_once() for _ in range(3))
        self.factors.append(self.factor)
        self._since = 0.0
        return self.factor

    def _account(self, raw: float, scaled: float) -> np.ndarray:
        self.raw_s += raw
        self.scaled_s += scaled
        return np.array([scaled, raw])

    @contextmanager
    def frozen(self):
        """Probe once, then time with that factor and run no probe until exit.

        A traced unit runs frozen, so no probe time lands in a span.  On
        exit `frozen_factor` holds the mean of the probes before and after.
        """
        before = self.probe()
        self._frozen = True
        try:
            yield
        finally:
            self._frozen = False
            self.frozen_factor = (before + self.probe()) / 2

    def _raw(self, fn, args, kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start

    def run(self, fn, *args, **kwargs):
        """Time a long call, scaled by the mean factor of probes taken during it.

        A timer signal runs one probe every SAMPLE_EVERY_S; the probes'
        own time is taken out of the measured time.  Returns the result
        and the pair [scaled, raw] seconds.
        """
        if self._frozen:
            result, raw = self._raw(fn, args, kwargs)
            return result, self._account(raw, raw * self.factor)
        factors = [self.probe()]
        probing = [0.0]

        def sample(signum, frame):
            start = time.perf_counter()
            factors.append(PROBE_REF_S / self._probe_once())
            probing[0] += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            raw = time.perf_counter() - start - probing[0]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        factors.append(self.probe())
        return result, self._account(raw, raw * float(np.mean(factors)))

    def short(self, fn, *args, **kwargs):
        """Time a short call with the current factor; re-probes, between calls, when due."""
        result, raw = self._raw(fn, args, kwargs)
        timing = self._account(raw, raw * self.factor)
        self._since += raw
        if self._since >= PROBE_EVERY_S and not self._frozen:
            self.probe()
        return result, timing

    def summary(self) -> dict[str, float]:
        f = np.array(self.factors)
        return {
            "probes": int(f.size),
            "factor_p10": float(np.percentile(f, 10)),
            "factor_p50": float(np.percentile(f, 50)),
            "factor_p90": float(np.percentile(f, 90)),
            "raw_s": self.raw_s,
            "scaled_s": self.scaled_s,
        }
