"""Operation timing, failure counting and the summary statistics reported."""

from __future__ import annotations

import bisect
import hashlib
import math
import statistics
import time
from collections import defaultdict

import numpy as np
from scipy.special import erf

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values):
    """The highest nearest-rank percentile with ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile)``, or ``None`` when that percentile would not
    lie above the median (fewer than 21 samples). Nearest rank ``r`` of
    percentile ``p`` over ``n`` values is ``ceil(p n / 100)``; the highest
    ``r`` leaving ten values beyond is ``n - 10``.
    """
    n = len(values)
    rank = n - TAIL_BEYOND
    if rank <= math.ceil(n / 2):
        return None
    return sorted(values)[rank - 1], 100.0 * rank / n


def describe_ms(seconds) -> dict:
    """Median and tail of a list of durations, in milliseconds."""
    ms = [s * 1000.0 for s in seconds]
    out = {"n": len(ms), "p50_ms": statistics.median(ms) if ms else None,
           "tail_ms": None, "tail_pct": None}
    t = tail(ms)
    if t is not None:
        out["tail_ms"], out["tail_pct"] = t
    if ms:
        out["min_ms"], out["max_ms"] = min(ms), max(ms)
    return out


class Calibration:
    """Machine speed, sampled through the run with a fixed kernel.

    On a 2-core x86-64 machine shared with other tenants, identical code ran
    up to a quarter faster or slower from one half-minute to the next. So every
    reported time is scaled by ``REFERENCE_S / kernel time``, with the kernel
    timed just before and after the operation (the median of the samples
    within ``WINDOW_S`` of it): it reads as the time on a machine where the
    kernel takes ``REFERENCE_S``. The kernel mixes what listrank spends its
    time on (matrix products large and small, erf, hashing, dict updates,
    a keyed sort) but calls no listrank code, so no change to the program
    can move it directly.

    Its limit: it runs in the same process, between the program's operations.
    A change that slows the whole process (a thread holding the GIL, a heap
    that makes every allocation dearer) slows the kernel too, and is divided
    out. ``drift`` compares the kernel after the first operation with a
    baseline taken just before it, so the run can flag such a move; on a
    shared machine the kernel also moves by itself, so the flag is a prompt
    to look, not a verdict.
    """

    REFERENCE_S = 2.5e-3
    EVERY_S = 0.1  # sample at most this often, before and after operations
    WINDOW_S = 0.5
    REPEATS = 2
    MAX_REPEATS = 8

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(240, 64))
        self._w1 = rng.normal(size=(64, 256)) * 0.1
        self._w2 = rng.normal(size=(256, 64)) * 0.1
        self._v = rng.normal(size=(1, 64))
        self._m = rng.normal(size=(64, 64)) * 0.1
        self._blob = rng.bytes(1 << 18)
        self._words = [f"w{i % 97}" for i in range(800)]
        self._pairs = [(f"d{i:05d}", float((i * 7919) % 1000)) for i in range(200)]
        self.at: list[float] = []  # midpoint of each sample, perf_counter seconds
        self.samples: list[float] = []
        self.baseline = (0, 0)  # index range of the samples taken by take_baseline
        self._last = -math.inf

    def _kernel(self) -> float:
        start = time.perf_counter()
        h = self._x @ self._w1
        g = 0.5 * h * (1.0 + erf(h * 0.7071067811865476))
        (g @ self._w2).sum()
        v = self._v
        for _ in range(20):
            v = np.tanh(v @ self._m)
        hashlib.blake2b(self._blob, digest_size=8).digest()
        counts = {}
        for i, word in enumerate(self._words):
            counts[word] = counts.get(word, 0) + i
        sorted(self._pairs, key=lambda p: (-p[1], p[0]))
        return time.perf_counter() - start

    def sample(self, repeats: int = REPEATS) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            seconds = self._kernel()
            self.at.append(start + seconds / 2)
            self.samples.append(seconds)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample if the last sample is stale; after a long gap (around a long
        operation) take more samples, up to MAX_REPEATS."""
        gap = time.perf_counter() - self._last
        if gap >= self.EVERY_S:
            self.sample(min(self.MAX_REPEATS, max(self.REPEATS, int(gap / self.EVERY_S))))

    def take_baseline(self, repeats: int = 16) -> None:
        """A burst of samples just before the first operation."""
        first = len(self.samples)
        self.sample(repeats)
        self.baseline = (first, len(self.samples))

    def drift(self) -> float:
        """Median kernel time of the samples taken after the baseline, over
        that of the baseline, minus one (0 if none was taken after it)."""
        first, end = self.baseline
        later = self.samples[end:]
        return statistics.median(later) / statistics.median(self.samples[first:end]) - 1.0 if later else 0.0

    def scale_at(self, start: float, end: float) -> float:
        """REFERENCE_S over the kernel's median time around [start, end]."""
        lo = bisect.bisect_left(self.at, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, end + self.WINDOW_S)
        window = self.samples[lo:hi]
        if not window:
            nearest = min(range(len(self.at)), key=lambda k: abs(self.at[k] - (start + end) / 2))
            window = [self.samples[nearest]]
        return self.REFERENCE_S / statistics.median(window)


class Recorder:
    """Times the program's operations and counts the ones that fail.

    An operation fails when the call raises or when the check of its output
    finds a problem. Every operation and every stand-alone check counts as
    attempted.
    """

    def __init__(self, tracer, calibration: Calibration):
        self.tracer = tracer
        self.calibration = calibration
        self.times = defaultdict(list)
        self.spans = defaultdict(list)
        self.notes = defaultdict(list)
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.last_seconds = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def call(self, label: str, fn, *args, **kwargs):
        """Run and time one operation; returns None if it raised."""
        self.attempted += 1
        self.calibration.maybe_sample()
        start = time.perf_counter()
        try:
            result = self.tracer.call(f"op.{label}", fn, *args, **kwargs)
        except Exception as exc:  # a failing operation is counted, the run goes on
            self.failures.append((label, f"{type(exc).__name__}: {exc}"))
            return None
        end = time.perf_counter()
        self.calibration.maybe_sample()
        self.last_seconds = end - start
        self.times[label].append(self.last_seconds)
        self.spans[label].append((start, end))
        return result

    def scaled(self, label: str) -> list[float]:
        """Durations of ``label`` at the calibration's reference speed."""
        return [(b - a) * self.calibration.scale_at(a, b) for a, b in self.spans[label]]

    def expect(self, label: str, problems) -> None:
        """Fail the operation just run under ``label`` if its check found problems."""
        problems = [p for p in problems if p]
        if problems:
            self.failures.append((label, "; ".join(problems)[:500]))

    def check(self, label: str, problems) -> None:
        """A stand-alone check, counted as one attempted operation."""
        self.attempted += 1
        self.expect(label, problems)
