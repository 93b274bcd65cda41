"""Summary statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
import statistics
import time
from typing import Optional, Sequence

import numpy as np

MIN_BEYOND = 10  # a tail percentile needs this many samples above it


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    if not values or not 0.0 < q <= 100.0:
        raise ValueError(f"need samples and 0 < q <= 100, got {len(values)} samples, q={q}")
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1])


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The q-th percentile, or None when fewer than MIN_BEYOND samples lie above it."""
    if not values:
        return None
    p = percentile(values, q)
    beyond = sum(1 for v in values if v > p)
    return p if beyond >= MIN_BEYOND else None


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# ---------------------------------------------------------------------------
# Machine-speed calibration.
#
# On a shared machine the CPU speed available to one process swings by up
# to 2x within seconds (a neighbour on the sibling hyperthread), which no
# number of repeats averages out.  Each timed operation is therefore
# bracketed by runs of a fixed reference task of the same character as
# semlink's work (dict and list handling, many small numpy calls, a sort),
# and reported as   raw time * REFERENCE_NOMINAL_S / mean(reference before,
# reference after):  seconds at the speed where the reference takes
# REFERENCE_NOMINAL_S.  Raw wall times are reported beside the scaled ones.
# The reference never calls semlink, so a change to semlink cannot move it.
# Changing the reference or the constant changes every scaled baseline.

REFERENCE_NOMINAL_S = 0.0045
REFERENCE_EVERY_S = 0.5  # fresh reference sample after this much timed work
REFERENCE_RUNS = 7  # runs per sample, about 30 ms
_REF_KEYS = [f"k{i:05d}" for i in range(4000)]
_REF_VECS = np.random.default_rng(0).standard_normal((64, 32))


def reference_task() -> float:
    """Run the fixed reference task once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    table = {k: i for i, k in enumerate(_REF_KEYS)}
    acc = float(sum(table[k] for k in _REF_KEYS))
    rows = list(_REF_VECS)
    for r in range(12):
        for a in rows:
            acc += float(np.dot(a * rows[r], a))
    sorted(_REF_KEYS, key=lambda s: s[::-1])
    if acc != acc:  # keeps the work observable
        raise ArithmeticError("reference task produced NaN")
    return time.perf_counter() - t0


def reference_sample(runs: int = REFERENCE_RUNS) -> float:
    """Median duration of a few reference runs: the machine's current speed."""
    return median([reference_task() for _ in range(runs)])


def scale(raw_s: float, reference_s: float) -> float:
    """Raw seconds at the nominal machine speed."""
    return raw_s * REFERENCE_NOMINAL_S / reference_s


class Stopwatch:
    """Times operations and scales each by the reference samples around it.

    A new sample is taken after an operation once REFERENCE_EVERY_S has
    passed since the last one, so a long operation is scaled by the mean of
    the samples before and after it and short ones share a sample.
    """

    def __init__(self):
        self._sample = reference_sample()
        self._taken = time.perf_counter()

    def time(self, fn, *args, **kwargs):
        """(result, raw seconds, scaled seconds) of ``fn(*args, **kwargs)``."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        before = self._sample
        if time.perf_counter() - self._taken >= REFERENCE_EVERY_S:
            self._sample = reference_sample()
            self._taken = time.perf_counter()
        return result, raw, scale(raw, (before + self._sample) / 2)
