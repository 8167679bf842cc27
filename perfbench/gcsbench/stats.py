"""Percentiles under the ten-samples-beyond rule, and op accounting."""

from __future__ import annotations

import math

#: a percentile is reported only when at least this many samples lie
#: strictly beyond it
MIN_BEYOND = 10


def samples_beyond(count, q):
    """How many of ``count`` sorted samples lie beyond the nearest-rank
    ``q`` percentile (0 < q < 1)."""
    if count <= 0:
        return 0
    return count - max(1, math.ceil(q * count))


def supports(count, q):
    """True when ``count`` samples support reporting percentile ``q``."""
    return samples_beyond(count, q) >= MIN_BEYOND


def percentile(samples, q):
    """Nearest-rank percentile ``q`` of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it: a tail read from too few samples is not a measurement.
    """
    count = len(samples)
    if not supports(count, q):
        raise ValueError("p%g needs %d samples beyond it; %d samples give %d"
                         % (q * 100, MIN_BEYOND, count,
                            samples_beyond(count, q)))
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * count)) - 1]


def failed_frac(attempted, failed):
    """Failed ops over attempted ops; a run that attempted nothing is an
    error, not a perfect score."""
    if attempted <= 0:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed=%r outside [0, attempted=%r]"
                         % (failed, attempted))
    return failed / attempted


def ratio(numerator, denominator):
    """``numerator / denominator``, 0.0 when there is no base."""
    return numerator / denominator if denominator else 0.0
