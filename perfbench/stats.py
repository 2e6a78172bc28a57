"""Order statistics and the result line.

Everything here is pure: no clock, no program import.  The percentile
rule follows the benchmark's reporting policy: a tail percentile is
reported only when at least ten samples lie beyond it, so a p90 needs
at least 100 samples.
"""

from __future__ import annotations

import json
import math
import statistics

__all__ = [
    "MIN_BEYOND",
    "median",
    "quartile_spread",
    "supported_percentile",
    "tail_percentile",
    "result_line",
]

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartile_spread(values) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else math.inf


def supported_percentile(count: int) -> int:
    """The highest whole percentile with :data:`MIN_BEYOND` of ``count``
    samples strictly above its nearest rank (0 when none is)."""
    best = 0
    for q in range(1, 100):
        rank = max(1, math.ceil(q * count / 100))
        if count - rank >= MIN_BEYOND:
            best = q
    return best


def tail_percentile(values, q: int):
    """Nearest-rank percentile ``q`` of ``values``, or ``(None, reason)``.

    Returns ``(value, None)`` when at least :data:`MIN_BEYOND` samples lie
    beyond the percentile's rank; otherwise the percentile is not
    supported by the sample and ``(None, reason)`` names the count.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None, "no samples"
    rank = max(1, math.ceil(q * n / 100))
    if n - rank < MIN_BEYOND:
        return None, (
            f"p{q} needs {MIN_BEYOND} samples beyond it; {n} samples "
            f"support at most p{supported_percentile(n)}"
        )
    return float(ordered[rank - 1]), None


def result_line(
    *, correct: bool, attempted: int, failed: int, metrics: dict, units: dict
) -> str:
    """The benchmark's last output line.

    ``metrics`` maps name -> value and must name exactly the metrics in
    ``units`` (name -> unit); a missing, extra or non-finite value is
    an error in the benchmark, never a silent omission.
    """
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise ValueError(f"metrics mismatch: missing {missing}, extra {extra}")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    return json.dumps(payload)
