"""Percentiles and the end-to-end metric record.

A latency percentile is reported only while at least ``MIN_BEYOND``
samples lie strictly above it (nearest-rank definition), so a p95 over
too few samples is refused rather than read off a single slow op.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

MIN_BEYOND = 10

# name -> unit, in BENCHMARK.json order.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "output_ok": "bool",
}


def percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None when the sample is short.

    The value at 1-based rank ``ceil(q/100 * n)`` is returned only when
    ``n - rank >= min_beyond`` samples lie beyond it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        return None
    return ordered[rank - 1]


def min_samples_for(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which :func:`percentile` answers."""
    n = 1
    while percentile(range(n), q, min_beyond) is None:
        n += 1
    return n


def end_to_end(
    setup_s: float,
    ops: int,
    ok_ops: int,
    measured_s: float,
    latencies_s: Sequence[float],
    peak_rss_kb: float,
    output_ok: bool,
) -> Dict[str, Dict[str, float]]:
    """The ``--trace 0`` metric record; raises if a percentile is short."""
    if ops < 1 or measured_s <= 0:
        raise ValueError("a measured phase needs at least one op and time")
    p50 = percentile(latencies_s, 50)
    p95 = percentile(latencies_s, 95)
    if p50 is None or p95 is None:
        raise ValueError(
            f"{len(latencies_s)} latency samples cannot support p95 with "
            f"{MIN_BEYOND} beyond it (need {min_samples_for(95)})"
        )
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops / measured_s,
        "p50_ms": p50 * 1e3,
        "p95_ms": p95 * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "ok_frac": ok_ops / ops,
        "output_ok": 1.0 if output_ok else 0.0,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }
