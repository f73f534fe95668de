import math

import pytest

from slmsbench.metrics import (
    END_TO_END_UNITS,
    end_to_end,
    min_samples_for,
    percentile,
)


def test_p95_needs_ten_samples_beyond_it():
    assert min_samples_for(95) == 200
    assert percentile(range(199), 95) is None
    # rank ceil(0.95 * 200) = 190 (1-based) -> value 189, 10 above it
    assert percentile(range(200), 95) == 189


def test_p50_is_nearest_rank_and_order_free():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
    assert percentile(samples, 50) == 3.0
    assert percentile(range(20), 50) == 9
    assert percentile(range(19), 50) is None


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile([1.0], 100)


def test_end_to_end_record():
    latencies = [0.001 * (i + 1) for i in range(200)]
    metrics = end_to_end(
        setup_s=0.5, ops=200, ok_ops=199, measured_s=4.0,
        latencies_s=latencies, peak_rss_kb=2048, output_ok=True,
    )
    assert list(metrics) == list(END_TO_END_UNITS)
    assert metrics["ops_per_s"]["value"] == 50.0
    assert metrics["p50_ms"]["value"] == pytest.approx(100.0)
    assert metrics["p95_ms"]["value"] == pytest.approx(190.0)
    assert metrics["peak_rss_mb"]["value"] == 2.0
    assert metrics["ok_frac"]["value"] == pytest.approx(0.995)
    assert metrics["output_ok"]["value"] == 1.0
    assert all(not math.isnan(m["value"]) for m in metrics.values())


def test_end_to_end_refuses_a_short_sample():
    with pytest.raises(ValueError, match="need 200"):
        end_to_end(0.5, 199, 199, 1.0, [0.01] * 199, 1024, True)
