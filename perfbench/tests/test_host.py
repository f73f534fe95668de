import pytest

from slmsbench import host
from slmsbench.host import (PROBE_NOMINAL_S, SpeedProbe, at_nominal,
                            per_op_at_nominal)


def test_at_nominal_rescales_by_the_mean_probe():
    # probes twice the nominal time: the host ran at half speed
    assert at_nominal(10.0, [2 * PROBE_NOMINAL_S] * 3) == pytest.approx(5.0)
    slow_then_fast = [3 * PROBE_NOMINAL_S, PROBE_NOMINAL_S]
    assert at_nominal(4.0, slow_then_fast) == pytest.approx(2.0)


def test_at_nominal_refuses_a_span_without_probes():
    with pytest.raises(ValueError):
        at_nominal(1.0, [])


def test_probe_runs_at_most_once_per_interval(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(host.time, "perf_counter", lambda: now[0])

    def fake_probe():
        now[0] += 0.004
        return 0.004

    monkeypatch.setattr(host, "probe_seconds", fake_probe)
    probe = SpeedProbe(every_s=1.0)
    probe.between_ops()          # due at once
    now[0] += 0.5
    probe.between_ops()          # 0.5 s after it: skipped
    now[0] += 0.6
    probe.between_ops()          # 1.1 s after it: runs
    assert probe.samples == [0.004, 0.004]
    assert probe.spent_s == pytest.approx(0.008)


def test_per_op_times_use_the_probes_around_each_op():
    nominal = PROBE_NOMINAL_S
    probes = [nominal, 3 * nominal, 2 * nominal]
    # op 0 ran before any probe, op 1 between probes 0 and 1, op 2
    # after the last one
    scaled = per_op_at_nominal([1.0, 2.0, 4.0], [0, 1, 3], probes, window=1)
    assert scaled == pytest.approx([1.0, 1.0, 2.0])
    # a wider window averages more probes on each side
    assert per_op_at_nominal([2.0], [1], probes, window=2) == pytest.approx(
        [1.0]
    )
    with pytest.raises(ValueError):
        per_op_at_nominal([1.0], [0], [])
