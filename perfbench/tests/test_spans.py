import sys
import types

import pytest

from slmsbench.spans import (
    SpanRecorder,
    install,
    layer_metrics,
    self_times,
    summarize,
    top_level_seconds,
)


class FakeClock:
    """Advances only when told to, so durations are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; child2 [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grand", 2.0, 3.0, 1, 0],
        ["child", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == top_level_seconds(spans) == 10.0


def test_recorder_nests_spans_and_tags_ops():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def leaf():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 3.0
        return "done"

    wrapped_leaf = rec.wrap("leaf", leaf)
    wrapped_outer = rec.wrap("outer", outer)
    rec.op = 7
    assert wrapped_outer() == "done"
    rows = summarize(rec.export())
    assert rows["outer"] == {"calls": 1, "self_s": 4.0}
    assert rows["leaf"] == {"calls": 1, "self_s": 2.0}
    assert [span[4] for span in rec.spans] == [7, 7]
    assert rec.spans[1][3] == 0  # leaf's parent is outer


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.spans == [["boom", 0.0, 1.0, -1, None]]
    assert rec._stack == []


@pytest.fixture
def fake_package():
    """pkg.impl defines f; pkg.user imported it by name."""
    pkg = types.ModuleType("fakepkg")
    impl = types.ModuleType("fakepkg.impl")
    user = types.ModuleType("fakepkg.user")

    def f(x):
        return x + 1

    class Box:
        def get(self, tier, key):
            return None if key == "miss" else key

    impl.f = f
    impl.Box = Box
    user.f = f
    user.call = lambda x: user.f(x)
    mods = {"fakepkg": pkg, "fakepkg.impl": impl, "fakepkg.user": user}
    sys.modules.update(mods)
    yield impl, user
    for name in mods:
        sys.modules.pop(name, None)


def test_install_wraps_every_name(fake_package):
    impl, user = fake_package
    original = impl.f
    rec = SpanRecorder()
    seen = []
    targets = (
        ("fakepkg.impl", "f", "fake.f", lambda r, a, v: seen.append(v)),
        ("fakepkg.impl", "Box.get", "fake.get", None),
    )
    # impl.f, user.f and Box.get
    assert install(rec, targets, package="fakepkg") == 3
    assert impl.f.__wrapped__ is original and user.f is impl.f
    assert user.call(1) == 2 and impl.f(2) == 3
    assert impl.Box().get("t", "miss") is None
    assert [s[0] for s in rec.spans] == ["fake.f", "fake.f", "fake.get"]
    assert seen == [2, 3]


def test_layer_metrics_derive_ratios_from_spans_and_counts():
    exported = {
        "names": ["lang.parse_cached", "lang.parse", "backend.ims"],
        "spans": [
            [0, 0.0, 1.0, -1, 0],   # cached call that missed ...
            [1, 0.2, 0.8, 0, 0],    # ... and parsed
            [0, 1.0, 1.1, -1, 0],   # cached call that hit
            [2, 2.0, 2.5, -1, 1],
        ],
        "counts": {"backend.ims_loops": 4, "backend.ims_ok": 3,
                   "harness.hit.transform": 3,
                   "harness.miss.transform": 1},
    }
    values = layer_metrics(exported)
    assert values["lang.parse_calls"] == 1
    assert values["lang.parse_cache_hit_ratio"] == 0.5
    assert values["lang.parse_s"] == pytest.approx(1.1)
    assert values["backend.ims_s"] == pytest.approx(0.5)
    assert values["backend.ims_ok_ratio"] == 0.75
    assert values["harness.hit_ratio.transform"] == 0.75
    assert values["harness.hit_ratio.full"] == 0.0
