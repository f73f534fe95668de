"""The schedule validator runs with CPython's cyclic collector paused.

The structural replay builds only acyclic trees, so the collector finds
nothing there; these tests pin that no collection runs inside a
validation, that overlapping validations on two threads keep the
collector off until both have left (in either exit order) and many
racing threads never see it on inside, that a raising validation
restores it, that a collector disabled by the caller stays disabled,
and that a forked child starts unpaused, also when the fork lands
between an entry switching the collector off and counting itself.
"""

import gc
import os
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.slms import SLMSOptions
from repro.harness.experiment import transform_kernel
from repro.verify import schedule
from repro.verify.schedule import validate_result
from repro.workloads import get_workload
from tests.verify.test_schedule_validator import SRC_PLAIN, transform

WAIT_S = 30


@pytest.fixture
def plain():
    result, loop = transform(SRC_PLAIN, enable_filter=False)
    assert result.applied
    return result, loop


def test_no_collection_while_validating_kernel8(monkeypatch):
    _, loops = transform_kernel(get_workload("kernel8"), SLMSOptions())
    result = next(r for r in loops if r.applied)
    inside = [False]
    collections = []

    def hook(phase, info):
        if phase == "start" and inside[0]:
            collections.append(info["generation"])

    real_replay = schedule._structural_replay

    def replay(*args):
        # Count exactly the replay's collections: the pause's own entry
        # and exit may allocate before the collector is off or after it
        # is back on.
        inside[0] = True
        real_replay(*args)
        inside[0] = False

    monkeypatch.setattr(schedule, "_structural_replay", replay)
    assert gc.isenabled()
    gc.callbacks.append(hook)
    try:
        report = validate_result(result, result.loop)
    finally:
        gc.callbacks.remove(hook)
    assert report.structural and report.matched == report.events > 1000
    assert collections == []
    assert gc.isenabled()


@pytest.mark.parametrize("first", ["a", "b"])
def test_overlapping_validations_share_one_pause(monkeypatch, plain, first):
    result, loop = plain
    second = "b" if first == "a" else "a"
    both_inside = threading.Barrier(2, timeout=WAIT_S)
    first_left = threading.Event()
    seen = {}

    def replay(*args):
        name = threading.current_thread().name
        both_inside.wait()
        seen[name, "both inside"] = gc.isenabled()
        if name == second:
            assert first_left.wait(WAIT_S)
            seen[name, "other left"] = gc.isenabled()

    def run(name):
        validate_result(result, loop)
        if name == first:
            first_left.set()

    monkeypatch.setattr(schedule, "_structural_replay", replay)
    assert gc.isenabled()
    threads = [threading.Thread(target=run, args=(n,), name=n) for n in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(2 * WAIT_S)
    assert seen == {
        ("a", "both inside"): False,
        ("b", "both inside"): False,
        (second, "other left"): False,
    }
    assert gc.isenabled()


def test_many_threads_never_see_the_collector_on_inside(monkeypatch, plain):
    """A lost update of the entry count would re-enable the collector
    while a validation is still inside, or leave it off at the end."""
    result, loop = plain
    enabled_inside = []

    def replay(*args):
        enabled_inside.append(gc.isenabled())
        time.sleep(0)
        enabled_inside.append(gc.isenabled())

    def run():
        for _ in range(40):
            validate_result(result, loop)

    monkeypatch.setattr(schedule, "_structural_replay", replay)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(2 * WAIT_S)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(enabled_inside) == 8 * 40 * 2
    assert not any(enabled_inside)
    assert gc.isenabled()


def test_pause_restores_the_prior_state(monkeypatch, plain):
    result, loop = plain
    seen = []

    def replay(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("replay failed")

    monkeypatch.setattr(schedule, "_structural_replay", replay)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="replay failed"):
        validate_result(result, loop)
    assert seen == [False]
    assert gc.isenabled()

    monkeypatch.undo()
    gc.disable()
    try:
        assert validate_result(result, loop).structural
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_during_a_validation_starts_unpaused(monkeypatch, plain):
    """A child forked while another thread validates inherits the
    collector off and an entry that will never exit there; the fork
    hook turns it back on, and the child's own validations pause and
    restore as usual."""
    result, loop = plain
    entered = threading.Event()
    release = threading.Event()
    real_replay = schedule._structural_replay

    def replay(*args):
        if threading.current_thread().name == "holder":
            entered.set()
            assert release.wait(WAIT_S)
        return real_replay(*args)

    monkeypatch.setattr(schedule, "_structural_replay", replay)
    holder = threading.Thread(
        target=validate_result, args=(result, loop), name="holder"
    )
    holder.start()
    try:
        assert entered.wait(WAIT_S)
        assert not gc.isenabled()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                if gc.isenabled() and validate_result(result, loop).structural:
                    code = 0 if gc.isenabled() else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
    finally:
        release.set()
        holder.join(2 * WAIT_S)
    assert os.waitstatus_to_exitcode(status) == 0
    assert gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_waits_for_a_half_done_entry(monkeypatch, plain):
    """A thread that forks while a validation has switched the collector
    off but not yet counted its entry must not hand the child a
    collector that is off with no entry to account for it: nothing in
    the child would ever turn it back on."""
    result, loop = plain
    disabled = threading.Event()

    def slow_disable():
        gc.disable()
        disabled.set()
        # Widen the window a thread switch can open here.
        time.sleep(0.2)

    monkeypatch.setattr(
        schedule,
        "gc",
        SimpleNamespace(isenabled=gc.isenabled, enable=gc.enable, disable=slow_disable),
    )
    statuses = []

    def fork():
        assert disabled.wait(WAIT_S)
        pid = os.fork()
        if pid == 0:
            os._exit(0 if gc.isenabled() else 1)
        statuses.append(os.waitpid(pid, 0)[1])

    forker = threading.Thread(target=fork)
    forker.start()
    try:
        assert validate_result(result, loop).structural
    finally:
        forker.join(2 * WAIT_S)
    assert [os.waitstatus_to_exitcode(s) for s in statuses] == [0]
    assert gc.isenabled()
