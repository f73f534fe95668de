"""Chaos suite: the fault layer under injected crashes, hangs, faults.

Every recovery path in :mod:`repro.harness.faults` is proven here with
deterministic fault injection — no real flakiness, no timing races:

* taxonomy: classification, traceback digests, FailedResult round-trip;
* fault plans: grammar, ``?`` pinning, env activation, times semantics;
* dispatch: transient retry on the fixed backoff schedule, crash
  containment + quarantine (a one-worker run included), per-task
  timeouts, and workers=1 vs workers=4 failure invariance;
* warm workers: a :class:`PoolStash` lends one idle worker per call,
  takes it back only after clean attempts, keeps one per CPU, and a
  pool teardown leaves no live manager thread or unreaped worker;
* checkpointing: journal torn-tail and non-object-line tolerance,
  failed-record re-run, engine resume byte-identity, and real
  SIGKILL-style aborts of ``slms sweep`` and ``slms fuzz`` resumed to
  the clean result.

Worker pools here always get an explicit ``workers>=2`` — the CI
container resolves the default to one CPU, which would silently take
the in-process path.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.engine import run_experiments, run_tasks
from repro.harness.expcache import PhaseCache
from repro.harness import faults
from repro.harness.faults import (
    TRANSIENT_ATTEMPTS,
    FailedResult,
    FaultPlan,
    FaultRule,
    PoolStash,
    RunJournal,
    TaskError,
    TransientError,
    classify_exception,
    execute_guarded,
    is_failed,
    task_key,
    traceback_digest,
)
from repro.harness.sweep import run_sweep

from tests.harness.test_engine import _result_payload, _specs


def _double(x):
    """Module-level toy task (must stay picklable for worker pools)."""
    return x * 2


def _raise_value_error(x):
    raise ValueError(f"bad item {x}")


def _fork_lock_held(_):
    return faults._FORK_LOCK.locked()


def _pid(_):
    return os.getpid()


def _pooled_doubles(n):
    """A task that dispatches through its own pool, as a served sweep
    with ``workers > 1`` does inside its request's worker."""
    return [o.value for o in execute_guarded(_double, list(range(n)),
                                             workers=2)]


class TestTaxonomy:
    def test_classification(self):
        assert classify_exception(TransientError("x")) == "transient"
        assert classify_exception(TaskError("x", kind="crash")) == "crash"
        assert classify_exception(TaskError("x", kind="oom")) == "oom"
        assert classify_exception(MemoryError()) == "oom"
        assert classify_exception(ValueError("x")) == "deterministic"

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            TaskError("x", kind="cosmic-ray")

    def test_traceback_digest_is_stable(self):
        def capture():
            try:
                _raise_value_error(7)
            except ValueError as exc:
                return traceback_digest(exc)

        first, second = capture(), capture()
        assert first == second
        assert len(first) == 16

    def test_failed_result_round_trip(self):
        fr = FailedResult(
            task="daxpy@itanium2/gcc_O3",
            index=3,
            kind="crash",
            phase="simulate",
            message="boom",
            traceback_digest="abcd" * 4,
            attempts=2,
            quarantined=True,
            spec={"workload": "daxpy", "machine": "itanium2"},
        )
        data = fr.to_dict()
        assert data["status"] == "failed"
        assert FailedResult.from_dict(data) == fr
        assert is_failed(fr)
        assert not is_failed({"status": "failed"})  # plain dicts are not


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse("crash:0;hang:3x2@20;transient:5x1;seed=9")
        assert plan.seed == 9
        assert plan.rules == (
            FaultRule("crash", 0, times=0),
            FaultRule("hang", 3, times=2, seconds=20.0),
            FaultRule("transient", 5, times=1),
        )
        assert FaultPlan.parse(plan.spec()) == plan

    def test_parse_rejects_bad_rules(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode:0")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("SLMS_FAULTS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("SLMS_FAULTS", "fail:2")
        assert FaultPlan.from_env() == FaultPlan.parse("fail:2")

    def test_wildcard_resolution_is_deterministic(self):
        plan = FaultPlan.parse("fail:?;seed=42")
        a = plan.resolved(100).rules[0].index
        b = plan.resolved(100).rules[0].index
        assert a == b and 0 <= a < 100
        # A different seed must be able to pick a different target.
        others = {
            FaultPlan.parse(f"fail:?;seed={s}").resolved(100).rules[0].index
            for s in range(20)
        }
        assert len(others) > 1

    def test_parent_side_rules(self):
        plan = FaultPlan.parse("corrupt-cache:2;abort:5;crash:1")
        assert plan.corrupt_cache_indices() == frozenset({2})
        assert plan.abort_after() == 5
        assert plan.needs_isolation()
        assert not FaultPlan.parse("fail:0;transient:1").needs_isolation()

    def test_reject_round_trip_and_indices(self):
        plan = FaultPlan.parse("reject:1;reject:4;crash:0")
        assert plan.rules[0] == FaultRule("reject", 1)
        assert FaultPlan.parse(plan.spec()) == plan
        assert plan.reject_indices() == frozenset({1, 4})
        assert FaultPlan.parse("crash:0").reject_indices() == frozenset()

    def test_reject_is_admission_side_only(self):
        # ``apply`` runs inside a worker; reject fires at admission,
        # before dispatch, so the worker-side hook must ignore it.
        plan = FaultPlan.parse("reject:0")
        plan.apply(0, 0)
        assert not plan.needs_isolation()

    def test_times_limits_attempts(self):
        plan = FaultPlan.parse("transient:0x2")
        for attempt in (0, 1):
            with pytest.raises(TransientError):
                plan.apply(0, attempt)
        plan.apply(0, 2)  # third attempt passes


class TestGuardedInProcess:
    def test_transient_retries_on_the_backoff_schedule(self):
        sleeps = []
        outcomes = execute_guarded(
            _double,
            [10, 20, 30],
            fault_plan=FaultPlan.parse("transient:1x2"),
            sleep=sleeps.append,
        )
        assert [o.value for o in outcomes] == [20, 40, 60]
        assert [o.attempts for o in outcomes] == [1, 3, 1]
        assert sleeps == [0.05]  # deterministic: 0 s is not slept
        assert [e["event"] for e in outcomes[1].log] == ["retry", "retry"]
        assert [e["backoff_s"] for e in outcomes[1].log] == [0.0, 0.05]

    def test_attempts_per_kind(self):
        sleeps = []
        outcomes = execute_guarded(
            _double, [0, 1, 2],
            fault_plan=FaultPlan.parse("transient:0x9;fail:1;oom:2"),
            sleep=sleeps.append,
        )
        assert [o.failure.kind for o in outcomes] == [
            "transient", "deterministic", "oom",
        ]
        assert [o.attempts for o in outcomes] == [TRANSIENT_ATTEMPTS, 1, 1]
        assert sleeps == [0.05]

    def test_deterministic_fault_fails_without_retry(self):
        outcomes = execute_guarded(
            _double, [1, 2, 3], fault_plan=FaultPlan.parse("fail:1"),
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        failure = outcomes[1].failure
        assert failure.kind == "deterministic"
        assert failure.attempts == 1
        assert failure.index == 1
        assert outcomes[1].log == [
            {"event": "failed", "kind": "deterministic", "attempts": 1}
        ]

    def test_real_exception_is_contained_and_classified(self):
        outcomes = execute_guarded(_raise_value_error, [7])
        failure = outcomes[0].failure
        assert failure.kind == "deterministic"
        assert "ValueError: bad item 7" in failure.message
        assert failure.traceback_digest

    def test_one_worker_crash_runs_in_a_worker(self):
        # A crash rule forces the pool even at one worker: the task
        # really dies, and is quarantined after its strikes.
        outcomes = execute_guarded(
            _double, [1, 2],
            crash_strikes=2, fault_plan=FaultPlan.parse("crash:0"),
        )
        failure = outcomes[0].failure
        assert failure.kind == "crash"
        assert failure.quarantined
        assert failure.attempts == 2
        assert failure.message == "worker process died while running this task"
        assert outcomes[1].value == 4

    def test_oom_kind(self):
        outcomes = execute_guarded(
            _double, [1], fault_plan=FaultPlan.parse("oom:0"),
        )
        assert outcomes[0].failure.kind == "oom"

    def test_on_complete_fires_once_per_task_in_order(self):
        seen = []
        execute_guarded(
            _double, [1, 2, 3],
            fault_plan=FaultPlan.parse("fail:1"),
            on_complete=lambda i, out: seen.append((i, out.ok)),
        )
        assert seen == [(0, True), (1, False), (2, True)]


class TestGuardedPooled:
    def test_worker_crash_is_quarantined_others_complete(self):
        outcomes = execute_guarded(
            _double, list(range(4)), workers=2,
            crash_strikes=2, fault_plan=FaultPlan.parse("crash:0"),
        )
        failure = outcomes[0].failure
        assert failure.kind == "crash"
        assert failure.quarantined
        assert failure.attempts == 2
        assert "worker process died" in failure.message
        # Innocent bystanders of the pool breakage complete normally.
        assert [o.value for o in outcomes[1:]] == [2, 4, 6]

    def test_single_crash_recovers_on_retry(self):
        outcomes = execute_guarded(
            _double, list(range(3)), workers=2,
            crash_strikes=3, fault_plan=FaultPlan.parse("crash:1x1"),
        )
        assert [o.ok for o in outcomes] == [True, True, True]
        assert outcomes[1].attempts == 2
        assert outcomes[1].log[0]["event"] == "retry"
        assert outcomes[1].log[0]["kind"] == "crash"

    def test_hung_task_times_out_others_complete(self):
        outcomes = execute_guarded(
            _double, list(range(3)), workers=2,
            timeout_s=1.5, fault_plan=FaultPlan.parse("hang:2@60"),
        )
        assert [o.ok for o in outcomes] == [True, True, False]
        failure = outcomes[2].failure
        assert failure.kind == "timeout"
        assert "wall-clock limit" in failure.message

    def test_timed_out_worker_is_stopped(self):
        """Teardown kills the hung worker instead of leaving it asleep
        for the rest of its 60 s hang (and the interpreter's exit
        waiting on it)."""
        before = {p.pid for p in multiprocessing.active_children()}
        outcomes = execute_guarded(
            _double, [0, 1], workers=2,
            timeout_s=1, fault_plan=FaultPlan.parse("hang:0@60"),
        )
        assert outcomes[0].failure.kind == "timeout"
        assert outcomes[1].value == 2
        deadline = time.monotonic() + 5
        while True:
            # active_children() reaps the dead, so a pid leaves the
            # set once its process is gone.
            alive = {p.pid for p in multiprocessing.active_children()}
            if not alive - before:
                break
            assert time.monotonic() < deadline, alive - before
            time.sleep(0.05)

    def test_pooled_dispatch_inside_pooled_worker(self):
        # The outer pool forks its workers while the fork lock is held;
        # each child needs a free lock of its own, or its pooled
        # dispatch blocks for good.  The lock is checked first on its
        # own, so a regression fails here instead of hanging.
        held = execute_guarded(_fork_lock_held, [0, 1], workers=2)
        assert [o.value for o in held] == [False, False]
        outcomes = execute_guarded(
            _pooled_doubles, [2, 3], workers=2, timeout_s=30,
        )
        assert [o.failure for o in outcomes] == [None, None]
        assert [o.value for o in outcomes] == [[0, 2], [0, 2, 4]]

    def test_failure_reports_invariant_across_worker_counts(self):
        plan = FaultPlan.parse("fail:1;transient:2x9;oom:3")

        def snapshot(workers):
            outcomes = execute_guarded(
                _double, list(range(5)), workers=workers, fault_plan=plan
            )
            return [
                o.failure.to_dict() if not o.ok else o.value
                for o in outcomes
            ]

        serial, pooled = snapshot(1), snapshot(4)
        assert serial == pooled
        kinds = [
            r["kind"] for r in serial if isinstance(r, dict)
        ]
        assert kinds == ["deterministic", "transient", "oom"]


def _live_children():
    # active_children() reaps the dead, so a pid leaves the set once
    # its process is gone.
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture()
def stash():
    pools = PoolStash()
    try:
        yield pools
    finally:
        pools.close()


def _lent_pid(stash, plan=None, **kwargs):
    """One pooled call lent from ``stash``: its outcome."""
    kwargs.setdefault("timeout_s", 30)
    return execute_guarded(_pid, [0], fault_plan=plan, lender=stash,
                           **kwargs)[0]


class TestWarmWorkers:
    def test_sequential_calls_run_in_one_worker(self, stash):
        pids = [_lent_pid(stash).value for _ in range(3)]
        assert len(set(pids)) == 1 and pids[0] != os.getpid()
        assert stash.started == 1
        assert len(stash._idle) == 1

    def test_a_lender_pools_a_call_without_a_limit(self, stash):
        assert execute_guarded(_pid, [0])[0].value == os.getpid()
        outcome = execute_guarded(_pid, [0], lender=stash)[0]
        assert outcome.value != os.getpid()
        assert stash.started == 1 and len(stash._idle) == 1

    @pytest.mark.parametrize(
        "spec,ok", [("crash:0", False), ("hang:0@30", False),
                    ("fail:0", False), ("transient:0", True)],
    )
    def test_unclean_attempt_discards_the_worker(self, stash, spec, ok):
        first = _lent_pid(stash).value
        faulted = _lent_pid(stash, FaultPlan.parse(spec), timeout_s=1,
                            crash_strikes=1)
        assert faulted.ok is ok
        assert stash._idle == []
        after = _lent_pid(stash)
        assert after.ok and after.value != first
        assert first not in _live_children()

    def test_killed_idle_worker_costs_no_strike(self, stash):
        first = _lent_pid(stash).value
        os.kill(first, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while first in _live_children():
            assert time.monotonic() < deadline
            time.sleep(0.02)
        # The dead pool breaks beside no blamed attempt: its task is a
        # suspect, re-run alone in a freshly forked worker.
        outcome = _lent_pid(stash, crash_strikes=1)
        assert outcome.ok and outcome.attempts == 1
        assert outcome.value != first
        assert stash.started == 2

    def test_worker_ignores_sigint_and_sigterm(self, stash):
        # The owner stops its workers with SIGKILL; a Ctrl-C or SIGTERM
        # sent to the whole process group is the owner's alone.
        first = _lent_pid(stash).value
        for sig in (signal.SIGINT, signal.SIGTERM):
            os.kill(first, sig)
        time.sleep(0.2)
        assert _lent_pid(stash).value == first
        assert stash.started == 1

    def test_crash_suspect_reruns_in_fresh_workers(self, stash):
        cpus = os.cpu_count() or 1
        for _ in range(cpus):
            stash.give(stash.fork())
        outcome = _lent_pid(stash, FaultPlan.parse("crash:0x1"),
                            crash_strikes=2)
        # The lent worker died with its task unblamed; the suspect
        # crashed again alone (a strike) and passed on its retry, each
        # in a worker forked for it and torn down after: only the
        # call's first pool came from the stash.
        assert outcome.ok and outcome.attempts == 2
        assert len(stash._idle) == cpus - 1
        assert stash.started == cpus + 2

    def test_one_idle_pool_per_cpu(self, stash):
        cpus = os.cpu_count() or 1
        pools = [stash.fork() for _ in range(cpus + 1)]
        for pool in pools:
            stash.give(pool)
        assert len(stash._idle) == cpus
        assert stash.take() is pools[-2]

    def test_close_stops_idle_workers(self, stash):
        pid = _lent_pid(stash).value
        assert pid in _live_children()
        stash.close()
        assert stash._idle == []
        assert pid not in _live_children()
        # A pool handed back after close is torn down, not kept.
        pool = stash.fork()
        stash.give(pool)
        assert stash._idle == []

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="no forkserver start method",
    )
    def test_workers_fork_from_the_owner(self):
        # The parent watch needs the pool's owner as each worker's
        # parent, whatever the default start method: under forkserver
        # (Linux's default from Python 3.14) it would be the fork server.
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("forkserver", force=True)
        try:
            pool = faults._fork_pool(1)
        finally:
            multiprocessing.set_start_method(previous, force=True)
        try:
            assert pool.submit(os.getppid).result(timeout=60) == os.getpid()
            time.sleep(3 * faults._PARENT_POLL_S)
            assert pool.submit(os.getppid).result(timeout=60) == os.getpid()
        finally:
            faults._teardown_pool(pool)


class TestTeardown:
    @pytest.mark.parametrize("busy", [False, True], ids=["idle", "busy"])
    def test_teardown_joins_manager_and_reaps_workers(self, busy):
        pool = faults._fork_pool(2)
        assert pool.submit(_double, 1).result(timeout=30) == 2
        if busy:
            pool.submit(time.sleep, 60)
        manager = pool._executor_manager_thread
        procs = list(pool._processes.values())
        assert manager.is_alive() and len(procs) == 2
        faults._teardown_pool(pool)
        assert not manager.is_alive()
        assert all(proc.exitcode is not None for proc in procs)


class TestRunJournal:
    def test_records_replay_and_last_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("k1", "ok", {"v": 1})
            journal.record("k2", "failed", {"kind": "crash"})
            journal.record("k1", "ok", {"v": 2})
        loaded = RunJournal(path, resume=True)
        assert len(loaded) == 2
        assert loaded.completed_ok("k1") == {"v": 2}
        # Failed records are never replayed: the task must re-run.
        assert loaded.completed_ok("k2") is None
        assert loaded.get("k2")["status"] == "failed"
        loaded.close()

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("k1", "ok", {"v": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "slms-journal/1", "key": "k2", "sta')
        loaded = RunJournal(path, resume=True)
        assert loaded.completed_ok("k1") == {"v": 1}
        assert loaded.completed_ok("k2") is None
        loaded.close()

    def test_non_object_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("k1", "ok", {"v": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('[]\n"k2"\n7\nnull\n')
        loaded = RunJournal(path, resume=True)
        assert len(loaded) == 1
        assert loaded.completed_ok("k1") == {"v": 1}
        loaded.close()

    def test_fresh_journal_overwrites_previous(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("k1", "ok", {"v": 1})
        with RunJournal(path) as journal:  # resume=False starts over
            assert journal.completed_ok("k1") is None
        assert RunJournal(path, resume=True).completed_ok("k1") is None

    def test_task_key_is_canonical(self):
        assert task_key({"b": 1, "a": 2}) == task_key({"a": 2, "b": 1})
        assert task_key({"a": 1}) != task_key({"a": 2})


class TestRunTasksGuarded:
    def test_failures_land_in_slot_order(self):
        results = run_tasks(
            _double, [1, 2, 3], workers=1,
            fault_plan=FaultPlan.parse("fail:1"),
        )
        assert results[0] == 2 and results[2] == 6
        assert is_failed(results[1])

    def test_journal_resume_skips_completed_items(self, tmp_path):
        path = tmp_path / "j.jsonl"
        items = [1, 2, 3]
        with RunJournal(path) as journal:
            first = run_tasks(_double, items, workers=1, journal=journal)
        assert first == [2, 4, 6]
        calls = []

        def tracked(x):
            calls.append(x)
            return x * 2

        with RunJournal(path, resume=True) as journal:
            second = run_tasks(tracked, items, workers=1, journal=journal)
        assert second == first
        assert calls == []  # everything replayed from the journal

    def test_explicit_empty_plan_never_reads_the_environment(
        self, monkeypatch
    ):
        monkeypatch.setenv("SLMS_FAULTS", "fail:0")
        assert is_failed(run_tasks(_double, [1], workers=1)[0])
        assert run_tasks(
            _double, [1], workers=1, fault_plan=FaultPlan()
        ) == [2]
        results, stats = run_experiments(
            _specs(("daxpy",)), workers=1, use_cache=False,
            fault_plan=FaultPlan(),
        )
        assert not is_failed(results[0]) and stats.failures == 0


class TestEngineFaults:
    def test_failed_spec_carries_identity(self, monkeypatch):
        monkeypatch.setenv("SLMS_FAULTS", "fail:0")
        results, stats = run_experiments(
            _specs(("daxpy", "kernel1")), workers=1, use_cache=False
        )
        assert is_failed(results[0])
        assert results[0].spec == {
            "workload": "daxpy",
            "suite": "linpack",
            "machine": "itanium2",
            "compiler": "gcc_O3",
        }
        assert results[1].workload == "kernel1"
        assert stats.failures == 1

    def test_transient_retry_recovers_and_counts(self):
        results, stats = run_experiments(
            _specs(("daxpy",)), workers=1, use_cache=False,
            fault_plan=FaultPlan.parse("transient:0x1"),
        )
        assert not is_failed(results[0])
        assert stats.failures == 0
        assert stats.retries == 1

    def test_chaotic_sweep_reports_exactly_the_faulted_cells(self):
        pairs = [("itanium2", "gcc_O3"), ("pentium", "gcc_O3")]
        sweep = run_sweep(
            ["daxpy", "kernel1"], pairs=pairs, workers=2, use_cache=False,
            task_timeout_s=5.0,
            fault_plan=FaultPlan.parse("crash:0;hang:3@60"),
        )
        assert len(sweep.failures) == 2
        by_kind = {f.kind: f for f in sweep.failures}
        assert by_kind["crash"].task == "daxpy@itanium2/gcc_O3"
        assert by_kind["timeout"].task == "kernel1@pentium/gcc_O3"
        assert len(sweep.results) == 2
        assert not sweep.ok
        # Failure rows ride along in both exports.
        assert "FAILED[crash/task]" in sweep.to_csv()
        assert '"status": "failed"' in sweep.to_json()

    def test_resume_is_byte_identical_to_uninterrupted(self, tmp_path):
        specs = _specs(("daxpy", "kernel1"))
        clean, _ = run_experiments(specs, workers=1, use_cache=False)

        journal = str(tmp_path / "sweep.jsonl")
        chaotic, _ = run_experiments(
            specs, workers=2, use_cache=False, journal_path=journal,
            fault_plan=FaultPlan.parse("crash:1"),
        )
        assert not is_failed(chaotic[0]) and is_failed(chaotic[1])

        resumed, stats = run_experiments(
            specs, workers=1, use_cache=False,
            journal_path=journal, resume=True,
        )
        assert stats.journal_hits == 1  # spec 0 replayed, spec 1 re-run
        assert [_result_payload(r) for r in resumed] == [
            _result_payload(r) for r in clean
        ]

    def test_cached_spec_is_served_before_its_journal_record(
        self, tmp_path
    ):
        specs = _specs(("daxpy",))
        cache_dir = str(tmp_path / "cache")
        journal = str(tmp_path / "sweep.jsonl")
        first, _ = run_experiments(
            specs, workers=1, cache_dir=cache_dir, journal_path=journal
        )
        resumed, stats = run_experiments(
            specs, workers=1, cache_dir=cache_dir,
            journal_path=journal, resume=True,
        )
        assert (stats.cache_hits, stats.journal_hits) == (1, 0)
        assert _result_payload(resumed[0]) == _result_payload(first[0])

    def test_corrupt_cache_entry_is_quarantined_on_next_read(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiments(
            _specs(("daxpy",)), workers=1, cache_dir=cache_dir,
            fault_plan=FaultPlan.parse("corrupt-cache:0"),
        )
        # The injected corruption poisoned the freshly-written entry;
        # the next run must quarantine it, recompute, and re-cache.
        results, stats = run_experiments(
            _specs(("daxpy",)), workers=1, cache_dir=cache_dir
        )
        assert not is_failed(results[0])
        assert stats.cache_hits == 0
        assert stats.cache_evictions == 1
        full = PhaseCache(cache_dir).stats()["tiers"]["full"]
        assert full["corrupt"] == 1
        assert full["lifetime"]["evictions"] == 1
        # Third run: the re-cached entry is healthy again.
        _, warm = run_experiments(
            _specs(("daxpy",)), workers=1, cache_dir=cache_dir
        )
        assert warm.cache_hits == 1


class TestSigkillResume:
    """A sweep or fuzz session killed mid-run (``abort`` rule =
    ``os._exit(137)``) resumes from its journal to the byte-identical
    clean export."""

    def _cli(self, tmp_path, args, env_faults=None):
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["SLMS_CACHE_DIR"] = str(tmp_path / "cache-unused")
        if env_faults:
            env["SLMS_FAULTS"] = env_faults
        else:
            env.pop("SLMS_FAULTS", None)
        return subprocess.run(
            [sys.executable, "-m", "repro.cli"] + args,
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )

    def _sweep(self, tmp_path, out, extra, env_faults=None):
        return self._cli(
            tmp_path,
            ["sweep", "daxpy", "kernel1", "--pairs", "itanium2/gcc_O3",
             "--workers", "1", "--no-cache", "--json", str(out)] + extra,
            env_faults,
        )

    def _fuzz(self, tmp_path, out, extra, env_faults=None):
        return self._cli(
            tmp_path,
            ["fuzz", "--seed", "7", "--iterations", "8", "--profile",
             "tiny", "--workers", "1", "--json", str(out)] + extra,
            env_faults,
        )

    def test_killed_sweep_resumes_to_clean_digest(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"

        clean = self._sweep(tmp_path, tmp_path / "clean.json", [])
        assert clean.returncode == 0, clean.stderr

        killed = self._sweep(
            tmp_path, tmp_path / "killed.json",
            ["--journal", str(journal)], env_faults="abort:1",
        )
        assert killed.returncode == 137  # died mid-sweep, like SIGKILL
        assert journal.exists()
        assert len(RunJournal(journal, resume=True)) == 1

        resumed = self._sweep(
            tmp_path, tmp_path / "resumed.json",
            ["--resume", str(journal)],
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "1 replay(s)" in resumed.stderr
        assert (
            (tmp_path / "resumed.json").read_bytes()
            == (tmp_path / "clean.json").read_bytes()
        )

    def test_killed_fuzz_session_resumes_to_clean_report(self, tmp_path):
        journal = tmp_path / "fuzz.jsonl"

        clean = self._fuzz(tmp_path, tmp_path / "clean.json", [])
        assert clean.returncode == 0, clean.stderr

        killed = self._fuzz(
            tmp_path, tmp_path / "killed.json",
            ["--journal", str(journal)], env_faults="abort:3",
        )
        assert killed.returncode == 137
        assert not (tmp_path / "killed.json").exists()
        assert len(RunJournal(journal, resume=True)) == 3

        resumed = self._fuzz(
            tmp_path, tmp_path / "resumed.json",
            ["--resume", str(journal)],
        )
        assert resumed.returncode == 0, resumed.stderr
        assert (
            (tmp_path / "resumed.json").read_bytes()
            == (tmp_path / "clean.json").read_bytes()
        )


class TestCliFaults:
    def test_faulted_sweep_exits_1_and_reports(self, monkeypatch, tmp_path,
                                               capsys):
        from repro.cli import main

        monkeypatch.setenv("SLMS_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("SLMS_FAULTS", "fail:0")
        assert main(["sweep", "daxpy", "--pairs", "itanium2/gcc_O3",
                     "--workers", "1", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "1 experiment(s) FAILED" in err
        assert "injected deterministic fault" in err


class TestFuzzReducerError:
    def test_reducer_crash_is_recorded_not_swallowed(self, monkeypatch):
        from repro.fuzz import session as fuzz_session
        from repro.fuzz.oracle import CaseOutcome

        def fake_run_case(case, config):
            return CaseOutcome(
                seed=case.seed, profile=case.profile, status="fail",
                failure_class="semantic-divergence", detail="injected",
            )

        def broken_reduce(case, outcome, config, max_tests=0):
            raise RuntimeError("reducer exploded")

        monkeypatch.setattr(fuzz_session, "run_case", fake_run_case)
        monkeypatch.setattr(fuzz_session, "reduce_case", broken_reduce)
        config = fuzz_session.FuzzSessionConfig(
            master_seed=1, iterations=2, profile="tiny", workers=1
        )
        report = fuzz_session.run_fuzz_session(config)
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.notes.startswith(
                "reducer-error: RuntimeError: reducer exploded"
            )
            assert failure.reduced == failure.source  # kept unreduced
            assert failure.to_dict()["notes"] == failure.notes

    def test_harness_error_becomes_failure_class(self, monkeypatch):
        from repro.fuzz import session as fuzz_session

        def fake_run_tasks(fn, tasks, workers=None, **kwargs):
            results = [fn(task) for task in tasks]
            results[0] = FailedResult(
                task="task[0]", index=0, kind="crash",
                message="worker process died", quarantined=True,
            )
            return results

        monkeypatch.setattr(fuzz_session, "run_tasks", fake_run_tasks)
        config = fuzz_session.FuzzSessionConfig(
            master_seed=1, iterations=2, profile="tiny", workers=1
        )
        report = fuzz_session.run_fuzz_session(config)
        assert report.failure_counts.get("harness-error") == 1
        harness_failures = [
            f for f in report.failures if f.failure_class == "harness-error"
        ]
        assert len(harness_failures) == 1
        assert "crash in task: worker process died" in harness_failures[0].detail
