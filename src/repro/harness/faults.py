"""Fault-tolerant task execution: taxonomy, containment, checkpointing.

The paper treats failure as a first-class outcome — SLMS *declines* a
bad loop and keeps going (§3.6) — and the evaluation engine extends
that stance from "decline a loop" to "survive a failed experiment".
One worker crash, one hung simulation or one corrupt cache entry must
never abort a 235-experiment sweep or lose a 10k-case fuzz session.

Four cooperating pieces, all consumed by :mod:`repro.harness.engine`:

* an **error taxonomy** — :class:`TaskError` carries one of
  :data:`KINDS` (``transient`` / ``deterministic`` / ``timeout`` /
  ``crash`` / ``oom``) and failures surface as structured
  :class:`FailedResult` values (kind, phase, traceback digest, spec
  identity, attempt count) returned *in spec order* instead of a raw
  exception aborting the run;
* a **guarded dispatcher** — :func:`execute_guarded` runs tasks
  in-process, or, when a task must be contained, in one windowed
  future-per-task pool loop: per-task wall-clock timeouts (the stuck
  worker pool is torn down and rebuilt), a fixed retry schedule for
  ``transient`` failures, and ``BrokenProcessPool`` recovery that
  re-runs the suspect tasks one at a time and quarantines the poison
  task after K strikes;
* a **checkpoint journal** — :class:`RunJournal` appends one flushed
  JSON line per completed task, keyed by the experiment cache's
  content hash, so an interrupted ``slms sweep``/``slms fuzz`` resumes
  byte-identical to an uninterrupted run;
* a **deterministic fault-injection harness** — :class:`FaultPlan`
  (seeded rules like ``crash:7``, ``hang:3x2@20``, ``transient:5x1``,
  ``corrupt-cache:2``, ``abort:1``) activated programmatically or via
  the ``SLMS_FAULTS`` environment variable, used by the chaos test
  suite and the CI ``chaos-smoke`` job to prove every recovery path.

Batches reach the dispatcher through :func:`repro.harness.engine.run_tasks`,
which owns the journal and the parent-side rules; ``slms serve`` calls
:func:`execute_guarded` directly, one request at a time, and lends each
call a warm worker from its :class:`PoolStash`: a lender makes every
call run in a worker, with or without a time limit.  See
``docs/ROBUSTNESS.md`` for the retry/timeout semantics, the resume
guarantees and a fault-injection cookbook.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
import traceback as _tb
from bisect import insort
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import (
    MetricsRegistry,
    Tracer,
    metrics_scope,
    read_jsonl,
    tracing,
)

#: The failure taxonomy.  ``transient`` faults are worth retrying
#: (flaky I/O, injected chaos); ``deterministic`` ones will fail again
#: on the same inputs; ``timeout`` is a task that exceeded its
#: wall-clock budget; ``crash`` is a worker process that died;
#: ``oom`` is an out-of-memory condition (``MemoryError``).
KINDS = ("transient", "deterministic", "timeout", "crash", "oom")


class TaskError(Exception):
    """An error with an explicit failure-taxonomy kind.

    Raise (or subclass) inside a task to control how the guarded
    dispatcher classifies the failure; any other exception is
    classified ``deterministic`` (``MemoryError`` → ``oom``).
    """

    kind = "deterministic"

    def __init__(self, message: str = "", kind: Optional[str] = None):
        super().__init__(message)
        if kind is not None:
            if kind not in KINDS:
                raise ValueError(f"unknown failure kind {kind!r}")
            self.kind = kind


class TransientError(TaskError):
    """A failure worth retrying (the dispatcher's default retry kind)."""

    kind = "transient"


class TaskFailedError(RuntimeError):
    """Raised by strict callers when a guarded run produced failures.

    The figure harness (:mod:`repro.harness.figures`) wraps a sweep's
    :class:`FailedResult` list in this exception, because every figure
    reads every cell; the engine itself never propagates a task
    failure.
    """

    def __init__(self, failures: Sequence["FailedResult"]):
        self.failures = list(failures)
        first = self.failures[0]
        more = (
            f" (+{len(self.failures) - 1} more)"
            if len(self.failures) > 1
            else ""
        )
        super().__init__(
            f"{first.task}: {first.kind} failure in {first.phase}: "
            f"{first.message}{more}"
        )


def classify_exception(exc: BaseException) -> str:
    """Map an exception to its taxonomy kind."""
    if isinstance(exc, TaskError):
        return exc.kind
    if isinstance(exc, MemoryError):
        return "oom"
    return "deterministic"


# Frames from the dispatch machinery itself are excluded from digests
# so a failure hashes identically whether it ran in-process or in a
# worker (the surrounding harness frames differ, the fault does not).
_HARNESS_FILES = frozenset({"faults.py", "engine.py"})


def traceback_digest(exc: BaseException) -> str:
    """Stable 16-hex digest identifying a failure's traceback.

    Hashes ``file:function:line`` triples plus the exception type and
    message — no memory addresses, no absolute paths — so identical
    faults deduplicate across runs, worker counts and hosts.
    """
    lines = [
        f"{os.path.basename(f.filename)}:{f.name}:{f.lineno}"
        for f in _tb.extract_tb(exc.__traceback__)
        if os.path.basename(f.filename) not in _HARNESS_FILES
    ]
    lines.append(f"{type(exc).__name__}: {exc}")
    payload = "\n".join(lines)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# Innermost frame wins: an exception raised under repro/sim/ failed in
# the simulate phase no matter which harness layer re-raised it.
_PHASE_BY_PATH = (
    (os.sep + os.path.join("repro", "lang") + os.sep, "parse"),
    (os.sep + os.path.join("repro", "core") + os.sep, "transform"),
    (os.sep + os.path.join("repro", "transforms") + os.sep, "transform"),
    (os.sep + os.path.join("repro", "analysis") + os.sep, "transform"),
    (os.sep + os.path.join("repro", "backend") + os.sep, "compile"),
    (os.sep + os.path.join("repro", "sim") + os.sep, "simulate"),
    (os.sep + os.path.join("repro", "verify") + os.sep, "verify"),
)


def infer_phase(exc: BaseException) -> str:
    """Best-effort pipeline phase a failure originated in.

    Walks the traceback innermost-out and matches the frame's module
    path against the pipeline layers; ``VerificationError`` (from any
    frame) is always the verify phase.  Falls back to ``"task"``.
    """
    if type(exc).__name__ == "VerificationError":
        return "verify"
    for frame in reversed(_tb.extract_tb(exc.__traceback__)):
        for fragment, phase in _PHASE_BY_PATH:
            if fragment in frame.filename:
                return phase
    return "task"


@dataclass
class FailedResult:
    """Structured stand-in for a result whose task produced none.

    Occupies the failed task's slot in the engine's result list, so
    callers always receive exactly one entry per spec, in spec order.
    ``spec`` carries the experiment identity (workload/suite/machine/
    compiler names) when the task was an experiment; generic tasks get
    an empty mapping and identify themselves via ``task``/``index``.
    """

    task: str
    index: int
    kind: str
    phase: str = "task"
    message: str = ""
    traceback_digest: str = ""
    attempts: int = 1
    quarantined: bool = False
    spec: Dict[str, str] = field(default_factory=dict)

    # Class-level sentinel: ExperimentResult has no such attribute, so
    # ``is_failed`` needs no isinstance import at call sites.
    failed = True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": "failed",
            "task": self.task,
            "index": self.index,
            "kind": self.kind,
            "phase": self.phase,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "spec": dict(self.spec),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FailedResult":
        return FailedResult(
            task=data["task"],
            index=int(data["index"]),
            kind=data["kind"],
            phase=data.get("phase", "task"),
            message=data.get("message", ""),
            traceback_digest=data.get("traceback_digest", ""),
            attempts=int(data.get("attempts", 1)),
            quarantined=bool(data.get("quarantined", False)),
            spec=dict(data.get("spec") or {}),
        )


def is_failed(result: Any) -> bool:
    """Is this engine result a :class:`FailedResult`?"""
    return getattr(result, "failed", False) is True


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

#: Ops a :class:`FaultRule` can perform.  ``crash``/``hang``/
#: ``transient``/``fail``/``oom`` fire inside the task; ``corrupt-cache``
#: (mangle the entry the task just cached), ``abort`` (kill the
#: *parent* after N completions, simulating SIGKILL mid-sweep) and
#: ``reject`` (shed the request at admission, before any worker runs)
#: are applied by the dispatching layer on the parent side.
PLAN_OPS = ("crash", "hang", "transient", "fail", "oom",
            "corrupt-cache", "abort", "reject")

_DEFAULT_TIMES = {"transient": 1, "hang": 1}  # others: every attempt


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: ``op:index[xTIMES][@SECONDS]``.

    ``index`` is the task's position in the dispatched sequence
    (``-1`` = the ``?`` wildcard, pinned deterministically from the
    plan seed at dispatch time).  ``times`` limits the rule to the
    task's first N attempts (``0`` = every attempt, the default for
    ``crash``/``fail``/``oom``); ``seconds`` is the hang duration.
    For ``abort``, ``index`` counts parent-side completions instead.
    """

    op: str
    index: int
    times: int = 0
    seconds: float = 30.0

    def spec(self) -> str:
        out = f"{self.op}:{'?' if self.index < 0 else self.index}"
        if self.times:
            out += f"x{self.times}"
        if self.op == "hang" and self.seconds != 30.0:
            out += f"@{self.seconds:g}"
        return out


def _parse_rule(token: str) -> FaultRule:
    op, sep, rest = token.partition(":")
    op = op.strip()
    if not sep or op not in PLAN_OPS:
        raise ValueError(
            f"bad fault rule {token!r}; expected OP:INDEX[xTIMES][@SECONDS] "
            f"with OP in {PLAN_OPS}"
        )
    seconds = 30.0
    if "@" in rest:
        rest, _, secs = rest.partition("@")
        seconds = float(secs)
    times = _DEFAULT_TIMES.get(op, 0)
    if "x" in rest:
        rest, _, reps = rest.partition("x")
        times = int(reps)
    rest = rest.strip()
    index = -1 if rest == "?" else int(rest)
    return FaultRule(op=op, index=index, times=times, seconds=seconds)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of injection rules (picklable, hashable).

    Build programmatically, with :meth:`parse` from a spec string like
    ``"crash:7;hang:3x2@20;seed=42"``, or from the environment with
    :meth:`from_env` (``SLMS_FAULTS``).  ``?`` indices are resolved by
    :meth:`resolved` from the plan ``seed`` — same seed, same targets,
    independent of worker count or host.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    @staticmethod
    def parse(spec: str, seed: int = 0) -> "FaultPlan":
        rules: List[FaultRule] = []
        for token in spec.replace(",", ";").split(";"):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                seed = int(token[len("seed="):])
                continue
            rules.append(_parse_rule(token))
        return FaultPlan(rules=tuple(rules), seed=seed)

    @staticmethod
    def from_env(var: str = "SLMS_FAULTS") -> Optional["FaultPlan"]:
        spec = os.environ.get(var, "").strip()
        return FaultPlan.parse(spec) if spec else None

    def spec(self) -> str:
        parts = [rule.spec() for rule in self.rules]
        if self.seed:
            parts.append(f"seed={self.seed}")
        return ";".join(parts)

    def resolved(self, n_tasks: int) -> "FaultPlan":
        """Pin every ``?`` index deterministically from the seed."""
        if n_tasks <= 0 or all(rule.index >= 0 for rule in self.rules):
            return self
        out = []
        for pos, rule in enumerate(self.rules):
            if rule.index < 0:
                material = f"{self.seed}:{pos}:{rule.op}:{n_tasks}"
                digest = hashlib.sha256(material.encode("utf-8")).hexdigest()
                rule = FaultRule(
                    op=rule.op,
                    index=int(digest[:8], 16) % n_tasks,
                    times=rule.times,
                    seconds=rule.seconds,
                )
            out.append(rule)
        return FaultPlan(rules=tuple(out), seed=self.seed)

    def needs_isolation(self) -> bool:
        """Do any rules require a worker process to contain them?"""
        return any(r.op in ("crash", "hang") for r in self.rules)

    def corrupt_cache_indices(self) -> frozenset:
        return frozenset(
            r.index for r in self.rules if r.op == "corrupt-cache"
        )

    def abort_after(self) -> Optional[int]:
        """Parent-side kill point: os._exit after N task completions."""
        for rule in self.rules:
            if rule.op == "abort":
                return rule.index
        return None

    def reject_indices(self) -> frozenset:
        """Admission-side shed points: requests refused before dispatch."""
        return frozenset(r.index for r in self.rules if r.op == "reject")

    def apply(self, index: int, attempt: int) -> None:
        """Fire any in-task rules for (task ``index``, ``attempt``).

        Runs inside the task.  A ``crash`` or ``hang`` rule only ever
        reaches a worker process: :meth:`needs_isolation` makes
        :func:`execute_guarded` pool any plan that holds one.
        """
        for rule in self.rules:
            if rule.index != index or rule.op in (
                "corrupt-cache", "abort", "reject",
            ):
                continue
            if rule.times and attempt >= rule.times:
                continue
            if rule.op == "crash":
                os._exit(13)
            elif rule.op == "hang":
                time.sleep(rule.seconds)
            elif rule.op == "transient":
                raise TransientError(
                    f"injected transient fault (attempt {attempt})"
                )
            elif rule.op == "fail":
                raise TaskError("injected deterministic fault")
            elif rule.op == "oom":
                raise MemoryError("injected out-of-memory")


# ---------------------------------------------------------------------------
# Retry / containment
# ---------------------------------------------------------------------------

#: The pause before each re-run of a ``transient`` failure, which thus
#: gets one attempt more than there are pauses.  No jitter: two runs of
#: the same plan retry on the same schedule, which the chaos suite
#: asserts.  A ``crash`` gets ``crash_strikes`` attempts with no pause;
#: every other kind fails on its first attempt.
TRANSIENT_BACKOFF_S = (0.0, 0.05)
TRANSIENT_ATTEMPTS = len(TRANSIENT_BACKOFF_S) + 1

#: The pooled loop's wait tick: bookkeeping latency, not a knob.
_POLL_S = 0.05


def _max_attempts(kind: str, crash_strikes: int) -> int:
    if kind == "crash":
        return max(1, crash_strikes)
    if kind == "transient":
        return TRANSIENT_ATTEMPTS
    return 1


@dataclass
class TaskOutcome:
    """One task's conclusion: a value or a failure, plus its history.

    ``log`` records the lifecycle (retries, the final failure or
    quarantine) as plain dicts in deterministic order so the engine can
    re-emit them as trace events in spec order — worker-count-invariant
    exactly like the rest of the obs layer.
    """

    index: int
    value: Any = None
    failure: Optional[FailedResult] = None
    attempts: int = 0
    trace: Optional[dict] = None
    metrics: Optional[dict] = None
    log: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failure is None


def _error_info(exc: BaseException) -> Dict[str, str]:
    message = (
        str(exc)
        if isinstance(exc, TaskError)
        else f"{type(exc).__name__}: {exc}"
    )
    return {
        "kind": classify_exception(exc),
        "phase": infer_phase(exc),
        "message": message,
        "digest": traceback_digest(exc),
    }


def _call(fn, arg, index, attempt, plan, traced, in_process):
    """Run one attempt; never raises (except KeyboardInterrupt)."""
    try:
        if plan is not None:
            plan.apply(index, attempt)
        if traced:
            with tracing(Tracer()) as tracer, \
                    metrics_scope(MetricsRegistry()) as reg:
                value = fn(arg)
            return ("ok", value, tracer.to_dict(), reg.to_dict())
        return ("ok", fn(arg), None, None)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:
        if in_process and not isinstance(exc, Exception):
            # SIGTERM (the CLI's _Terminated), SystemExit, …: these must
            # unwind the host process, not be classified as task faults.
            raise
        return ("err", _error_info(exc), None, None)


def _worker_entry(payload: Tuple) -> Tuple:
    """Top-level worker entry point (must stay picklable)."""
    fn, arg, index, attempt, plan, traced = payload
    return _call(fn, arg, index, attempt, plan, traced, in_process=False)


# Held across every pool submit, which is where a fork-context pool
# forks its workers.  A pool notices a dead worker only by EOF on that
# worker's sentinel pipe; a fork on another thread between the pipe's
# creation and the parent closing the child's end hands a copy of the
# write end to an unrelated child, and the death stays invisible until
# that child exits.  Concurrent callers (``slms serve`` handler threads)
# therefore fork one at a time.
_FORK_LOCK = threading.Lock()


def _reset_fork_lock() -> None:
    # A child forked inside ``_submit`` inherits the lock held; a pooled
    # dispatch inside a pooled worker needs a free one.
    global _FORK_LOCK
    _FORK_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_fork_lock)


def _submit(pool: ProcessPoolExecutor, payload: Tuple) -> Future:
    with _FORK_LOCK:
        return pool.submit(_worker_entry, payload)


#: How often a pool worker checks that the process that forked it lives.
_PARENT_POLL_S = 0.5


def _init_worker(parent: int) -> None:
    """Pool initializer: ignore SIGINT/SIGTERM and exit with ``parent``.

    The pool's owner stops its workers with SIGKILL, so a Ctrl-C or a
    SIGTERM sent to the whole process group is the owner's alone, not
    a cue for every worker to run the handler it inherited (``slms
    serve``'s drain).  An idle worker blocks reading its call queue,
    whose write end it holds itself, so it never sees its parent die:
    without the watch, a SIGKILLed process (a server with warm workers
    above all) would leave its workers running.
    """
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.SIG_IGN)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(0)

    threading.Thread(target=watch, name="slms-parent-watch",
                     daemon=True).start()


#: Workers are forked from the pool's owner whatever the default start
#: method (``forkserver`` on Linux from Python 3.14): the parent watch
#: needs the owner as each worker's parent, and a warm worker is a
#: copy-on-write copy of the owner's heap.
_FORK_CONTEXT = multiprocessing.get_context("fork")


def _fork_pool(size: int) -> ProcessPoolExecutor:
    """A pool of ``size`` workers, forked at its first submit."""
    return ProcessPoolExecutor(max_workers=size, mp_context=_FORK_CONTEXT,
                               initializer=_init_worker,
                               initargs=(os.getpid(),))


#: How long a teardown waits for the pool's manager thread and workers.
_TEARDOWN_JOIN_S = 5.0


def _teardown_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Hard-stop a pool whose workers may be dead or stuck.

    The workers and the manager thread are taken before ``shutdown``,
    which drops the pool's references to them.  The workers are killed,
    not terminated: a worker ignores SIGTERM (:func:`_init_worker`).  The
    manager thread is then joined, because until it has closed its
    wakeup pipe, the interpreter's exit hook can write to that pipe as
    it closes (``OSError: [Errno 9] Bad file descriptor`` at exit).
    """
    if pool is None:
        return
    procs = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in procs:
        try:
            if proc.is_alive():
                proc.kill()
        except (OSError, ValueError):  # already reaped or closed
            pass
    deadline = time.monotonic() + _TEARDOWN_JOIN_S
    if manager is not None:
        manager.join(_TEARDOWN_JOIN_S)
    for proc in procs:
        try:
            proc.join(max(0.0, deadline - time.monotonic()))
        except (OSError, ValueError):
            pass


class PoolStash:
    """Idle one-worker pools that :func:`execute_guarded` may borrow.

    A long-lived caller (``slms serve``) keeps one and passes it as the
    ``lender`` of every call, so a call can run in a warm worker instead
    of forking its own.  At most one idle pool per CPU is kept; a pool
    handed back beyond that, or after :meth:`close`, is torn down.
    ``started`` counts the workers forked through :meth:`fork`.
    """

    def __init__(self) -> None:
        self.started = 0
        self._limit = os.cpu_count() or 1
        self._idle: List[ProcessPoolExecutor] = []
        self._closed = False
        self._lock = threading.Lock()

    def take(self) -> Optional[ProcessPoolExecutor]:
        """The most recently returned idle pool, or None."""
        with self._lock:
            return self._idle.pop() if self._idle else None

    def fork(self) -> ProcessPoolExecutor:
        """A new one-worker pool, counted in ``started``."""
        with self._lock:
            self.started += 1
        return _fork_pool(1)

    def give(self, pool: ProcessPoolExecutor) -> None:
        """Keep an idle one-worker pool whose attempts all succeeded."""
        with self._lock:
            if not self._closed and len(self._idle) < self._limit:
                self._idle.append(pool)
                return
        _teardown_pool(pool)

    def close(self) -> None:
        """Tear every idle pool down; pools handed back later follow."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for pool in idle:
            _teardown_pool(pool)


def _error(kind: str, message: str, digest: str = "") -> Tuple:
    """An attempt result for a failure seen from the parent side."""
    return ("err", {"kind": kind, "phase": "task", "message": message,
                    "digest": digest}, None, None)


def execute_guarded(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    crash_strikes: int = 2,
    fault_plan: Optional[FaultPlan] = None,
    labels: Optional[Sequence[str]] = None,
    specs: Optional[Sequence[Dict[str, str]]] = None,
    traced: bool = False,
    on_complete: Optional[Callable[[int, TaskOutcome], None]] = None,
    lender: Optional[PoolStash] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> List[TaskOutcome]:
    """Run ``fn`` over ``items`` with full failure containment.

    Returns one :class:`TaskOutcome` per item, **in item order**, each
    carrying either the task's return value or a :class:`FailedResult`
    — no exception a task raises (or injection a :class:`FaultPlan`
    performs) propagates out of this function.

    Containment requires a worker process, so a pool is used whenever
    ``workers > 1``, a ``timeout_s`` (per-task wall-clock limit) is
    set, ``fault_plan`` holds crash/hang rules or a ``lender`` is given;
    otherwise tasks run in-process, where retry and classification
    still apply.  A worker crash makes every task in flight a suspect;
    suspects re-run one at a time, so only a task that crashes alone
    takes a strike, and ``crash_strikes`` strikes quarantine it.

    ``on_complete(index, outcome)`` fires once per task at its
    conclusion (checkpointing hook); ``sleep`` is injectable so tests
    can record the deterministic backoff schedule.

    With a ``lender`` and ``workers == 1``, the call's first pool
    is the lender's idle pool (or one forked through it) and goes back
    to it when every attempt in it returned ok; a crash, timeout,
    failed attempt or broken pool tears it down instead.  Later pools
    are forked through the lender and torn down at the end, so a crash
    suspect re-runs alone in a fresh worker.
    """
    n = len(items)
    outcomes = [TaskOutcome(index=i) for i in range(n)]
    if n == 0:
        return outcomes
    plan = fault_plan.resolved(n) if fault_plan else None
    labels = list(labels) if labels else [f"task[{i}]" for i in range(n)]
    specs = list(specs) if specs else [{} for _ in range(n)]

    def conclude(i: int, res: Tuple) -> bool:
        """Count one attempt of task ``i``; True when it must run again."""
        status, value, trace, metrics = res
        out = outcomes[i]
        out.attempts += 1
        if status == "ok":
            out.value, out.trace, out.metrics = value, trace, metrics
        else:
            kind = value["kind"]
            if out.attempts < _max_attempts(kind, crash_strikes):
                delay = (
                    TRANSIENT_BACKOFF_S[out.attempts - 1]
                    if kind == "transient"
                    else 0.0
                )
                out.log.append({"event": "retry", "kind": kind,
                                "attempt": out.attempts, "backoff_s": delay})
                if delay:
                    sleep(delay)
                return True
            quarantined = kind == "crash"
            out.failure = FailedResult(
                task=labels[i],
                index=i,
                kind=kind,
                phase=value["phase"],
                message=value["message"],
                traceback_digest=value["digest"],
                attempts=out.attempts,
                quarantined=quarantined,
                spec=dict(specs[i]),
            )
            out.log.append({"event": "quarantine" if quarantined else "failed",
                            "kind": kind, "attempts": out.attempts})
        if on_complete is not None:
            on_complete(i, out)
        return False

    if not (
        workers > 1
        or timeout_s is not None
        or lender is not None
        or (plan is not None and plan.needs_isolation())
    ):
        for i in range(n):
            while conclude(i, _call(fn, items[i], i, outcomes[i].attempts,
                                    plan, traced, in_process=True)):
                pass
        return outcomes

    # -- pooled dispatch ------------------------------------------------
    # One loop, two windows: up to ``workers`` tasks in flight, or one
    # while crash suspects remain, in a pool sized to the window.  A
    # window changes only between batches, when nothing is in flight.
    crash = _error("crash", "worker process died while running this task")
    if timeout_s is not None:
        timeout = _error(
            "timeout", f"task exceeded the {timeout_s:g}s wall-clock limit"
        )
    pending: List[int] = list(range(n))  # both queues stay sorted
    suspects: List[int] = []
    in_flight: Dict[Future, Tuple[int, float]] = {}
    pool: Optional[ProcessPoolExecutor] = None
    size = 0
    solo, window = False, workers
    # The lender's pool, while every attempt in it has returned ok.  Only
    # the first pool is borrowed: a crash suspect re-runs in a fresh fork.
    lent: Optional[ProcessPoolExecutor] = None
    borrow = lender is not None and workers == 1
    if borrow:
        pool = lent = lender.take() or lender.fork()
        size = 1

    def payload(i):
        return (fn, items[i], i, outcomes[i].attempts, plan, traced)

    def drop_pool() -> None:
        nonlocal pool
        _teardown_pool(pool)
        pool = None

    try:
        while pending or suspects or in_flight:
            if not in_flight:
                solo = bool(suspects)
                window = 1 if solo else workers
                if pool is not None and size != window:
                    drop_pool()
            queue = suspects if solo else pending
            broke = False
            while queue and len(in_flight) < window:
                if pool is None:
                    pool = lender.fork() if borrow else _fork_pool(window)
                    size = window
                i = queue.pop(0)
                try:
                    fut = _submit(pool, payload(i))
                except BrokenProcessPool:
                    insort(suspects, i)
                    broke = True
                    break
                in_flight[fut] = (i, time.perf_counter())
            if not broke and in_flight:
                done, _ = wait(list(in_flight), timeout=_POLL_S,
                               return_when=FIRST_COMPLETED)
                for fut in sorted(done, key=lambda f: in_flight[f][0]):
                    i, _t0 = in_flight.pop(fut)
                    try:
                        res = fut.result()
                    except CancelledError:
                        insort(queue, i)  # never ran: requeue unblamed
                        continue
                    except BrokenProcessPool:
                        broke = True
                        if not solo:  # it ran beside others: blame none yet
                            insort(suspects, i)
                            continue
                        res = crash  # it ran alone: the crash is its own
                    except Exception as exc:  # unpicklable result, etc.
                        res = _error(classify_exception(exc),
                                     f"{type(exc).__name__}: {exc}",
                                     traceback_digest(exc))
                    if res[0] != "ok":
                        lent = None
                    if conclude(i, res):
                        insort(queue, i)
            if broke:
                for i, _t0 in in_flight.values():
                    insort(suspects, i)
                in_flight.clear()
                drop_pool()
                continue
            if timeout_s is not None and in_flight:
                now = time.perf_counter()
                over = sorted(i for i, t0 in in_flight.values()
                              if now - t0 > timeout_s)
                if over:
                    # The stuck worker cannot be preempted alone: tear the
                    # pool down, fail (or retry) the offenders and requeue
                    # the rest in flight with their attempts untouched.
                    rest = [i for i, _t0 in in_flight.values()
                            if i not in over]
                    in_flight.clear()
                    drop_pool()
                    for i in over:
                        if conclude(i, timeout):
                            insort(queue, i)
                    for i in rest:
                        insort(queue, i)
    finally:
        if pool is not None and pool is lent and not in_flight:
            lender.give(pool)
        else:
            _teardown_pool(pool)
    return outcomes


# ---------------------------------------------------------------------------
# Checkpoint journal
# ---------------------------------------------------------------------------


def task_key(payload: Any) -> str:
    """Content hash of a JSON-able task payload.

    The generic sibling of ``experiment_key`` — gives ``run_tasks``
    callers (the fuzzer) content-addressed journal keys, so a resumed
    session only re-runs work whose inputs actually changed.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RunJournal:
    """Append-only checkpoint journal for interruptible runs.

    One self-contained JSON line per completed task, keyed by content
    hash (the experiment cache key, or :func:`task_key` for generic
    tasks).  Lines are flushed as they are written, so a SIGKILL loses
    at most the in-flight tasks; the loader tolerates a torn final
    line.  On resume, only ``status == "ok"`` records are reused —
    failed tasks are re-attempted, which is what lets a run that was
    chaos-injected (or genuinely flaky) converge to the clean result
    on a follow-up ``--resume``.
    """

    SCHEMA = "slms-journal/1"

    def __init__(self, path: str | Path, resume: bool = False):
        self.path = Path(path)
        self._entries: Dict[str, dict] = {}
        if resume:
            self._load()
        else:
            try:
                self.path.unlink()
            except OSError:
                pass
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def _load(self) -> None:
        for record in read_jsonl(self.path):
            key = record.get("key")
            if isinstance(key, str):
                self._entries[key] = record

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[dict]:
        """The last record for ``key`` (``{"status": ..., "result": ...}``)."""
        return self._entries.get(key)

    def completed_ok(self, key: str) -> Optional[dict]:
        """The stored result payload, but only for an ``ok`` record."""
        record = self._entries.get(key)
        if record is not None and record.get("status") == "ok":
            return record.get("result")
        return None

    def record(self, key: str, status: str, result: Any) -> None:
        entry = {
            "schema": self.SCHEMA,
            "key": key,
            "status": status,
            "result": result,
        }
        self._entries[key] = entry
        self._fh.write(
            json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self.flush()

    def flush(self) -> None:
        try:
            self._fh.flush()
        except (OSError, ValueError):
            pass

    def close(self) -> None:
        self.flush()
        try:
            self._fh.close()
        except (OSError, ValueError):
            pass

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


__all__ = [
    "KINDS",
    "PLAN_OPS",
    "FailedResult",
    "FaultPlan",
    "FaultRule",
    "PoolStash",
    "RunJournal",
    "TRANSIENT_ATTEMPTS",
    "TRANSIENT_BACKOFF_S",
    "TaskError",
    "TaskFailedError",
    "TaskOutcome",
    "TransientError",
    "classify_exception",
    "execute_guarded",
    "infer_phase",
    "is_failed",
    "task_key",
    "traceback_digest",
]
