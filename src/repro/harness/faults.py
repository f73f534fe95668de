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
* a **guarded dispatcher** — :func:`execute_guarded` replaces bare
  ``pool.map`` with future-per-task windowed dispatch: per-task
  wall-clock timeouts (the stuck worker pool is torn down and rebuilt),
  bounded retry with a deterministic backoff schedule for transient
  kinds, and ``BrokenProcessPool`` recovery that re-runs the suspect
  tasks in isolation and quarantines the poison task after K strikes;
* a **checkpoint journal** — :class:`RunJournal` appends one atomic
  JSON line per completed task, keyed by the experiment cache's
  content hash, so an interrupted ``slms sweep``/``slms fuzz`` resumes
  byte-identical to an uninterrupted run;
* a **deterministic fault-injection harness** — :class:`FaultPlan`
  (seeded rules like ``crash:7``, ``hang:3x2@20``, ``transient:5x1``,
  ``corrupt-cache:2``, ``abort:1``) activated programmatically or via
  the ``SLMS_FAULTS`` environment variable, used by the chaos test
  suite and the CI ``chaos-smoke`` job to prove every recovery path.

See ``docs/ROBUSTNESS.md`` for the retry/timeout semantics, the resume
guarantees and a fault-injection cookbook.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import traceback as _tb
from bisect import insort
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import MetricsRegistry, Tracer, metrics_scope, tracing

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


class SimulatedCrash(TaskError):
    """In-process stand-in for a worker death.

    Used by :meth:`FaultPlan.apply` when there is no worker process to
    kill (serial execution); classified exactly like a real crash so
    ``workers=1`` failure reports stay invariant with pooled runs.
    """

    kind = "crash"


class TaskFailedError(RuntimeError):
    """Raised by strict callers when a guarded run produced failures.

    ``run_suite(on_failure="raise")`` — the figure harness path — wraps
    the per-task :class:`FailedResult` list in this exception so legacy
    callers keep exception semantics while the engine itself never
    propagates a task failure.
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

    def apply(self, index: int, attempt: int, in_process: bool = False):
        """Fire any in-task rules for (task ``index``, ``attempt``).

        Runs inside the task (worker process or, for serial execution,
        the parent).  ``in_process`` swaps uncontainable ops for their
        classifiable stand-ins: a crash raises :class:`SimulatedCrash`
        instead of ``os._exit`` and a hang raises a ``timeout``-kind
        :class:`TaskError` instead of sleeping forever.
        """
        for rule in self.rules:
            if rule.index != index or rule.op in (
                "corrupt-cache", "abort", "reject",
            ):
                continue
            if rule.times and attempt >= rule.times:
                continue
            if rule.op == "crash":
                if in_process:
                    raise SimulatedCrash("injected worker crash")
                os._exit(13)
            elif rule.op == "hang":
                if in_process:
                    raise TaskError(
                        f"injected hang ({rule.seconds:g}s) is not "
                        "containable in-process",
                        kind="timeout",
                    )
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
# Retry / containment policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with a deterministic backoff schedule.

    A task of a retryable ``kind`` gets up to ``max_attempts`` total
    attempts; before re-running a task that has made N conclusive
    attempts the dispatcher sleeps ``backoff_s[min(N-1, last)]``.  No
    jitter anywhere — two runs of the same spec retry on the same
    schedule, which the chaos suite asserts.
    """

    max_attempts: int = 3
    backoff_s: Tuple[float, ...] = (0.0, 0.05, 0.2)
    kinds: Tuple[str, ...] = ("transient",)

    def delay(self, attempts_so_far: int) -> float:
        if not self.backoff_s:
            return 0.0
        return self.backoff_s[min(attempts_so_far - 1, len(self.backoff_s) - 1)]


@dataclass(frozen=True)
class FaultPolicy:
    """Everything :func:`execute_guarded` needs to contain failures.

    ``timeout_s`` is the per-task wall-clock limit (None = unlimited);
    ``crash_strikes`` is how many isolated crashes quarantine a task.
    ``poll_s`` is the dispatch loop's wait tick — bookkeeping latency,
    not a correctness knob.
    """

    timeout_s: Optional[float] = None
    retry: RetryPolicy = RetryPolicy()
    crash_strikes: int = 2
    fault_plan: Optional[FaultPlan] = None
    poll_s: float = 0.05

    def max_attempts_for(self, kind: str) -> int:
        if kind == "crash":
            return max(1, self.crash_strikes)
        if kind in self.retry.kinds:
            return max(1, self.retry.max_attempts)
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
            plan.apply(index, attempt, in_process=in_process)
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


def _teardown_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Hard-stop a pool whose workers may be dead or stuck.

    The workers are listed before ``shutdown``, which drops the pool's
    reference to them.  They are killed, not terminated: a worker
    inherits the CLI's SIGTERM handler, which would raise into the
    task instead of stopping the process.
    """
    if pool is None:
        return
    procs = list((getattr(pool, "_processes", None) or {}).values())
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


def execute_guarded(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    workers: int = 1,
    policy: Optional[FaultPolicy] = None,
    labels: Optional[Sequence[str]] = None,
    specs: Optional[Sequence[Dict[str, str]]] = None,
    traced: bool = False,
    on_complete: Optional[Callable[[int, TaskOutcome], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> List[TaskOutcome]:
    """Run ``fn`` over ``items`` with full failure containment.

    Returns one :class:`TaskOutcome` per item, **in item order**, each
    carrying either the task's return value or a :class:`FailedResult`
    — no exception a task raises (or injection a :class:`FaultPlan`
    performs) propagates out of this function.

    Containment requires a worker process, so a pool is used whenever
    ``workers > 1``, a ``timeout_s`` is set, or the fault plan contains
    crash/hang rules; otherwise tasks run in-process (retry and
    classification still apply, and injected crashes degrade to their
    classifiable stand-ins — see :meth:`FaultPlan.apply`).

    ``on_complete(index, outcome)`` fires once per task at its
    conclusion (checkpointing hook); ``sleep`` is injectable so tests
    can record the deterministic backoff schedule.
    """
    policy = policy or FaultPolicy()
    n = len(items)
    outcomes = [TaskOutcome(index=i) for i in range(n)]
    if n == 0:
        return outcomes
    plan = policy.fault_plan.resolved(n) if policy.fault_plan else None
    labels = list(labels) if labels else [f"task[{i}]" for i in range(n)]
    specs = list(specs) if specs else [{} for _ in range(n)]
    notify = on_complete or (lambda i, out: None)

    def conclude_ok(i, value, trace, metrics):
        out = outcomes[i]
        out.attempts += 1
        out.value = value
        out.trace = trace
        out.metrics = metrics
        notify(i, out)

    def conclude_error(i, kind, phase, message, digest="") -> Tuple[bool, float]:
        """Count the attempt; returns (should_retry, backoff delay)."""
        out = outcomes[i]
        out.attempts += 1
        if out.attempts < policy.max_attempts_for(kind):
            delay = (
                policy.retry.delay(out.attempts)
                if kind in policy.retry.kinds
                else 0.0
            )
            out.log.append(
                {
                    "event": "retry",
                    "kind": kind,
                    "attempt": out.attempts,
                    "backoff_s": delay,
                }
            )
            return True, delay
        quarantined = kind == "crash"
        out.failure = FailedResult(
            task=labels[i],
            index=i,
            kind=kind,
            phase=phase,
            message=message,
            traceback_digest=digest,
            attempts=out.attempts,
            quarantined=quarantined,
            spec=dict(specs[i]),
        )
        out.log.append(
            {
                "event": "quarantine" if quarantined else "failed",
                "kind": kind,
                "attempts": out.attempts,
            }
        )
        notify(i, out)
        return False, 0.0

    use_pool = (
        workers > 1
        or policy.timeout_s is not None
        or (plan is not None and plan.needs_isolation())
    )

    if not use_pool:
        for i in range(n):
            while True:
                status, value, trace, metrics = _call(
                    fn, items[i], i, outcomes[i].attempts, plan, traced,
                    in_process=True,
                )
                if status == "ok":
                    conclude_ok(i, value, trace, metrics)
                    break
                retry, delay = conclude_error(
                    i, value["kind"], value["phase"], value["message"],
                    value["digest"],
                )
                if not retry:
                    break
                if delay:
                    sleep(delay)
        return outcomes

    # -- pooled dispatch ------------------------------------------------
    timeout_msg = (
        f"task exceeded the {policy.timeout_s:g}s wall-clock limit"
        if policy.timeout_s is not None
        else ""
    )
    crash_msg = "worker process died while running this task"
    pending: List[int] = sorted(range(n))
    suspects: deque = deque()
    in_flight: Dict[Future, Tuple[int, float]] = {}
    pool: Optional[ProcessPoolExecutor] = None

    def payload(i):
        return (fn, items[i], i, outcomes[i].attempts, plan, traced)

    def handle_result(i, res) -> None:
        """Process a worker's structured return; requeues retries."""
        status, value, trace, metrics = res
        if status == "ok":
            conclude_ok(i, value, trace, metrics)
            return
        retry, delay = conclude_error(
            i, value["kind"], value["phase"], value["message"],
            value["digest"],
        )
        if retry:
            if delay:
                sleep(delay)
            insort(pending, i)

    def handle_isolated(i) -> None:
        """Re-run a crash suspect alone in a fresh single-worker pool.

        Only the poison task can break its own pool here, so strikes
        attribute precisely: K isolated crashes → quarantine.  Innocent
        bystanders of a pool breakage complete normally and return to
        the main dispatch flow.
        """
        while True:
            solo = ProcessPoolExecutor(max_workers=1)
            fut = _submit(solo, payload(i))
            try:
                res = fut.result(timeout=policy.timeout_s)
            except _FuturesTimeout:
                _teardown_pool(solo)
                retry, delay = conclude_error(i, "timeout", "task",
                                              timeout_msg)
                if not retry:
                    return
                if delay:
                    sleep(delay)
                continue
            except (BrokenProcessPool, OSError):
                _teardown_pool(solo)
                retry, delay = conclude_error(i, "crash", "task", crash_msg)
                if not retry:
                    return
                if delay:
                    sleep(delay)
                continue
            except Exception as exc:  # unpicklable result, etc.
                _teardown_pool(solo)
                retry, delay = conclude_error(
                    i, classify_exception(exc), "task",
                    f"{type(exc).__name__}: {exc}", traceback_digest(exc),
                )
                if not retry:
                    return
                if delay:
                    sleep(delay)
                continue
            solo.shutdown(wait=True)
            status, value, trace, metrics = res
            if status == "ok":
                conclude_ok(i, value, trace, metrics)
                return
            retry, delay = conclude_error(
                i, value["kind"], value["phase"], value["message"],
                value["digest"],
            )
            if not retry:
                return
            if delay:
                sleep(delay)

    def absorb_breakage(extra: Optional[int] = None) -> None:
        """Pool died: everything in flight becomes a crash suspect."""
        nonlocal pool
        for _fut, (j, _t0) in list(in_flight.items()):
            suspects.append(j)
        in_flight.clear()
        if extra is not None:
            suspects.append(extra)
        _teardown_pool(pool)
        pool = None
        ordered = sorted(set(suspects))
        suspects.clear()
        suspects.extend(ordered)

    try:
        while pending or in_flight or suspects:
            if suspects and not in_flight:
                handle_isolated(suspects.popleft())
                continue
            if not suspects:
                broke = False
                while pending and len(in_flight) < workers:
                    i = pending.pop(0)
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=workers)
                    try:
                        fut = _submit(pool, payload(i))
                    except BrokenProcessPool:
                        absorb_breakage(extra=i)
                        broke = True
                        break
                    in_flight[fut] = (i, time.perf_counter())
                if broke:
                    continue
            if not in_flight:
                continue
            done, _ = wait(
                list(in_flight), timeout=policy.poll_s,
                return_when=FIRST_COMPLETED,
            )
            broke = False
            for fut in sorted(done, key=lambda f: in_flight[f][0]):
                i, _t0 = in_flight.pop(fut)
                try:
                    res = fut.result()
                except CancelledError:
                    insort(pending, i)
                except BrokenProcessPool:
                    suspects.append(i)
                    broke = True
                except Exception as exc:
                    retry, delay = conclude_error(
                        i, classify_exception(exc), "task",
                        f"{type(exc).__name__}: {exc}",
                        traceback_digest(exc),
                    )
                    if retry:
                        if delay:
                            sleep(delay)
                        insort(pending, i)
                else:
                    handle_result(i, res)
            if broke:
                absorb_breakage()
                continue
            if policy.timeout_s is not None and in_flight:
                now = time.perf_counter()
                over = sorted(
                    i
                    for _fut, (i, t0) in in_flight.items()
                    if now - t0 > policy.timeout_s
                )
                if over:
                    # The stuck worker cannot be preempted individually:
                    # tear the pool down, fail (or retry) the offenders
                    # and requeue the innocent in-flight tasks with their
                    # attempt counts untouched.
                    innocents = sorted(
                        i
                        for _fut, (i, _t0) in in_flight.items()
                        if i not in over
                    )
                    in_flight.clear()
                    _teardown_pool(pool)
                    pool = None
                    for i in over:
                        retry, delay = conclude_error(i, "timeout", "task",
                                                      timeout_msg)
                        if retry:
                            if delay:
                                sleep(delay)
                            insort(pending, i)
                    for i in innocents:
                        insort(pending, i)
    finally:
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

    def __init__(self, path: str | Path, resume: bool = False,
                 flush_every: int = 1):
        self.path = Path(path)
        self.flush_every = max(1, int(flush_every))
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
        self._pending_flush = 0

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # torn tail from a killed run
                    key = record.get("key")
                    if isinstance(key, str):
                        self._entries[key] = record
        except OSError:
            return

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
        self._pending_flush += 1
        if self._pending_flush >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        try:
            self._fh.flush()
        except (OSError, ValueError):
            pass
        self._pending_flush = 0

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
    "FaultPolicy",
    "FaultRule",
    "RetryPolicy",
    "RunJournal",
    "SimulatedCrash",
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
