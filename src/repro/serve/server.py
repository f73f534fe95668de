"""The ``slms serve`` HTTP server (protocol ``slms-serve/1``).

Zero-dependency: stdlib ``http.server`` with one thread per
connection.  Every execution is routed through the same guarded
dispatcher the sweep engine uses
(:func:`repro.harness.faults.execute_guarded`), so requests inherit
the full fault taxonomy for free — per-request wall-clock timeouts
(a hung worker is torn down, not waited on), deterministic retry of
transient failures, crash containment in a worker process, and
structured :class:`~repro.harness.faults.FailedResult` classification.

On top of that the server adds the service-level behaviors
(docs/SERVING.md):

* **Coalescing** — concurrent identical requests (same op + params +
  session context, content-addressed via
  :func:`repro.harness.expcache.request_key`) execute once; followers
  wait on the leader and get the same payload with ``coalesced: true``.
* **Bounded admission** — at most ``queue_limit`` distinct requests
  in flight; beyond that new work is shed with a 429 so latency stays
  bounded instead of queueing unboundedly.
* **Quarantine** — a request key whose execution crashed repeatedly is
  refused with a 503 before it can take down another worker.
* **Draining** — SIGTERM stops accepting work, lets every in-flight
  request (leaders *and* coalesced followers) finish, then exits 0.

Fault injection: a :class:`~repro.harness.faults.FaultPlan` (e.g. from
``SLMS_FAULTS``) is interpreted against *admission sequence numbers* —
``crash:2`` crashes the worker of the third admitted execution,
``reject:1`` sheds the second at admission.  ``?`` wildcards are not
resolved here (the request stream has no fixed length); rules with
unresolved indices are ignored.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.harness.faults import FaultPlan, execute_guarded
from repro.serve.session import RequestError, Session, SessionConfig

SERVE_SCHEMA = "slms-serve/1"
STATS_SCHEMA = "slms-serve-stats/2"

#: Plan ops that fire inside the request's worker; admission-side ops
#: (``reject``) and engine-side ops (``corrupt-cache``/``abort``) are
#: not forwarded to the per-request dispatcher.
_IN_TASK_OPS = ("crash", "hang", "transient", "fail", "oom")


@dataclass(frozen=True)
class ServeConfig:
    """Everything the server needs; see docs/SERVING.md."""

    host: str = "127.0.0.1"
    port: int = 8787
    #: Max distinct requests in flight before 429 shedding.
    queue_limit: int = 16
    #: Per-request wall-clock limit (None = unlimited).
    timeout_s: Optional[float] = 120.0
    #: Crashes of one request key before it is quarantined.
    crash_strikes: int = 2
    #: Execute in a disposable worker process (required for real
    #: timeout/crash containment).  ``False`` runs requests in-process
    #: unless an injected crash/hang needs a worker: faster, but no
    #: timeout applies and a real crash takes the server down.
    isolation: bool = True
    fault_plan: Optional[FaultPlan] = None
    session: SessionConfig = field(default_factory=SessionConfig)
    #: Expose the deterministic ``sleep`` debug op (load/chaos tests).
    enable_sleep: bool = False
    #: Write the server-level trace (one span per request) on shutdown.
    trace_out: Optional[str] = None


class _Flight:
    """One in-flight execution: the leader runs, followers wait."""

    __slots__ = ("event", "status", "payload")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.status = 500
        self.payload: Dict[str, Any] = _err(
            "deterministic", "internal dispatch error"
        )


def _serve_worker(item: Tuple[str, Dict[str, Any], Dict[str, Any]]):
    """Top-level (picklable) request executor run under guard.

    Returns an ``{"ok": …}`` envelope instead of raising for
    caller-fault errors so they classify as 400s, not worker failures.
    """
    op, params, session_cfg = item
    # The serving layer owns fault injection for this request: with
    # ambient_faults off, the engine inside it runs an explicit empty
    # plan and never reads SLMS_FAULTS.
    from dataclasses import replace as _replace

    from repro.lang.errors import FrontendError

    session = Session(
        _replace(SessionConfig.from_dict(session_cfg), ambient_faults=False)
    )
    try:
        result = session.handle(op, params)
    except RequestError as exc:
        return {"ok": False, "kind": "bad-request", "message": str(exc)}
    except FrontendError as exc:
        return {"ok": False, "kind": "bad-request", "message": exc.format()}
    return {"ok": True, "result": result}


class SlmsServer(ThreadingHTTPServer):
    """Threading HTTP server with coalescing/admission/quarantine state."""

    # Drain semantics: handler threads are real (non-daemon) and joined
    # by ``server_close`` so SIGTERM waits for in-flight requests.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, config: ServeConfig):
        super().__init__((config.host, config.port), _Handler)
        self.config = config
        self.session = Session(config.session)
        self.draining = False
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._flights: Dict[str, _Flight] = {}
        self._seq = 0
        self._quarantined: set = set()
        self._reject_at = (
            config.fault_plan.reject_indices()
            if config.fault_plan is not None
            else frozenset()
        )
        self.counters: Dict[str, int] = {
            "requests": 0,
            "ok": 0,
            "failed": 0,
            "bad_request": 0,
            "coalesced": 0,
            "shed": 0,
            "shed_injected": 0,
            "quarantine_refusals": 0,
            "drain_refusals": 0,
            "executions": 0,
            "retries": 0,
        }
        self.failed_kinds: Dict[str, int] = {}
        from repro.obs import Tracer

        self.tracer = Tracer()

    # -- lifecycle -----------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def begin_drain(self) -> None:
        """Stop admitting, finish in-flight work, let serve_forever exit.

        Safe to call from a signal handler: ``shutdown()`` must not run
        on the thread executing ``serve_forever``, so it is kicked to a
        helper thread.
        """
        with self._lock:
            if self.draining:
                return
            self.draining = True
        threading.Thread(target=self.shutdown, daemon=True).start()

    def finalize(self) -> None:
        """Post-drain bookkeeping: trace file + ledger record."""
        if self.config.trace_out:
            try:
                from repro.obs import write_json_trace

                write_json_trace(self.tracer.to_dict(), self.config.trace_out)
            except Exception:
                pass
        try:
            from repro.obs import RunLedger, ledger_enabled, make_entry

            if not ledger_enabled():
                return
            counters = dict(self.counters)
            RunLedger().append(
                make_entry(
                    "serve",
                    f"serve:{self.url}",
                    config={
                        "queue_limit": self.config.queue_limit,
                        "timeout_s": self.config.timeout_s,
                        "isolation": self.config.isolation,
                        "session": self.config.session.to_dict(),
                    },
                    experiments=counters["executions"],
                    wall_s=time.time() - self.started_at,
                    faults={
                        "failed": counters["failed"],
                        "shed": counters["shed"],
                        "retries": counters["retries"],
                        "quarantined": len(self._quarantined),
                    },
                    extra={"requests": counters},
                )
            )
        except Exception:
            pass

    # -- request processing -------------------------------------------
    def process(self, op: str, params: Dict[str, Any]) -> Tuple[int, Dict]:
        """Admit, coalesce, execute; returns (http_status, envelope)."""
        t0 = time.perf_counter()
        status, envelope = self._process(op, params)
        envelope.setdefault("schema", SERVE_SCHEMA)
        envelope.setdefault("op", op)
        envelope["elapsed_s"] = round(time.perf_counter() - t0, 6)
        self._account(status, envelope)
        self._record_span(op, status, envelope)
        return status, envelope

    def _process(self, op: str, params: Dict[str, Any]) -> Tuple[int, Dict]:
        from repro.harness.expcache import request_key

        if op == "sleep" and not self.config.enable_sleep:
            return 400, _err("bad-request",
                             "the sleep op requires --enable-sleep")
        try:
            self.session.validate(op, params)
        except RequestError as exc:
            return 400, _err("bad-request", str(exc))

        key = request_key(op, params, self.config.session)
        with self._lock:
            if self.draining:
                return 503, _err("draining", "server is draining",
                                 id=key[:16])
            if key in self._quarantined:
                self.counters["quarantine_refusals"] += 1
                return 503, _err(
                    "quarantined",
                    "request key is quarantined after repeated worker "
                    "crashes",
                    id=key[:16], quarantined=True,
                )
            flight = self._flights.get(key)
            if flight is None:
                if len(self._flights) >= self.config.queue_limit:
                    self.counters["shed"] += 1
                    return 429, _err(
                        "shed",
                        f"admission queue full "
                        f"({self.config.queue_limit} in flight)",
                        id=key[:16],
                    )
                seq = self._seq
                self._seq += 1
                if seq in self._reject_at:
                    self.counters["shed"] += 1
                    self.counters["shed_injected"] += 1
                    return 429, _err(
                        "shed", f"injected admission reject (seq {seq})",
                        id=key[:16], injected=True,
                    )
                flight = _Flight()
                self._flights[key] = flight
                leader = True
            else:
                leader = False

        if not leader:
            flight.event.wait()
            status, payload = flight.status, dict(flight.payload)
            payload["coalesced"] = True
            return status, payload

        try:
            status, payload = self._execute(op, params, key, seq)
            flight.status, flight.payload = status, payload
        finally:
            # Always release followers, even if the dispatcher itself
            # failed unexpectedly (they'd see the default 500).
            with self._lock:
                self._flights.pop(key, None)
            flight.event.set()
        return status, dict(payload)

    def _execute(self, op, params, key, seq) -> Tuple[int, Dict]:
        """Run one admitted request under the guarded dispatcher."""
        with self._lock:
            self.counters["executions"] += 1
        outcomes = execute_guarded(
            _serve_worker,
            [(op, params, self.config.session.to_dict())],
            timeout_s=self.config.timeout_s if self.config.isolation else None,
            crash_strikes=self.config.crash_strikes,
            fault_plan=self._plan_for(seq),
            labels=[f"{op}:{key[:16]}"],
            specs=[{"op": op, "id": key[:16]}],
        )
        out = outcomes[0]
        retries = max(0, out.attempts - 1)
        if retries:
            with self._lock:
                self.counters["retries"] += retries
        base = {"id": key[:16], "coalesced": False, "attempts": out.attempts}
        if out.ok:
            worker = out.value or {}
            if worker.get("ok"):
                return 200, {**base, "ok": True, "result": worker["result"]}
            return 400, {
                **base,
                "ok": False,
                "error": {
                    "kind": worker.get("kind", "bad-request"),
                    "message": worker.get("message", ""),
                    "retryable": False,
                },
            }
        failure = out.failure
        if failure.quarantined:
            # execute_guarded quarantines only after crash_strikes crashes.
            with self._lock:
                self._quarantined.add(key)
        return 500, {
            **base,
            "ok": False,
            "error": {
                "kind": failure.kind,
                "phase": failure.phase,
                "message": failure.message,
                "retryable": failure.kind == "transient",
                "quarantined": failure.quarantined,
            },
        }

    def _plan_for(self, seq: int) -> Optional[FaultPlan]:
        """In-task rules targeting admission ``seq``, rebased to task 0."""
        plan = self.config.fault_plan
        if plan is None:
            return None
        rules = tuple(
            replace(rule, index=0)
            for rule in plan.rules
            if rule.index == seq and rule.op in _IN_TASK_OPS
        )
        return FaultPlan(rules=rules, seed=plan.seed) if rules else None

    # -- bookkeeping ---------------------------------------------------
    def _account(self, status: int, envelope: Dict[str, Any]) -> None:
        with self._lock:
            self.counters["requests"] += 1
            if status == 200:
                self.counters["ok"] += 1
            elif status == 400:
                self.counters["bad_request"] += 1
            elif status == 503 and envelope.get("error", {}).get(
                "kind"
            ) == "draining":
                self.counters["drain_refusals"] += 1
            elif status == 500:
                self.counters["failed"] += 1
                kind = envelope.get("error", {}).get("kind", "unknown")
                self.failed_kinds[kind] = self.failed_kinds.get(kind, 0) + 1
            if envelope.get("coalesced"):
                self.counters["coalesced"] += 1

    def _record_span(self, op, status, envelope) -> None:
        """One ``serve.request`` span per request on the server tracer.

        Handler threads record into private tracers and merge under the
        lock (the tracer itself is not thread-safe).
        """
        from repro.obs import Tracer

        local = Tracer()
        with local.span(
            "serve.request",
            op=op,
            status=status,
            id=envelope.get("id", ""),
            ok=bool(envelope.get("ok")),
            coalesced=bool(envelope.get("coalesced")),
        ):
            pass
        with self._lock:
            self.tracer.absorb(local.to_dict())

    def stats(self) -> Dict[str, Any]:
        from repro.harness.expcache import ENGINE_VERSION, PhaseCache

        with self._lock:
            counters = dict(self.counters)
            failed_kinds = dict(self.failed_kinds)
            inflight = len(self._flights)
            quarantined = sorted(k[:16] for k in self._quarantined)
            draining = self.draining
        payload: Dict[str, Any] = {
            "schema": STATS_SCHEMA,
            "uptime_s": round(time.time() - self.started_at, 3),
            "draining": draining,
            "requests": counters,
            "failed_kinds": failed_kinds,
            "queue": {"inflight": inflight,
                      "limit": self.config.queue_limit},
            "quarantine": quarantined,
            "engine_version": ENGINE_VERSION,
            "session": self.config.session.to_dict(),
        }
        try:
            payload["cache"] = PhaseCache.shared(
                self.config.session.cache_dir
            ).stats()
        except Exception:
            payload["cache"] = None
        return payload


def _err(kind: str, message: str, **extra: Any) -> Dict[str, Any]:
    out = {"ok": False, "coalesced": False,
           "error": {"kind": kind, "message": message}}
    out.update(extra)
    return out


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: SlmsServer

    # Quiet by default: the access log goes to stderr only when asked.
    def log_message(self, fmt, *args):  # pragma: no cover - noise
        if os.environ.get("SLMS_SERVE_LOG"):
            sys.stderr.write(
                "%s - - [%s] %s\n"
                % (self.address_string(), self.log_date_time_string(),
                   fmt % args)
            )

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # One request per connection: an idle keep-alive socket would
        # pin its (non-daemon) handler thread and stall draining.
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = True

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._reply(
                200,
                {
                    "ok": True,
                    "schema": SERVE_SCHEMA,
                    "draining": self.server.draining,
                },
            )
        elif self.path == "/statsz":
            self._reply(200, self.server.stats())
        else:
            self._reply(
                404,
                _err("not-found",
                     f"unknown path {self.path!r}; "
                     "GET /healthz, /statsz or POST /v1/<op>"),
            )

    def do_POST(self) -> None:
        if not self.path.startswith("/v1/"):
            self._reply(
                404, _err("not-found", f"unknown path {self.path!r}")
            )
            return
        op = self.path[len("/v1/"):]
        try:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b"{}"
            params = json.loads(raw.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, _err("bad-request", f"bad JSON body: {exc}"))
            return
        if not isinstance(params, dict):
            self._reply(
                400, _err("bad-request", "request body must be a JSON object")
            )
            return
        status, envelope = self.server.process(op, params)
        try:
            self._reply(status, envelope)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass


def serve_forever(config: ServeConfig) -> int:
    """Run the server until SIGTERM/SIGINT; drains before returning 0.

    Prints ``# serving on <url> (slms-serve/1)`` once the socket is
    bound (with ``--port 0`` this is how callers learn the real port).
    """
    server = SlmsServer(config)

    def _drain(signum, frame):
        print(f"# draining ({signal.Signals(signum).name}) …",
              file=sys.stderr, flush=True)
        server.begin_drain()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _drain)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    print(f"# serving on {server.url} ({SERVE_SCHEMA})", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        # Joins in-flight handler threads (block_on_close) — every
        # admitted request finishes before the process exits.
        server.server_close()
        server.finalize()
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except ValueError:  # pragma: no cover
                pass
    print("# drained; exiting", file=sys.stderr, flush=True)
    return 0
