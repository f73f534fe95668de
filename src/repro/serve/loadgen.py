"""Concurrent-client load harness: ``slms serve-bench``.

Spins up in-process servers (one per phase, on ephemeral ports) and
drives them with real HTTP clients on threads, measuring what the
serving layer promises (docs/SERVING.md):

* **latency** — ≥8 concurrent clients issuing *distinct* compile
  requests; reports p50/p99 latency and throughput.
* **coalesce** — N identical in-flight requests must execute exactly
  once (the others ride the leader's result).
* **shed** — a burst past ``queue_limit`` distinct requests must be
  refused with 429s, not queued unboundedly.
* **chaos** — under an injected worker crash + hang
  (``crash:2;hang:3@60``), only the targeted requests fail (with
  structured ``crash``/``timeout`` errors); every other in-flight
  request completes.
* **digest** (optional, ``--full``) — a whole corpus sweep executed
  through the service must reproduce the frozen
  ``BENCH_sweep.json`` result digest byte-for-byte.

The result is the machine-readable ``BENCH_serve.json``
(schema ``slms-serve-bench/1``).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.harness.faults import FaultPlan
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, SlmsServer
from repro.serve.session import SessionConfig

BENCH_SCHEMA = "slms-serve-bench/1"


@contextmanager
def _server(config: ServeConfig):
    """An in-process server on an ephemeral port, cleanly torn down."""
    server = SlmsServer(config)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=30)
        server.server_close()


def _fanout(n: int, fn) -> List[Any]:
    """Run ``fn(i)`` on ``n`` threads at once; results in thread order."""
    results: List[Any] = [None] * n
    barrier = threading.Barrier(n)

    def run(i: int) -> None:
        barrier.wait()
        results[i] = fn(i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _kernel_source(index: int) -> str:
    """A distinct (but always pipelinable) daxpy-style kernel."""
    n = 48 + index
    return (
        f"float A[{n}], B[{n}];\n"
        "float s = 0.0, t;\n"
        f"for (i = 0; i < {n}; i++) {{ A[i] = i; B[i] = 2.0; }}\n"
        f"for (i = 0; i < {n}; i++) "
        "{ t = A[i] * B[i]; s = s + t; }\n"
    )


def _phase_latency(
    clients: int, per_client: int, session: SessionConfig
) -> Dict[str, Any]:
    from repro.obs import latency_percentiles

    config = ServeConfig(port=0, queue_limit=clients * 2, session=session)
    with _server(config) as server:
        url = server.url

        def drive(i: int) -> List[float]:
            client = ServeClient(url)
            samples = []
            for j in range(per_client):
                source = _kernel_source(i * per_client + j)
                t0 = time.perf_counter()
                result = client.call("compile", {"source": source})
                samples.append(time.perf_counter() - t0)
                assert result["applied"] >= 1
            return samples

        t_start = time.perf_counter()
        per_thread = _fanout(clients, drive)
        wall = time.perf_counter() - t_start
        stats = server.stats()

    samples = [s for chunk in per_thread for s in chunk]
    return {
        "clients": clients,
        "requests": len(samples),
        "wall_s": round(wall, 3),
        "throughput_rps": round(len(samples) / wall, 3) if wall else 0.0,
        "latency": latency_percentiles(samples),
        "server": stats["requests"],
    }


def _phase_coalesce(clients: int, session: SessionConfig) -> Dict[str, Any]:
    config = ServeConfig(
        port=0, queue_limit=clients * 2, session=session, enable_sleep=True
    )
    with _server(config) as server:
        url = server.url
        # A generous window so every barrier-released client joins the
        # leader's flight even on a loaded machine.
        statuses = _fanout(
            clients,
            lambda i: ServeClient(url).post("sleep", {"seconds": 1.0}),
        )
        stats = server.stats()
    ok = sum(1 for status, _ in statuses if status == 200)
    coalesced = sum(
        1 for _, env in statuses if env.get("coalesced")
    )
    executions = stats["requests"]["executions"]
    return {
        "clients": clients,
        "ok": ok,
        "executions": executions,
        "coalesced": coalesced,
        "coalesce_rate": round(coalesced / clients, 3) if clients else 0.0,
    }


def _phase_shed(session: SessionConfig) -> Dict[str, Any]:
    limit, burst = 2, 6
    config = ServeConfig(
        port=0, queue_limit=limit, session=session, enable_sleep=True
    )
    with _server(config) as server:
        url = server.url
        statuses = _fanout(
            burst,
            # Distinct durations → distinct keys → no coalescing.
            lambda i: ServeClient(url).post(
                "sleep", {"seconds": 0.5 + i * 0.001}
            ),
        )
        stats = server.stats()
    shed = sum(1 for status, _ in statuses if status == 429)
    ok = sum(1 for status, _ in statuses if status == 200)
    return {
        "queue_limit": limit,
        "burst": burst,
        "ok": ok,
        "shed": shed,
        "server_shed": stats["requests"]["shed"],
    }


def _phase_chaos(session: SessionConfig) -> Dict[str, Any]:
    """crash:2 + hang:3@60 under a 4 s timeout: exactly the targeted
    admissions fail; unrelated in-flight requests all complete.  The
    timeout is generous relative to the 0.5 s workloads so a slow
    worker spawn on a loaded box cannot masquerade as a hang."""
    burst = 6
    plan = FaultPlan.parse("crash:2;hang:3@60")
    config = ServeConfig(
        port=0,
        queue_limit=burst * 2,
        timeout_s=4.0,
        crash_strikes=2,
        fault_plan=plan,
        session=session,
        enable_sleep=True,
    )
    with _server(config) as server:
        url = server.url
        statuses = _fanout(
            burst,
            lambda i: ServeClient(url).post(
                "sleep", {"seconds": 0.5 + i * 0.001}
            ),
        )
        stats = server.stats()
    kinds = sorted(
        (env.get("error") or {}).get("kind")
        for status, env in statuses
        if status != 200
    )
    return {
        "plan": plan.spec(),
        "burst": burst,
        "ok": sum(1 for status, _ in statuses if status == 200),
        "failed": sum(1 for status, _ in statuses if status != 200),
        "failed_kinds": kinds,
        "server_failed_kinds": stats["failed_kinds"],
        "survived": stats["requests"]["ok"],
    }


def _phase_digest(session: SessionConfig, workers: Optional[int]):
    """Full corpus sweep through the service; its result digest must be
    byte-identical to the CLI's (and the frozen baseline's)."""
    config = ServeConfig(port=0, timeout_s=None, session=session)
    with _server(config) as server:
        client = ServeClient(server.url, timeout=None)
        result = client.call(
            "sweep", {} if workers is None else {"workers": workers}
        )
    return {
        "experiments": result["experiments"],
        "failures": result["failures"],
        "result_digest_sha256": result["result_digest"],
    }


def run_serve_bench(
    out_path: Optional[str] = "BENCH_serve.json",
    clients: int = 8,
    per_client: int = 3,
    chaos: bool = True,
    full: bool = False,
    sweep_workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    quiet: bool = False,
) -> Dict[str, Any]:
    """Run every phase; returns (and optionally writes) the record.

    Counts below 1 are refused with ``ValueError`` (naming the CLI
    flag) before any server starts or any record is written.
    """
    for flag, count in (
        ("--clients", clients),
        ("--requests", per_client),
        ("--sweep-workers", sweep_workers),
    ):
        if count is not None and count < 1:
            raise ValueError(f"{flag} must be >= 1, got {count}")

    def note(message: str) -> None:
        if not quiet:
            print(f"# {message}", file=sys.stderr, flush=True)

    session = SessionConfig(cache_dir=cache_dir)
    record: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "label": f"serve-bench:clients={clients}",
    }
    note(f"latency phase: {clients} clients × {per_client} requests …")
    record["latency_phase"] = _phase_latency(clients, per_client, session)
    note(
        "p50={p50:.3f}s p99={p99:.3f}s ({rps} req/s)".format(
            p50=record["latency_phase"]["latency"]["p50"],
            p99=record["latency_phase"]["latency"]["p99"],
            rps=record["latency_phase"]["throughput_rps"],
        )
    )
    note(f"coalesce phase: {clients} identical in-flight requests …")
    record["coalesce_phase"] = _phase_coalesce(clients, session)
    note(
        "executions={executions} coalesced={coalesced}".format(
            **record["coalesce_phase"]
        )
    )
    note("shed phase: burst past the admission queue …")
    record["shed_phase"] = _phase_shed(session)
    note("shed={shed}/{burst}".format(**record["shed_phase"]))
    if chaos:
        note("chaos phase: injected crash + hang …")
        record["chaos_phase"] = _phase_chaos(session)
        note(
            "ok={ok} failed={failed} kinds={failed_kinds}".format(
                **record["chaos_phase"]
            )
        )
    if full:
        note("digest phase: full corpus sweep through the service …")
        record["digest_phase"] = _phase_digest(session, sweep_workers)
        note(
            "digest={result_digest_sha256}".format(**record["digest_phase"])
        )

    # Top-level headline numbers (what the dashboards read).
    record["latency"] = record["latency_phase"]["latency"]
    record["throughput_rps"] = record["latency_phase"]["throughput_rps"]
    record["coalesce_rate"] = record["coalesce_phase"]["coalesce_rate"]
    record["shed_count"] = record["shed_phase"]["shed"]

    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
        note(f"record written to {out_path}")
    return record
