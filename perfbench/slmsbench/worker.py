"""Child processes of the benchmark: one measured phase each.

Run as ``python -m slmsbench.worker <command> ... --out RESULT.json``
with ``src`` and ``perfbench`` on ``PYTHONPATH``.  Every command stamps
``ready`` (``time.monotonic()``, comparable across processes on one
host) just before its first measured op, then times a burst of speed
probes (``setup_probes``, see :mod:`slmsbench.host`) for the parent to
rescale the set-up with; ``--probe`` exits there, so the parent can time
set-up several times.  ``--trace`` installs the span recorder
(:mod:`slmsbench.spans`) before the measured phase.

Per-op latency comes from a shim at the public function each op goes
through (``run_experiment`` as the engine calls it, ``run_case`` as the
fuzz session calls it): two clock reads per op, no spans.  The same shim
runs the speed probe between ops (``probes``; ``marks`` counts the
probes run before each op); ``measured_s`` leaves the probes' time out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from slmsbench.host import SpeedProbe, probe_burst
from slmsbench.spans import SpanRecorder, install, top_level_seconds

RETARGET_CLEARED = ("compile", "simulate")


def result_digest(result: Any) -> str:
    """Content hash of a JSON payload (served vs replayed results)."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class OpTimer:
    """Wraps an op-boundary function: per-op latency, op id, probes."""

    def __init__(self, recorder: Optional[SpanRecorder]):
        self.recorder = recorder
        self.probe = SpeedProbe()
        self.latencies: List[float] = []
        self.marks: List[int] = []
        self.results: List[Any] = []

    def around(self, fn: Callable, keep: Callable[[Any], Any]):
        def timed(*args, **kwargs):
            if self.recorder is not None:
                self.recorder.op = len(self.latencies)
            self.marks.append(len(self.probe.samples))
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                self.latencies.append(time.perf_counter() - start)
                if self.recorder is not None:
                    self.recorder.op = None
            self.results.append(keep(value))
            self.probe.between_ops()
            return value

        return timed


def _recorder(trace: bool) -> Optional[SpanRecorder]:
    """A recorder with its wrappers installed, when tracing."""
    if not trace:
        return None
    recorder = SpanRecorder()
    install(recorder)
    return recorder


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _ready() -> Dict[str, Any]:
    """The set-up stamp and the probes right after it."""
    ready = time.monotonic()
    return {"ready": ready, "setup_probes": probe_burst()}


def _measured(out: Dict[str, Any], wall_s: float, probe: SpeedProbe) -> None:
    out["measured_s"] = wall_s - probe.spent_s
    out["probes"] = probe.samples


def _finish(out: Dict[str, Any], recorder: Optional[SpanRecorder],
            path: str) -> None:
    out["peak_rss_kb"] = _peak_rss_kb()
    if recorder is not None:
        out["trace"] = recorder.export()
        out["top_level_s"] = top_level_seconds(recorder.spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


def clear_for_retarget(cache_dir: str) -> None:
    """Drop the full-result cache and the machine-dependent tiers.

    Ends with ``sync`` so the kernel's writeback of the priming run's
    files happens here, not during the measured run that follows.
    """
    from repro.harness.expcache import ExperimentCache, PhaseCache

    ExperimentCache(cache_dir).clear()
    PhaseCache.shared(cache_dir).clear(list(RETARGET_CLEARED))
    os.sync()


def cmd_sweep(args) -> None:
    import repro.harness.engine as engine
    from repro.harness.expcache import PhaseCache
    from repro.harness.sweep import run_sweep

    recorder = _recorder(args.trace)
    timer = OpTimer(recorder)
    engine.run_experiment = timer.around(engine.run_experiment,
                                         lambda result: None)
    out = _ready()
    if args.probe:
        return _finish(out, None, args.out)
    start = time.perf_counter()
    sweep = run_sweep(
        workers=1, verify=True, use_cache=True, cache_dir=args.cache_dir
    )
    PhaseCache.shared(args.cache_dir).drain()
    _measured(out, time.perf_counter() - start, timer.probe)
    if args.prime:
        clear_for_retarget(args.cache_dir)
    out.update(
        ops=sweep.stats.experiments,
        latencies_s=timer.latencies,
        marks=timer.marks,
        sweep_json=sweep.to_json(),
        failures=len(sweep.failures),
        stats=sweep.stats.to_dict(),
    )
    _finish(out, recorder, args.out)


def cmd_clear(args) -> None:
    clear_for_retarget(args.cache_dir)
    _finish({}, None, args.out)


def cmd_fuzz(args) -> None:
    import repro.fuzz.session as session
    from repro.fuzz.oracle import OracleConfig

    config = session.FuzzSessionConfig(
        master_seed=args.seed,
        iterations=args.cases,
        profile="all",
        workers=1,
        oracle=OracleConfig(),
        reduce_failures=False,
    )
    recorder = _recorder(args.trace)
    timer = OpTimer(recorder)
    session.run_case = timer.around(
        session.run_case, lambda outcome: (outcome.seed, outcome.status)
    )
    out = _ready()
    if args.probe:
        return _finish(out, None, args.out)
    start = time.perf_counter()
    report = session.run_fuzz_session(config)
    _measured(out, time.perf_counter() - start, timer.probe)
    out.update(
        ops=config.iterations,
        latencies_s=timer.latencies,
        marks=timer.marks,
        verdicts=timer.results,
        report=report.to_dict(),
    )
    _finish(out, recorder, args.out)


def cmd_replay(args) -> None:
    """Replay a served stream in-process through ``Session.handle``."""
    from repro.serve.session import Session, SessionConfig

    with open(args.stream, "r", encoding="utf-8") as handle:
        requests = json.load(handle)
    # The server's workers run with ambient fault plans disabled.
    session = Session(SessionConfig(ambient_faults=False))
    recorder = _recorder(args.trace)
    probe = SpeedProbe()
    compute: List[float] = []
    digests: List[str] = []
    out: Dict[str, Any] = {}
    start = time.perf_counter()
    for index, request in enumerate(requests):
        if recorder is not None:
            recorder.op = index
        t0 = time.perf_counter()
        result = session.handle(request["op"], request["params"])
        compute.append(time.perf_counter() - t0)
        digests.append(result_digest(result))
        probe.between_ops()
    _measured(out, time.perf_counter() - start, probe)
    out.update(ops=len(requests), compute_s=compute, digests=digests)
    _finish(out, recorder, args.out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="slmsbench.worker")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sweep", "clear", "fuzz", "replay"):
        sub.add_parser(name).add_argument("--out", required=True)
    for name in ("sweep", "fuzz"):
        sub.choices[name].add_argument("--probe", action="store_true")
    for name in ("sweep", "fuzz", "replay"):
        sub.choices[name].add_argument("--trace", action="store_true")
    sub.choices["sweep"].add_argument("--cache-dir", required=True)
    sub.choices["sweep"].add_argument(
        "--prime", action="store_true",
        help="after the sweep, clear the tiers a retarget recomputes",
    )
    sub.choices["clear"].add_argument("--cache-dir", required=True)
    sub.choices["fuzz"].add_argument("--seed", type=int, required=True)
    sub.choices["fuzz"].add_argument("--cases", type=int, required=True)
    sub.choices["replay"].add_argument("--stream", required=True)
    args = parser.parse_args(argv)
    {
        "sweep": cmd_sweep,
        "clear": cmd_clear,
        "fuzz": cmd_fuzz,
        "replay": cmd_replay,
    }[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
