#!/usr/bin/env python3
"""Benchmark of the SLMS reproduction, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout (``src/repro`` must be there).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it starting with ``#`` carry the host record and run
details.  Every timed metric is reported at the speed probe's nominal
host speed (``slmsbench/host.py``); the raw times are in the details.
Workloads, metrics and the layer map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Tuple

from slmsbench import checks, streams
from slmsbench.host import (HostRecord, SpeedProbe, at_nominal,
                            per_op_at_nominal, probe_burst)
from slmsbench.metrics import end_to_end, min_samples_for
from slmsbench.spans import layer_metrics
from slmsbench.worker import result_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".perfbench_run"

WORKLOADS = ("sweep_cold", "sweep_retarget", "fuzz_all", "serve_mixed")
SETUP_REPEATS = 3
FUZZ_CASES_PER_SECOND = 40  # sizes the case stream: --seconds 15 -> 600
WARMUP_WORKLOAD = "kernel1"


def deadline_s(seconds: int) -> float:
    """Wall-clock allowance of one run: at --seconds 15 a run ends within
    three minutes; the seeded streams (and a traced run's second pass)
    grow with --seconds, so the allowance does too."""
    return max(170.0, 60.0 + 6.0 * seconds)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Run:
    """One invocation: private directories, child processes, deadline."""

    def __init__(self, seed: int, seconds: int, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + deadline_s(seconds)
        self.dir = RUN_ROOT / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.tmp = self.dir / "tmp"
        self.log = self.dir / "children.log"
        self.procs: List[subprocess.Popen] = []
        self._serial = 0

    def __enter__(self) -> "Run":
        for sub in ("cache", "ledger", "tmp"):
            (self.dir / sub).mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        for var in ("SLMS_FAULTS", "SLMS_SERVE_LOG", "SLMS_DEBUG",
                    "SLMS_LEDGER"):
            env.pop(var, None)
        env.update(
            PYTHONHASHSEED="0",
            PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
            SLMS_CACHE_DIR=str(self.dir / "cache"),
            SLMS_LEDGER_DIR=str(self.dir / "ledger"),
            TMPDIR=str(self.tmp),
        )
        return env

    def fresh_dir(self, label: str) -> str:
        self._serial += 1
        path = self.dir / f"{label}-{self._serial}"
        path.mkdir()
        return str(path)

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline exceeded")
        return left

    def spawn(self, argv: List[str],
              stdout=None) -> Tuple[float, subprocess.Popen]:
        """Start ``python argv``; (its spawn time, the process)."""
        with open(self.log, "ab") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env(),
                stdin=subprocess.DEVNULL, stdout=stdout or log, stderr=log,
            )
        self.procs.append(proc)
        return start, proc

    def child(self, *argv: str) -> Tuple[float, float, Dict[str, Any]]:
        """Run one worker command; (spawn time, exit time, its result)."""
        self._serial += 1
        out = self.dir / f"result-{self._serial}.json"
        start, proc = self.spawn(
            ["-m", "slmsbench.worker", *argv, "--out", str(out)]
        )
        try:
            code = proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {argv[0]} ran past the deadline")
        end = time.monotonic()
        if code != 0:
            raise BenchError(
                f"worker {' '.join(argv)} exited {code}:\n" + self.log_tail()
            )
        with open(out, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        out.unlink()
        return start, end, result

    def log_tail(self, lines: int = 30) -> str:
        try:
            text = self.log.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


# -- shared pieces ---------------------------------------------------------


def setup_time(start: float, res: Dict,
               before: List[float]) -> Tuple[float, float]:
    """A worker's set-up, bracketed by the probes this process ran just
    before spawning it and those the worker ran once set up: (at nominal
    speed, raw seconds)."""
    raw = res["ready"] - start
    return at_nominal(raw, before + res["setup_probes"]), raw


def probe_setups(run: Run, *argv: str) -> List[Tuple[float, float]]:
    """Set-up times of ``SETUP_REPEATS - 1`` probe processes; none in a
    traced run, which reports no set-up."""
    setups = []
    for _ in range(0 if run.trace else SETUP_REPEATS - 1):
        before = probe_burst()
        start, _end, res = run.child(*argv, "--probe")
        setups.append(setup_time(start, res, before))
    return setups


def measured_child(run: Run, host, *argv: str
                   ) -> Tuple[Tuple[float, float], Dict]:
    """The measured process: (its set-up times, its result)."""
    host.before()
    before = probe_burst()
    start, _end, res = run.child(*argv)
    host.after()
    return setup_time(start, res, before), res


def measured_phase(res: Dict) -> Dict[str, Any]:
    """The timed parts of a worker result, at nominal speed."""
    return {
        "ops": res["ops"],
        "measured_s": at_nominal(res["measured_s"], res["probes"]),
        "latencies_s": per_op_at_nominal(res["latencies_s"], res["marks"],
                                         res["probes"]),
        "peak_rss_kb": res["peak_rss_kb"],
    }


def speed_detail(setups: List[Tuple[float, float]],
                 res: Dict) -> Dict[str, Any]:
    """Raw times and probe statistics, for the details line."""
    return {
        "setups_s": [s for s, _raw in setups],
        "raw_setups_s": [raw for _s, raw in setups],
        "raw_measured_s": res["measured_s"],
        "probes": len(res["probes"]),
        "probe_mean_s": statistics.fmean(res["probes"]),
        "probe_median_s": statistics.median(res["probes"]),
    }


def median_setup(setups: List[Tuple[float, float]]) -> float:
    return statistics.median(s for s, _raw in setups)


def layer_values(traced: Dict) -> Dict[str, float]:
    """Per-layer values of a traced worker; seconds at nominal speed."""
    scale = at_nominal(1.0, traced["probes"])
    values = layer_metrics(traced["trace"])
    for name in values:
        if name.endswith("_s"):
            values[name] *= scale
    values["trace.unattributed_s"] = scale * (
        traced["measured_s"] - traced["top_level_s"]
    )
    return values


def trace_extras(traced: Dict, untraced: Dict,
                 counts_match: bool) -> Dict[str, float]:
    return {
        "trace.overhead_ratio": (
            at_nominal(traced["measured_s"], traced["probes"])
            / at_nominal(untraced["measured_s"], untraced["probes"])
        ),
        "trace.counts_match": 1.0 if counts_match else 0.0,
    }


# -- sweeps ----------------------------------------------------------------


def _sweep_counts(res: Dict) -> Dict[str, Any]:
    stats = res["stats"]
    return {
        "experiments": stats["experiments"],
        "cache_hits": stats["cache_hits"],
        "cache_misses": stats["cache_misses"],
        "failures": stats["failures"],
        "phase_cache": {
            tier: (rec["hits"], rec["misses"])
            for tier, rec in stats["phase_cache"].items()
        },
    }


def run_sweep(run: Run, host, retarget: bool) -> Dict[str, Any]:
    expected = checks.load_expected_sweep()
    setups = probe_setups(run, "sweep", "--cache-dir", run.fresh_dir("probe"))
    priming_s = raw_priming_s = 0.0
    cache = run.fresh_dir("cache")
    if retarget:
        start, end, prime = run.child("sweep", "--cache-dir", cache,
                                      "--prime")
        raw_priming_s = end - start
        priming_s = at_nominal(raw_priming_s,
                               prime["setup_probes"] + prime["probes"])
    setup, res = measured_child(run, host, "sweep", "--cache-dir", cache)
    setups.append(setup)
    ok, problems = checks.check_sweep(res["sweep_json"], expected)
    outcome = {
        **measured_phase(res),
        "setup_s": priming_s + median_setup(setups),
        "ok_ops": ok,
        "problems": problems,
        "detail": {
            **speed_detail(setups, res),
            "priming_s": priming_s,
            "raw_priming_s": raw_priming_s,
            "counts": _sweep_counts(res),
        },
    }
    if run.trace:
        if retarget:
            run.child("clear", "--cache-dir", cache)
        else:
            cache = run.fresh_dir("cache")
        _s, _e, traced = run.child("sweep", "--cache-dir", cache, "--trace")
        _ok, traced_problems = checks.check_sweep(traced["sweep_json"],
                                                  expected)
        problems.extend(traced_problems)
        match = (_sweep_counts(traced) == _sweep_counts(res)
                 and traced["sweep_json"] == res["sweep_json"])
        layers = layer_values(traced)
        layers["harness.failures"] = traced["failures"]
        layers.update(trace_extras(traced, res, match))
        outcome["layers"] = layers
        outcome["detail"]["traced_counts"] = _sweep_counts(traced)
    return outcome


# -- fuzz ------------------------------------------------------------------


def run_fuzz(run: Run, host) -> Dict[str, Any]:
    cases = max(min_samples_for(95), FUZZ_CASES_PER_SECOND * run.seconds)
    argv = ("fuzz", "--seed", str(run.seed), "--cases", str(cases))
    setups = probe_setups(run, *argv)
    setup, res = measured_child(run, host, *argv)
    setups.append(setup)
    verdicts = [tuple(v) for v in res["verdicts"]]
    ok, problems = checks.check_fuzz(cases, verdicts, res["report"])
    counts = {"verdicts": verdicts,
              "status_counts": res["report"]["status_counts"]}
    outcome = {
        **measured_phase(res),
        "setup_s": median_setup(setups),
        "ok_ops": ok,
        "problems": problems,
        "detail": {
            **speed_detail(setups, res),
            "status_counts": res["report"]["status_counts"],
            "failure_counts": res["report"]["failure_counts"],
            "failures": [
                {k: f[k] for k in ("seed", "profile", "failure_class",
                                   "detail")}
                for f in res["report"]["failures"]
            ],
        },
    }
    if run.trace:
        _s, _e, traced = run.child(*argv, "--trace")
        traced_counts = {
            "verdicts": [tuple(v) for v in traced["verdicts"]],
            "status_counts": traced["report"]["status_counts"],
        }
        layers = layer_values(traced)
        layers.update(trace_extras(traced, res, traced_counts == counts))
        outcome["layers"] = layers
    return outcome


# -- serve -----------------------------------------------------------------


def _read_line(proc: subprocess.Popen, run: Run) -> str:
    """One stdout line of ``proc`` within the run's deadline."""
    buf = b""
    fd = proc.stdout.fileno()
    while not buf.endswith(b"\n"):
        ready, _, _ = select.select([fd], [], [], run.remaining())
        if not ready:
            raise BenchError("server did not announce its address")
        chunk = os.read(fd, 1)
        if not chunk:
            raise BenchError("server exited during start-up:\n"
                             + run.log_tail())
        buf += chunk
    return buf.decode("utf-8", errors="replace")


class Server:
    """``slms serve --port 0`` in its own process, default config."""

    def __init__(self, run: Run, sources: Dict[str, str]):
        from repro.serve.client import ServeClient

        self.run = run
        before = probe_burst()
        start, self.proc = run.spawn(
            ["-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
        )
        line = _read_line(self.proc, run)
        if "serving on " not in line:
            raise BenchError(f"unexpected server banner: {line!r}")
        url = line.split("serving on ", 1)[1].split()[0]
        self.client = ServeClient(url, timeout=run.remaining())
        if not self.client.healthz().get("ok"):
            raise BenchError("server is not healthy")
        for op, params in (
            ("compile", {"source": sources[WARMUP_WORKLOAD]}),
            ("bench", {"workload": WARMUP_WORKLOAD}),
        ):
            status, envelope = self.client.post(op, params)
            if status != 200:
                raise BenchError(f"warm-up {op} failed: {envelope}")
        self.raw_setup_s = time.monotonic() - start
        # Bracketed by probes in this process, the server idle after it.
        self.setup_s = at_nominal(self.raw_setup_s, before + probe_burst())

    def peak_rss_kb(self) -> int:
        with open(f"/proc/{self.proc.pid}/status", "r",
                  encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=min(30.0, self.run.remaining()))
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _drive(server: Server, streams, sources
           ) -> Tuple[float, List[SpeedProbe], List[List[Dict]]]:
    """Closed loop, one thread per connection, each probing the host's
    speed between its requests; (wall seconds less the connections'
    mean probe time, each connection's probe, its responses)."""
    responses: List[List[Dict]] = [[] for _ in streams]
    probes = [SpeedProbe() for _ in streams]
    barrier = threading.Barrier(len(streams) + 1)

    def connection(index: int) -> None:
        out = responses[index]
        barrier.wait()
        for request in streams[index]:
            params = dict(request["params"])
            if request["op"] != "bench":
                params["source"] = sources[request["workload"]]
            mark = len(probes[index].samples)
            start = time.perf_counter()
            try:
                status, envelope = server.client.post(request["op"], params)
            except OSError as exc:
                status, envelope = 0, {"ok": False, "error": str(exc)}
            out.append({**request, "params": params,
                        "latency_s": time.perf_counter() - start,
                        "mark": mark, "status": status, "envelope": envelope})
            probes[index].between_ops()

    threads = [threading.Thread(target=connection, args=(i,))
               for i in range(len(streams))]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=server.run.remaining())
    wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        raise BenchError("load connections did not finish")
    wall -= statistics.fmean(probe.spent_s for probe in probes)
    return wall, probes, responses


def _serve_reference():
    """Tree-walking interpreter and SLMS driver, for the output checks."""
    from repro.core.pipeline import slms
    from repro.lang.parser import parse_program
    from repro.sim.interp import run_program, state_equal

    def reference_state(source: str):
        return run_program(parse_program(source))

    def states_agree(ref, out) -> bool:
        return state_equal(ref, out, ignore=set(out) - set(ref))

    def driver_loops(source: str):
        return [(r.applied, r.reason)
                for r in slms(parse_program(source)).loops]

    return reference_state, states_agree, driver_loops


def run_serve(run: Run, host) -> Dict[str, Any]:
    from repro.workloads import get_workload

    expected = checks.load_expected_sweep()
    names = list(dict.fromkeys(r["workload"] for r in expected))
    pairs = list(dict.fromkeys((r["machine"], r["compiler"])
                               for r in expected))
    sources = {name: get_workload(name).full_source() for name in names}
    total = max(min_samples_for(95), streams.REQUESTS_PER_SECOND * run.seconds)
    conn_streams = streams.build_stream(run.seed, names, pairs, total)
    setups = []
    for _ in range(0 if run.trace else SETUP_REPEATS - 1):
        spare = Server(run, sources)
        setups.append((spare.setup_s, spare.raw_setup_s))
        spare.stop()
    server = Server(run, sources)
    try:
        setups.append((server.setup_s, server.raw_setup_s))
        before = server.client.statsz()["requests"]
        host.before()
        wall, conn_probes, by_conn = _drive(server, conn_streams, sources)
        host.after()
        after = server.client.statsz()["requests"]
        rss = server.peak_rss_kb()
    finally:
        server.stop()
    delta = {k: after[k] - before.get(k, 0) for k in after}
    responses = [r for conn in by_conn for r in conn]
    probes = [t for probe in conn_probes for t in probe.samples]
    latencies: List[float] = []
    for conn, probe in zip(by_conn, conn_probes):
        latencies += per_op_at_nominal([r["latency_s"] for r in conn],
                                       [r["mark"] for r in conn],
                                       probe.samples)
    ok, problems = checks.check_serve(
        responses, sources, expected, *_serve_reference()
    )
    if delta["coalesced"]:
        problems.append(f"{delta['coalesced']} requests were coalesced")
    outcome = {
        "ops": len(responses),
        "measured_s": at_nominal(wall, probes),
        "latencies_s": latencies,
        "peak_rss_kb": rss,
        "setup_s": median_setup(setups),
        "ok_ops": ok,
        "problems": problems,
        "detail": {
            **speed_detail(setups, {"measured_s": wall, "probes": probes}),
            "server_counters": delta,
            "statuses": sorted({r["status"] for r in responses}),
        },
    }
    if run.trace:
        replay = run.dir / "stream.json"
        replay.write_text(json.dumps(
            [{"op": r["op"], "params": r["params"]} for r in responses]
        ), encoding="utf-8")
        _s, _e, plain = run.child("replay", "--stream", str(replay))
        _s, _e, traced = run.child("replay", "--stream", str(replay),
                                   "--trace")
        digests = [result_digest(r["envelope"].get("result"))
                   for r in responses]
        match = (digests == plain["digests"] == traced["digests"]
                 and delta["executions"] == len(responses))
        served_ms = 1e3 * at_nominal(1.0, probes)
        client_ms = served_ms * statistics.fmean(
            r["latency_s"] for r in responses
        )
        server_ms = served_ms * statistics.fmean(
            r["envelope"].get("elapsed_s", 0.0) for r in responses
        )
        compute_ms = 1e3 * at_nominal(statistics.fmean(plain["compute_s"]),
                                      plain["probes"])
        layers = layer_values(traced)
        layers.update({
            "serve.client_ms": client_ms,
            "serve.server_ms": server_ms,
            "serve.http_ms": client_ms - server_ms,
            "serve.compute_ms": compute_ms,
            "serve.dispatch_ms": server_ms - compute_ms,
            "serve.executions": delta["executions"],
            "serve.retries": delta["retries"],
            "serve.failed": delta["failed"],
            "serve.shed": delta["shed"],
        })
        layers.update(trace_extras(traced, plain, match))
        outcome["layers"] = layers
    return outcome


# -- output ----------------------------------------------------------------


def per_layer_spec() -> List[Dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)["per_layer"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable,
                  [sys.executable, str(HERE / "run.py"), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path[:0] = [str(SRC), str(HERE)]
    for tree in (SRC, HERE):
        if not compileall.compile_dir(str(tree), quiet=1):
            print(f"error: byte-compiling {tree} failed", file=sys.stderr)
            return 2
    # Earlier file writes (the checkout, bytecode, a previous run's
    # cache) are flushed now rather than during a measured phase.
    os.sync()

    host = HostRecord()
    try:
        with Run(args.seed, args.seconds, bool(args.trace)) as run:
            if args.workload == "fuzz_all":
                outcome = run_fuzz(run, host)
            elif args.workload == "serve_mixed":
                outcome = run_serve(run, host)
            else:
                outcome = run_sweep(
                    run, host, retarget=args.workload == "sweep_retarget"
                )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = outcome["problems"]
    if args.trace and not outcome["layers"]["trace.counts_match"]:
        problems.append("counts differ between the traced and untraced "
                        "runs: program nondeterminism")
    correct = not problems
    if args.trace:
        layers = outcome["layers"]
        metrics = {
            spec["name"]: {"value": float(layers.get(spec["name"], 0.0)),
                           "unit": spec["unit"]}
            for spec in per_layer_spec()
        }
    else:
        metrics = end_to_end(
            setup_s=outcome["setup_s"],
            ops=outcome["ops"],
            ok_ops=outcome["ok_ops"],
            measured_s=outcome["measured_s"],
            latencies_s=outcome["latencies_s"],
            peak_rss_kb=outcome["peak_rss_kb"],
            output_ok=correct,
        )
    detail = dict(outcome["detail"], workload=args.workload, seed=args.seed,
                  measured_s=outcome["measured_s"], problems=problems,
                  latency_samples=len(outcome["latencies_s"]))
    print("# host " + json.dumps(host.record, sort_keys=True))
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["ops"],
        "failed": outcome["ops"] - outcome["ok_ops"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
