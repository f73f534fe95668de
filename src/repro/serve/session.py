"""The request→response API shared by the CLI and the server.

A :class:`Session` turns every user-facing operation — transform a
source file, advise on applicability, bench or trace one experiment,
run a sweep — into a plain ``params``-dict → JSON-payload call.  ``slms
transform``/``advise``/``bench``/``trace``/``sweep`` build the params a
client would send, pass them through :meth:`Session.validate` and run
the same methods the server dispatches to, so the one-shot CLI and the
long-running service cannot drift: they accept and refuse the same
requests with the same messages, and a request served over HTTP and
the equivalent CLI invocation execute identical code and produce
identical result payloads (the acceptance digest in docs/SERVING.md
pins this byte-for-byte).

:meth:`Session.validate` is cheap and side-effect free, and it
decides every caller fault — an unknown op, an unknown or missing
parameter, a value of the wrong JSON type (:data:`PARAM_TYPES`), bad
options, an unknown machine, compiler, workload or suite — so the
server rejects a malformed request at admission without burning a
worker.  The one exception is a source that does not parse: parsing is
real work, so its frontend diagnostic surfaces from the execution.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.defaults import DEFAULT_COMPILER, DEFAULT_MACHINE


class RequestError(ValueError):
    """A malformed request: the caller's fault, never retried."""


#: SLMSOptions fields a request may set (mirrors ``slms transform``'s
#: flag surface; everything else keeps its library default).
OPTION_KEYS = (
    "enable_filter",
    "force",
    "expansion",
    "reduction_lanes",
    "allow_reassociation",
    "scheduler",
    "sched_budget",
    "machine",
)

#: op → (required params, optional params).
OP_PARAMS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "compile": (("source",), OPTION_KEYS + ("style",)),
    "advise": (("source",), OPTION_KEYS),
    "trace": (("workload",), ("machine", "compiler", "verify")),
    "bench": (("workload",), ("machine", "compiler")),
    "sweep": ((), ("workloads", "suites", "pairs", "verify", "workers")),
    # Debug op (server-side, gated): deterministic busy-wait used by
    # the load harness and the chaos tests.
    "sleep": (("seconds",), ()),
}

OPS = tuple(sorted(OP_PARAMS))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_strs(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


_BOOL = ("true or false", lambda value: isinstance(value, bool))
_INT = ("an integer", _is_int)
_STR = ("a string", lambda value: isinstance(value, str))
_STRS = ("a list of strings", _is_strs)

#: param → (its JSON type in words, the check).  JSON's ``true`` is no
#: integer and ``"false"`` no boolean here.
PARAM_TYPES: Dict[str, Tuple[str, Callable[[Any], bool]]] = {
    "enable_filter": _BOOL,
    "force": _BOOL,
    "allow_reassociation": _BOOL,
    "verify": _BOOL,
    "reduction_lanes": _INT,
    "sched_budget": _INT,
    "workers": _INT,
    "source": _STR,
    "workload": _STR,
    "machine": _STR,
    "compiler": _STR,
    "style": _STR,
    "expansion": _STR,
    "scheduler": _STR,
    "workloads": _STRS,
    "suites": _STRS,
    "pairs": (
        "a list of [machine, compiler] pairs",
        lambda value: isinstance(value, list)
        and all(_is_strs(pair) and len(pair) == 2 for pair in value),
    ),
    # ``time.sleep`` raises OverflowError for 1e308 or Infinity; it takes
    # any value up to TIMEOUT_MAX.  NaN fails the comparisons.
    "seconds": (
        f"a number from 0 to {threading.TIMEOUT_MAX:.0f}",
        lambda value: (_is_int(value) or isinstance(value, float))
        and 0 <= value <= threading.TIMEOUT_MAX,
    ),
}


@dataclass(frozen=True)
class SessionConfig:
    """Execution context shared by every request of one session.

    Part of the request coalescing key: two requests are "identical"
    only when both their params *and* their session context match.
    """

    machine: str = DEFAULT_MACHINE
    compiler: str = DEFAULT_COMPILER
    use_cache: bool = True
    cache_dir: Optional[str] = None
    #: Engine processes per sweep (None = one per CPU).  The server
    #: default stays 1: its parallelism unit is the request, not the
    #: experiment.
    workers: Optional[int] = 1
    verify: bool = True
    #: Whether engine work may read the ambient ``SLMS_FAULTS`` plan.
    #: The CLI keeps it (chaos runs inject through the environment);
    #: the server disables it — the serving layer owns fault injection
    #: per request, and a plan leaking into every engine task inside a
    #: request would double-inject.
    ambient_faults: bool = True

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def sweep_digest(sweep) -> str:
    """Raw-bytes sha256 of ``SweepResult.to_json()``.

    The same digest ``slms sweep`` records in the ledger and
    ``BENCH_sweep.json`` pins — byte-comparable across the CLI, the
    server, and the frozen acceptance baseline.
    """
    return hashlib.sha256(sweep.to_json().encode("utf-8")).hexdigest()


def options_from_params(params: Dict[str, Any], **fixed: Any):
    """Build :class:`SLMSOptions` from a request's option keys (and the
    caller's ``fixed`` settings, such as ``verify=True``).

    Bad values (unknown scheduler, negative budget, …) surface as
    :class:`RequestError` so the server maps them to a 400, not a 500.
    """
    from repro.core.slms import SLMSOptions

    kwargs = {key: params[key] for key in OPTION_KEYS if key in params}
    try:
        return SLMSOptions(**kwargs, **fixed)
    except (TypeError, ValueError) as exc:
        raise RequestError(str(exc)) from None


def _style(params: Dict[str, Any]) -> str:
    """The output style a compile request asks for."""
    style = params.get("style", "c")
    if style not in ("c", "paper"):
        raise RequestError(f"unknown style {style!r}; use 'c' or 'paper'")
    return style


def _workload(name: str):
    """The named workload; an unknown name is a :class:`RequestError`."""
    from repro.workloads import get_workload

    try:
        return get_workload(name)
    except ValueError as exc:
        raise RequestError(str(exc)) from None


def sweep_workloads(params: Dict[str, Any]) -> list:
    """A sweep request's workloads: its ``workloads``, then every
    member of each of its ``suites``."""
    from repro.workloads import by_suite

    workloads = [_workload(name) for name in params.get("workloads") or []]
    try:
        for suite in params.get("suites") or []:
            workloads.extend(by_suite(suite))
    except ValueError as exc:
        raise RequestError(str(exc)) from None
    return workloads


def _check_pairs(pairs) -> None:
    """Each ``(machine, compiler)`` pair names existing presets."""
    from repro.backend.compiler import compiler_by_name
    from repro.machines.presets import machine_by_name

    try:
        for machine, compiler in pairs:
            machine_by_name(machine)
            compiler_by_name(compiler)
    except ValueError as exc:
        raise RequestError(str(exc)) from None


@dataclass
class Session:
    """Stateless request executor over the library pipeline.

    Every op method takes a plain params dict and returns a plain JSON
    payload; the ``*_result`` companions of ``bench``, ``trace`` and
    ``sweep`` return the library objects behind it, for the CLI's
    rendering and ledger records.
    """

    config: SessionConfig = field(default_factory=SessionConfig)

    # -- validation (cheap, side-effect free) --------------------------
    def validate(self, op: str, params: Dict[str, Any]) -> None:
        """Reject a malformed request without doing any real work.

        Decides every caller fault but a source that does not parse.
        """
        if op not in OP_PARAMS:
            raise RequestError(
                f"unknown op {op!r}; valid ops: {', '.join(OPS)}"
            )
        if not isinstance(params, dict):
            raise RequestError("params must be a JSON object")
        required, optional = OP_PARAMS[op]
        allowed = set(required) | set(optional)
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise RequestError(
                f"unknown parameter(s) for {op}: {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(allowed))}"
            )
        missing = sorted(set(required) - set(params))
        if missing:
            raise RequestError(
                f"missing required parameter(s) for {op}: "
                + ", ".join(missing)
            )
        for key, value in params.items():
            what, ok = PARAM_TYPES[key]
            if not ok(value):
                raise RequestError(f"'{key}' must be {what}")
        self._validate_values(op, params)

    def _validate_values(self, op: str, params: Dict[str, Any]) -> None:
        if op in ("compile", "advise"):
            options_from_params(params)
        if op == "compile":
            _style(params)
        if op in ("trace", "bench"):
            _workload(params["workload"])
            _check_pairs([(params.get("machine", self.config.machine),
                           params.get("compiler", self.config.compiler))])
        if op == "sweep":
            sweep_workloads(params)
            _check_pairs(params.get("pairs", []))
            if params.get("workers", 1) < 1:
                raise RequestError(
                    f"'workers' must be >= 1, got {params['workers']}"
                )

    # -- dispatch ------------------------------------------------------
    def handle(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Validate + execute one request; the server's single entry."""
        self.validate(op, params)
        return getattr(self, op)(params)

    # -- compile (slms transform) --------------------------------------
    def compile(self, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro import slms, to_source

        style = _style(params)
        outcome = slms(params["source"], options_from_params(params))
        return {
            "source": to_source(outcome.program, style=style),
            "applied": outcome.applied_count,
            "loops": [loop_report_dict(r) for r in outcome.loops],
        }

    # -- advise --------------------------------------------------------
    def advise(self, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.core.advisor import advise_program
        from repro.lang.parser import parse_program

        advices = advise_program(
            parse_program(params["source"]), options_from_params(params)
        )
        return {
            "schema": "slms-advise/1",
            "loops": [a.to_dict() for a in advices],
        }

    # -- bench (one untraced experiment) -------------------------------
    def bench_result(self, params: Dict[str, Any]):
        from repro.harness.experiment import run_experiment

        return run_experiment(
            _workload(params["workload"]),
            params.get("machine", self.config.machine),
            params.get("compiler", self.config.compiler),
            verify=self.config.verify,
        )

    def bench(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return result_dict(self.bench_result(params))

    # -- trace (one traced experiment) ---------------------------------
    def trace_result(self, params: Dict[str, Any]):
        """(result, trace dict, metrics dict) for one traced run.

        Bypasses the engine cache exactly like ``slms trace``: a trace
        of a cache lookup would show none of the pipeline decisions.
        """
        from repro.harness.experiment import run_experiment
        from repro.obs import MetricsRegistry, Tracer, metrics_scope, tracing

        wl = _workload(params["workload"])
        with tracing(Tracer()) as tracer, \
                metrics_scope(MetricsRegistry()) as reg:
            res = run_experiment(
                wl,
                params.get("machine", self.config.machine),
                params.get("compiler", self.config.compiler),
                verify=params.get("verify", self.config.verify),
            )
        return res, tracer.to_dict(), reg.to_dict()

    def trace(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return trace_payload(*self.trace_result(params))

    # -- sweep ---------------------------------------------------------
    def sweep_result(
        self,
        params: Dict[str, Any],
        task_timeout_s: Optional[float] = None,
        journal_path: Optional[str] = None,
        resume: bool = False,
    ):
        """One guarded sweep run.  The extra keyword arguments are the
        CLI-only knobs (checkpointing, per-task timeouts) that have no
        place in a coalesceable request payload."""
        from repro.harness.faults import FaultPlan
        from repro.harness.sweep import run_sweep

        return run_sweep(
            sweep_workloads(params) or None,
            pairs=params.get("pairs"),
            verify=params.get("verify", self.config.verify),
            workers=params.get("workers", self.config.workers),
            use_cache=self.config.use_cache,
            cache_dir=self.config.cache_dir,
            task_timeout_s=task_timeout_s,
            journal_path=journal_path,
            resume=resume,
            # Serving context: the request's own fault handling
            # belongs to the server; an ambient SLMS_FAULTS plan
            # must not be re-applied to every engine task inside
            # the request's worker.
            fault_plan=None if self.config.ambient_faults else FaultPlan(),
        )

    def sweep(self, params: Dict[str, Any]) -> Dict[str, Any]:
        sweep = self.sweep_result(params)
        payload: Dict[str, Any] = {
            "experiments": len(sweep.results),
            "failures": len(sweep.failures),
            "result_digest": sweep_digest(sweep),
            "results": json.loads(sweep.to_json()),
        }
        if sweep.stats is not None:
            payload["stats"] = sweep.stats.to_dict()
        return payload

    # -- sleep (debug; the server gates exposure) ----------------------
    def sleep(self, params: Dict[str, Any]) -> Dict[str, Any]:
        import time

        seconds = float(params["seconds"])
        time.sleep(seconds)
        return {"slept_s": seconds}


def trace_payload(res, trace: Dict, metrics: Dict) -> Dict[str, Any]:
    """The ``slms trace --json`` object — shared by CLI and server."""
    from repro.obs import result_payload

    return {
        "workload": res.workload,
        "machine": res.machine,
        "compiler": res.compiler,
        "slms_applied": res.slms_applied,
        "slms_reason": res.slms_reason,
        "ii": res.ii,
        "speedup": round(res.speedup, 6),
        # Symmetric timing shape: both keys always present (a cache hit
        # would report phase_times={"cache": …} with the original work
        # under cached_phase_times).
        **result_payload(res),
        "trace": trace,
        "metrics": metrics,
    }


def loop_report_dict(report) -> Dict[str, Any]:
    """JSON form of one per-loop SLMS report (what ``--report`` prints)."""
    out: Dict[str, Any] = {
        "applied": report.applied,
        "reason": report.reason,
    }
    if report.applied:
        out.update(
            ii=report.ii,
            stages=report.stages,
            expansion=report.expansion,
            scheduler=report.scheduler,
        )
        if report.scheduler != "heuristic":
            out.update(
                heuristic_ii=report.heuristic_ii,
                sched_proven=report.sched_proven,
            )
        if report.res_mii is not None:
            out["res_mii"] = report.res_mii
    return out


def result_dict(res) -> Dict[str, Any]:
    """Compact JSON form of one experiment result (bench payload)."""
    return {
        "workload": res.workload,
        "suite": res.suite,
        "machine": res.machine,
        "compiler": res.compiler,
        "base_cycles": res.base_cycles,
        "slms_cycles": res.slms_cycles,
        "speedup": round(res.speedup, 6),
        "base_energy_pj": round(res.base_energy, 1),
        "slms_energy_pj": round(res.slms_energy, 1),
        "slms_applied": res.slms_applied,
        "slms_reason": res.slms_reason,
        "ii": res.ii,
    }
