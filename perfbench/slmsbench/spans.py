"""Span recording around calls into the program's layers.

The traced run wraps public functions of each layer from the outside:
no program file changes and the program's own ``repro.obs`` tracer
stays off (``run_experiments`` bypasses the phase cache when that
tracer is on, which would make a traced ``sweep_retarget`` recompute
every tier).  Modules import these functions by name, so a wrapper is
installed at every module attribute that holds the original function,
not only in the defining module.

A span is ``[name, start, end, parent, op]``; spans stay in memory and
leave the process once, with the run's result.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class SpanRecorder:
    """In-memory spans plus counters fed from wrapped calls' results."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._thread = threading.get_ident()

    def wrap(
        self,
        name: str,
        fn: Callable,
        collect: Optional[Callable[["SpanRecorder", tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call on the recording thread."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != recorder._thread:
                return fn(*args, **kwargs)
            stack = recorder._stack
            span = [
                name,
                recorder.clock(),
                0.0,
                stack[-1] if stack else -1,
                recorder.op,
            ]
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = recorder.clock()
                stack.pop()
            if collect is not None:
                collect(recorder, args, result)
            return result

        return wrapper

    def export(self) -> Dict[str, Any]:
        """Compact JSON form: a name table plus index-coded spans."""
        names: Dict[str, int] = {}
        rows = []
        for name, start, end, parent, op in self.spans:
            code = names.setdefault(name, len(names))
            rows.append([code, start, end, parent, op])
        return {
            "names": list(names),
            "spans": rows,
            "counts": dict(self.counts),
        }


# -- counters fed from return values ---------------------------------------


def _count_loop(rec: SpanRecorder, args, result) -> None:
    rec.counts["core.loops_applied" if result.applied else
               "core.loops_declined"] += 1


def _count_ims(rec: SpanRecorder, args, reports) -> None:
    for report in reports:
        if report.attempted:
            rec.counts["backend.ims_loops"] += 1
            rec.counts["backend.ims_ok"] += int(bool(report.success))


def _count_spills(rec: SpanRecorder, args, alloc) -> None:
    rec.counts["backend.spill_blocks"] += len(alloc.touched_blocks)


def _count_cycles(rec: SpanRecorder, args, run) -> None:
    rec.counts["sim.cycles"] += int(run.metrics.cycles)


def _count_verdict(rec: SpanRecorder, args, outcome) -> None:
    status = outcome.status
    rec.counts["fuzz." + ("failed" if status in ("fail", "error")
                          else status)] += 1


def _count_full(rec: SpanRecorder, args, value) -> None:
    _count_tier(rec, "full", value)


def _count_phase(rec: SpanRecorder, args, value) -> None:
    # PhaseCache.get(self, tier, key)
    _count_tier(rec, args[1], value)


def _count_tier(rec: SpanRecorder, tier: str, value) -> None:
    outcome = "hit" if value is not None else "miss"
    rec.counts[f"harness.{outcome}.{tier}"] += 1


# (module, attribute, span name, collector).  An attribute "Cls.meth"
# wraps a method on the class.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.lang.parser", "parse_program", "lang.parse", None),
    ("repro.lang.parser", "parse_program_cached", "lang.parse_cached", None),
    ("repro.lang.printer", "to_source", "lang.print", None),
    ("repro.analysis.ddg", "build_ddg", "analysis.ddg", None),
    ("repro.core.pipeline", "slms", "core.slms", None),
    ("repro.core.slms", "slms_for_loop", "core.slms_loop", _count_loop),
    ("repro.core.advisor", "advise_program", "core.advise", None),
    ("repro.verify.schedule", "validate_result", "verify.validate", None),
    ("repro.verify.ir_check", "check_result", "verify.ir_check", None),
    ("repro.verify.ir_check", "check_module", "verify.ir_check", None),
    ("repro.backend.codegen", "compile_to_lir", "backend.codegen", None),
    ("repro.backend.listsched", "schedule_module", "backend.listsched",
     None),
    ("repro.backend.ims", "run_ims", "backend.ims", _count_ims),
    ("repro.backend.regalloc", "allocate", "backend.regalloc",
     _count_spills),
    ("repro.sim.executor", "execute", "sim.execute", _count_cycles),
    ("repro.sim.codegen_exec", "ExecCompiledInterpreter.__init__",
     "sim.block_compile", None),
    ("repro.sim.codegen_exec", "ExecCompiledInterpreter.run", "sim.run",
     None),
    ("repro.sim.interp_compile", "run_program_fast", "sim.oracle", None),
    ("repro.sim.interp", "run_program", "sim.ref_interp", None),
    ("repro.sim.interp", "run_program_batched", "sim.ref_interp", None),
    ("repro.harness.experiment", "run_experiment", "harness.experiment",
     None),
    ("repro.harness.expcache", "PhaseCache.get", "harness.cache_get",
     _count_phase),
    ("repro.harness.expcache", "PhaseCache.put", "harness.cache_put", None),
    ("repro.harness.expcache", "PhaseCache.drain", "harness.cache_drain",
     None),
    ("repro.harness.expcache", "ExperimentCache.get", "harness.cache_get",
     _count_full),
    ("repro.harness.expcache", "ExperimentCache.put", "harness.cache_put",
     None),
    ("repro.fuzz.generator", "generate_case", "fuzz.gen", None),
    ("repro.fuzz.oracle", "run_case", "fuzz.oracle", _count_verdict),
)


def install(
    recorder: SpanRecorder,
    targets: Sequence[Tuple[str, str, str, Optional[Callable]]] = TARGETS,
    package: str = "repro",
) -> int:
    """Wrap every target at each name it is reachable under, for the
    rest of the process; the number of names wrapped."""
    patched = 0
    by_id: Dict[int, Callable] = {}
    for module_name, attr, span_name, collect in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, recorder.wrap(span_name, original, collect))
            patched += 1
            continue
        original = getattr(module, attr)
        by_id[id(original)] = recorder.wrap(span_name, original, collect)
    prefix = package + "."
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(prefix)):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(module, attr, wrapper)
                patched += 1
    return patched


# -- analysis ----------------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span self time: duration minus the durations of its children."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def summarize(exported: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Span name -> {"calls", "self_s"}."""
    names, spans = exported["names"], exported["spans"]
    out: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(names[span[0]], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    return out


def children_named(exported: Dict[str, Any], child: str, parent: str) -> int:
    """Spans named ``child`` whose parent span is named ``parent``."""
    names, spans = exported["names"], exported["spans"]
    return sum(
        1 for span in spans
        if span[3] >= 0 and names[span[0]] == child
        and names[spans[span[3]][0]] == parent
    )


def top_level_seconds(spans: Sequence[Sequence]) -> float:
    """Wall time inside any span (sum of root spans' durations)."""
    return sum(span[2] - span[1] for span in spans if span[3] < 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


TIERS = ("full", "transform", "compile", "simulate", "verify")


def layer_metrics(exported: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer values a traced run contributes (see README)."""
    rows = summarize(exported)
    counts = exported["counts"]

    def calls(name: str) -> int:
        return int(rows.get(name, {}).get("calls", 0))

    def self_s(*names: str) -> float:
        return sum(rows.get(name, {}).get("self_s", 0.0) for name in names)

    applied = counts.get("core.loops_applied", 0)
    declined = counts.get("core.loops_declined", 0)
    cached_calls = calls("lang.parse_cached")
    cache_misses = children_named(exported, "lang.parse", "lang.parse_cached")
    values: Dict[str, float] = {
        "lang.parse_calls": calls("lang.parse"),
        "lang.parse_s": self_s("lang.parse", "lang.parse_cached"),
        "lang.parse_cache_hit_ratio": _ratio(
            cached_calls - cache_misses, cached_calls
        ),
        "lang.print_s": self_s("lang.print"),
        "analysis.ddg_calls": calls("analysis.ddg"),
        "analysis.ddg_s": self_s("analysis.ddg"),
        "core.slms_s": self_s("core.slms", "core.slms_loop"),
        "core.loops_applied": applied,
        "core.loops_declined": declined,
        "core.applied_ratio": _ratio(applied, applied + declined),
        "core.advise_s": self_s("core.advise"),
        "verify.validate_calls": calls("verify.validate"),
        "verify.validate_s": self_s("verify.validate"),
        "verify.ir_check_s": self_s("verify.ir_check"),
        "backend.compile_calls": calls("backend.codegen"),
        "backend.codegen_s": self_s("backend.codegen"),
        "backend.listsched_s": self_s("backend.listsched"),
        "backend.ims_s": self_s("backend.ims"),
        "backend.regalloc_s": self_s("backend.regalloc"),
        "backend.ims_loops": counts.get("backend.ims_loops", 0),
        "backend.ims_ok_ratio": _ratio(
            counts.get("backend.ims_ok", 0), counts.get("backend.ims_loops", 0)
        ),
        "backend.spill_blocks": counts.get("backend.spill_blocks", 0),
        "sim.execute_calls": calls("sim.execute"),
        "sim.block_compile_s": self_s("sim.block_compile"),
        "sim.run_s": self_s("sim.execute", "sim.run"),
        "sim.cycles": counts.get("sim.cycles", 0),
        "sim.oracle_s": self_s("sim.oracle"),
        "sim.ref_interp_s": self_s("sim.ref_interp"),
        "harness.experiments": calls("harness.experiment"),
        "harness.experiment_s": self_s("harness.experiment"),
        "harness.cache_get_s": self_s("harness.cache_get"),
        "harness.cache_put_s": self_s("harness.cache_put"),
        "harness.cache_drain_s": self_s("harness.cache_drain"),
        "fuzz.cases": calls("fuzz.oracle"),
        "fuzz.gen_s": self_s("fuzz.gen"),
        "fuzz.oracle_s": self_s("fuzz.oracle"),
        "fuzz.ok": counts.get("fuzz.ok", 0),
        "fuzz.declined": counts.get("fuzz.declined", 0),
        "fuzz.failed": counts.get("fuzz.failed", 0),
    }
    for tier in TIERS:
        hits = counts.get(f"harness.hit.{tier}", 0)
        values[f"harness.hit_ratio.{tier}"] = _ratio(
            hits, hits + counts.get(f"harness.miss.{tier}", 0)
        )
    return values
