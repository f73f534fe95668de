"""SLMS applicability advisor (``slms advise``).

For every loop the SLMS driver attempts, reports whether
:func:`repro.core.pipeline.slms` pipelines or declines it — with the
driver's exact reason string — and the facts that verdict rests on: II,
stage and MI counts, the recurrence MII (``pmii_difmin``, the paper's
§3.6 PMII under the §3.5 delays — an estimate, not a bound: the fixed
placement lets anti/output dependences share a row, so the achieved II
can be lower), the scheduling backend's report, the trip count and the
§4 memory-reference ratio, plus actionable suggestions keyed to the
decline.

The advice is a view of the driver's own per-loop reports, so it equals
what ``slms transform`` does under every option, §5 reduction lane
splitting included; producing it costs one ``slms()`` run, scheduling,
expansion and emission included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.loopinfo import LoopInfo
from repro.core.mii import pmii_difmin
from repro.core.pipeline import slms
from repro.core.slms import SLMSOptions, SLMSResult
from repro.lang.ast_nodes import Program
from repro.obs import get_metrics, get_tracer


@dataclass
class Advice:
    """The driver's outcome for one loop, as advice."""

    line: int
    verdict: str  # "apply" | "decline"
    reason: str = ""  # the driver's decline reason, verbatim
    # §3.6 PMII (pmii_difmin); ii may be lower, see render_advice.
    rec_mii: Optional[int] = None
    ii: Optional[int] = None
    stages: Optional[int] = None
    n_mis: Optional[int] = None
    # Scheduler-backend report (docs/SCHEDULERS.md).
    scheduler: str = "heuristic"
    res_mii: Optional[int] = None  # source-level resMII (machine FU mix)
    heuristic_ii: Optional[int] = None
    sched_proven: Optional[bool] = None
    decompositions: int = 0
    expansion: Optional[str] = None  # the strategy when applying
    unroll: int = 1
    trip_count: Optional[int] = None
    memory_ref_ratio: Optional[float] = None
    suggestions: List[str] = field(default_factory=list)

    @property
    def applies(self) -> bool:
        return self.verdict == "apply"

    def to_dict(self) -> Dict[str, object]:
        return {
            "line": self.line,
            "verdict": self.verdict,
            "reason": self.reason,
            "rec_mii": self.rec_mii,
            "ii": self.ii,
            "stages": self.stages,
            "n_mis": self.n_mis,
            "scheduler": self.scheduler,
            "res_mii": self.res_mii,
            "heuristic_ii": self.heuristic_ii,
            "sched_proven": self.sched_proven,
            "decompositions": self.decompositions,
            "expansion": self.expansion,
            "unroll": self.unroll,
            "trip_count": self.trip_count,
            "memory_ref_ratio": self.memory_ref_ratio,
            "suggestions": list(self.suggestions),
        }


# Decline reason (prefix) -> what the user can do about it.
_SUGGESTIONS = [
    (
        "loop is not in canonical counted form",
        "rewrite as `for (i = lo; i < hi; i = i + c)` with a "
        "loop-invariant bound and a constant step",
    ),
    (
        "nested loop in body",
        "pipeline the innermost loop instead, or fully unroll the "
        "inner loop first",
    ),
    (
        "break/continue in body",
        "hoist the early exit out of the loop; SLMS needs a fixed "
        "iteration space",
    ),
    (
        "empty loop body",
        "nothing to pipeline; fold the loop away or fill in the body",
    ),
    (
        "imprecise dependences",
        "remove opaque calls and non-affine subscripts so every "
        "dependence distance is computable",
    ),
    (
        "no valid II after maximum decompositions",
        "raise --max-decompositions, or break the recurrence by "
        "restructuring the dependent statements",
    ),
    (
        "no MI can be decomposed",
        "the recurrence admits no load/compute split (§5 failure "
        "case); restructure the loop body by hand",
    ),
    (
        "trip count",  # both ShortTripCount and the MVE variant
        "increase the trip count to at least the stage count, or "
        "lower the stage count by raising II",
    ),
    (
        "MVE requires literal bounds",
        "make the loop bounds integer literals, or use "
        "--expansion none for a guarded schedule",
    ),
    (
        "scalar expansion requires literal bounds",
        "make the loop bounds integer literals, or use "
        "--expansion none for a guarded schedule",
    ),
]


def _suggest_for(reason: str) -> List[str]:
    return [
        hint for prefix, hint in _SUGGESTIONS if reason.startswith(prefix)
    ]


def _advice(report: SLMSResult) -> Advice:
    """The advice view of one driver report."""
    loop = report.loop
    advice = Advice(
        line=loop.loc.line if loop.loc else 0,
        verdict="apply" if report.applied else "decline",
        reason=report.reason,
        rec_mii=report.pmii,
        ii=report.ii,
        stages=report.stages,
        n_mis=report.n_mis,
        scheduler=report.scheduler,
        res_mii=report.res_mii,
        heuristic_ii=report.heuristic_ii,
        sched_proven=report.sched_proven,
        decompositions=report.decompositions,
        expansion=report.expansion if report.applied else None,
        unroll=report.unroll,
        suggestions=_suggest_for(report.reason),
    )
    verdict = report.filter_verdict
    if verdict is None:  # declined on loop shape, before the §4 filter
        return advice
    advice.trip_count = LoopInfo.from_for(loop).trip_count
    advice.memory_ref_ratio = round(verdict.memory_ref_ratio, 6)
    if report.ii is None and report.ddg is not None and report.ddg.precise:
        # No valid II: the driver gave up before pricing the recurrence.
        advice.rec_mii = pmii_difmin(report.ddg)
    if not verdict.apply_slms and report.reason == verdict.reason:
        advice.suggestions.append(
            "pass --force (or disable the filter) to pipeline anyway"
        )
    if report.applied and advice.trip_count is None:
        advice.suggestions.append(
            "bounds are symbolic: the schedule will carry a runtime "
            "trip-count guard and expansion is unavailable"
        )
    return advice


def advise_program(
    program: Program,
    options: Optional[SLMSOptions] = None,
) -> List[Advice]:
    """One :class:`Advice` per loop :func:`repro.core.pipeline.slms`
    attempts, in the driver's own traversal order."""
    advices = [_advice(report) for report in slms(program, options).loops]
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "advise.program",
            loops=len(advices),
            apply=sum(1 for a in advices if a.applies),
        )
    get_metrics().counter("advise.loops").inc(len(advices))
    return advices


def render_advice(advice: Advice) -> str:
    """Human-readable multi-line report for one loop."""
    lines: List[str] = []
    where = f"line {advice.line}" if advice.line else "loop"
    if advice.applies:
        bits = [f"II={advice.ii}", f"stages={advice.stages}",
                f"{advice.n_mis} MIs", f"expansion={advice.expansion}"]
        if advice.unroll > 1:
            bits.append(f"unroll={advice.unroll}")
        if advice.decompositions:
            bits.append(f"decompositions={advice.decompositions}")
        lines.append(
            f"{where}: SLMS predicted to APPLY ({', '.join(bits)})"
        )
    else:
        lines.append(
            f"{where}: SLMS predicted to DECLINE — {advice.reason}"
        )
    if advice.rec_mii is not None:
        lines.append(
            f"  recMII: {advice.rec_mii} (§3.6 estimate from §3.5 "
            "delays; the fixed placement lets anti/output dependences "
            "share a row, so the achieved II can be lower)"
        )
    if advice.res_mii is not None:
        lines.append(
            f"  resMII floor: {advice.res_mii} "
            "(machine FU mix; informational — SLMS is resource-blind)"
        )
    if advice.scheduler != "heuristic" and advice.applies:
        status = (
            "proven optimal" if advice.sched_proven else "budget-limited"
        )
        lines.append(
            f"  scheduler: {advice.scheduler} "
            f"(paper placement II {advice.heuristic_ii} -> {advice.ii}, "
            f"{status})"
        )
    if advice.trip_count is not None:
        lines.append(f"  trip count: {advice.trip_count}")
    if advice.memory_ref_ratio is not None:
        lines.append(f"  memory-ref ratio (§4): {advice.memory_ref_ratio}")
    for hint in advice.suggestions:
        lines.append(f"  suggestion: {hint}")
    return "\n".join(lines)
