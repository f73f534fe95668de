"""Differential scheduler comparison (docs/SCHEDULERS.md, ``slms sched
compare``).

Runs every requested workload through the SLMS driver twice — once with
the paper's heuristic backend, once with the exact branch-and-bound —
and tabulates, per loop: both verdicts, both IIs, the recMII/resMII
estimates, whether the exact result is proven optimal, and the **gap**
(heuristic II − exact II, only defined when both apply).

The refine architecture guarantees ``gap ≥ 0`` and identical
apply/decline verdicts; a negative gap or a verdict mismatch in this
report is therefore a scheduler bug, and the CLI exits non-zero on it.
Wall-clock solve times are reported here (and only here — they never
enter trace events, which must stay byte-deterministic).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import slms
from repro.core.slms import SLMSOptions, SLMSResult
from repro.defaults import DEFAULT_MACHINE, DEFAULT_SCHED_BUDGET
from repro.workloads.base import Workload
from repro.workloads.corpus import all_workloads, get_workload

SCHEMA = "slms-sched/1"


@dataclass(frozen=True)
class LoopComparison:
    """Heuristic vs exact outcome for one innermost loop.

    ``rec_mii`` is the paper's §5 PMII (difMin over the §3.5
    *positional* delays of the final MI order) and ``res_mii`` the
    parametric-machine resource estimate; both are informational — the
    positional delay model and the machine FU mix bound quantities the
    row placement does not have to respect, so either may exceed the
    achieved row II (docs/SCHEDULERS.md discusses both gaps).
    """

    workload: str
    suite: str
    loop: int
    heuristic_applied: bool
    heuristic_ii: Optional[int]
    heuristic_reason: str
    exact_applied: bool
    exact_ii: Optional[int]
    proven: Optional[bool]
    exhausted: bool
    nodes: int
    reordered: bool
    rec_mii: Optional[int]
    res_mii: Optional[int]

    @property
    def gap(self) -> Optional[int]:
        """heuristic II − exact II; ``None`` unless both applied."""
        if self.heuristic_ii is None or self.exact_ii is None:
            return None
        return self.heuristic_ii - self.exact_ii

    @property
    def mismatched(self) -> bool:
        return self.heuristic_applied != self.exact_applied

    def to_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "suite": self.suite,
            "loop": self.loop,
            "heuristic": {
                "applied": self.heuristic_applied,
                "ii": self.heuristic_ii,
                "reason": self.heuristic_reason,
            },
            "exact": {
                "applied": self.exact_applied,
                "ii": self.exact_ii,
                "proven": self.proven,
                "exhausted": self.exhausted,
                "nodes": self.nodes,
                "reordered": self.reordered,
            },
            "rec_mii": self.rec_mii,
            "res_mii": self.res_mii,
            "gap": self.gap,
        }


@dataclass
class CompareReport:
    """Whole-corpus scheduler comparison, serialised as ``slms-sched/1``."""

    machine: str
    budget: int
    rows: List[LoopComparison] = field(default_factory=list)
    # Per-workload exact-backend wall seconds (report-only; never in
    # trace events).
    solve_s: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> Dict:
        applied = [r for r in self.rows if r.gap is not None]
        return {
            "workloads": len(self.solve_s),
            "loops": len(self.rows),
            "scheduled": len(applied),
            "improvements": sum(1 for r in applied if r.gap > 0),
            "negative_gaps": sum(1 for r in applied if r.gap < 0),
            "verdict_mismatches": sum(1 for r in self.rows if r.mismatched),
            "proven": sum(1 for r in applied if r.proven),
            "budget_exhausted": sum(1 for r in applied if r.exhausted),
            "wins": [
                {
                    "workload": r.workload,
                    "loop": r.loop,
                    "heuristic_ii": r.heuristic_ii,
                    "exact_ii": r.exact_ii,
                }
                for r in applied
                if r.gap > 0
            ],
        }

    @property
    def clean(self) -> bool:
        """True when exact never lost to the heuristic and every loop
        got the same apply/decline verdict from both backends."""
        s = self.summary()
        return s["negative_gaps"] == 0 and s["verdict_mismatches"] == 0

    def to_dict(self) -> Dict:
        return {
            "schema": SCHEMA,
            "machine": self.machine,
            "budget": self.budget,
            "summary": self.summary(),
            "loops": [r.to_dict() for r in self.rows],
            "solve_s": {
                name: round(wall, 6)
                for name, wall in sorted(self.solve_s.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"


def _options(scheduler: str, machine: str, budget: int) -> SLMSOptions:
    return SLMSOptions(scheduler=scheduler, machine=machine,
                       sched_budget=budget)


def compare_workload(
    workload: Workload, machine: str, budget: int
) -> Tuple[List[LoopComparison], float]:
    """Compare both backends on one workload.

    Returns the per-loop rows and the exact backend's wall seconds.
    """
    source = workload.full_source()
    heur = slms(source, _options("heuristic", machine, budget))
    t0 = time.perf_counter()
    extr = slms(source, _options("exact", machine, budget))
    wall = time.perf_counter() - t0
    if len(heur.loops) != len(extr.loops):  # pragma: no cover - invariant
        raise RuntimeError(
            f"{workload.name}: backends attempted different loop counts "
            f"({len(heur.loops)} vs {len(extr.loops)})"
        )
    rows: List[LoopComparison] = []
    for idx, (h, e) in enumerate(zip(heur.loops, extr.loops)):
        rows.append(_row(workload, idx, h, e))
    return rows, wall


def _row(
    workload: Workload, idx: int, h: SLMSResult, e: SLMSResult
) -> LoopComparison:
    return LoopComparison(
        workload=workload.name,
        suite=workload.suite,
        loop=idx,
        heuristic_applied=h.applied,
        heuristic_ii=h.ii if h.applied else None,
        heuristic_reason="" if h.applied else h.reason,
        exact_applied=e.applied,
        exact_ii=e.ii if e.applied else None,
        proven=e.sched_proven if e.applied else None,
        exhausted=bool(e.applied and e.sched_proven is False),
        nodes=e.sched_nodes,
        reordered=bool(
            e.applied
            and e.sched_order
            and list(e.sched_order) != sorted(e.sched_order)
        ),
        rec_mii=e.pmii if e.applied else None,
        res_mii=e.res_mii if e.applied else None,
    )


def compare_schedulers(
    workloads: Optional[Sequence[str]] = None,
    machine: str = DEFAULT_MACHINE,
    budget: int = DEFAULT_SCHED_BUDGET,
) -> CompareReport:
    """Run the heuristic-vs-exact comparison over the corpus.

    ``workloads`` — names to compare (default: all 47).
    """
    if workloads:
        targets = [get_workload(name) for name in workloads]
    else:
        targets = all_workloads()
    report = CompareReport(machine=machine, budget=budget)
    for workload in targets:
        rows, wall = compare_workload(workload, machine, budget)
        report.rows.extend(rows)
        report.solve_s[workload.name] = wall
    return report


def render_compare(report: CompareReport) -> str:
    """Terminal table for ``slms sched compare``."""
    lines: List[str] = []
    header = (
        f"{'workload':<12} {'loop':>4} {'heur':>5} {'exact':>5} "
        f"{'gap':>4} {'recMII':>6} {'resMII':>6}  status"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.rows:
        if r.gap is None and not r.heuristic_applied and not r.exact_applied:
            continue  # both declined: summarised below
        status = []
        if r.mismatched:
            status.append("VERDICT-MISMATCH")
        if r.gap is not None and r.gap < 0:
            status.append("NEGATIVE-GAP")
        if r.gap is not None and r.gap > 0:
            status.append("improved")
        if r.exact_applied:
            status.append(
                "proven" if r.proven
                else "budget-exhausted" if r.exhausted
                else "unproven"
            )
        lines.append(
            f"{r.workload:<12} {r.loop:>4} "
            f"{r.heuristic_ii if r.heuristic_ii is not None else '-':>5} "
            f"{r.exact_ii if r.exact_ii is not None else '-':>5} "
            f"{r.gap if r.gap is not None else '-':>4} "
            f"{r.rec_mii if r.rec_mii is not None else '-':>6} "
            f"{r.res_mii if r.res_mii is not None else '-':>6}  "
            + " ".join(status)
        )
    s = report.summary()
    lines.append("")
    lines.append(
        f"{s['loops']} loop(s) in {s['workloads']} workload(s); "
        f"{s['scheduled']} scheduled by both, "
        f"{s['improvements']} improved, {s['proven']} proven optimal, "
        f"{s['budget_exhausted']} budget-exhausted, "
        f"{s['negative_gaps']} negative gap(s), "
        f"{s['verdict_mismatches']} verdict mismatch(es)"
    )
    total = sum(report.solve_s.values())
    lines.append(f"exact solve wall: {total:.3f} s "
                 f"(machine {report.machine}, budget {report.budget})")
    return "\n".join(lines)
