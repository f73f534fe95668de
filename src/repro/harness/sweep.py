"""Cross-product sweeps: workloads × machines × compilers.

Beyond the paper's fixed figures, downstream users typically want a
matrix view — "how does SLMS behave across every machine/compiler pair
for my loop?"  :func:`run_sweep` produces that matrix, with CSV/JSON
export for external analysis.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.slms import SLMSOptions
from repro.harness.engine import EngineStats, ExperimentSpec, run_experiments
from repro.harness.experiment import ExperimentResult
from repro.harness.faults import FailedResult, FaultPlan, is_failed
from repro.machines.presets import machine_by_name
from repro.backend.compiler import compiler_by_name
from repro.workloads import all_workloads, get_workload
from repro.workloads.base import Workload

# Machine/compiler pairings that make sense together (the paper's).
DEFAULT_PAIRS = [
    ("itanium2", "gcc_O3"),
    ("itanium2", "icc_O3"),
    ("pentium", "gcc_O3"),
    ("power4", "xlc_O3"),
    ("arm7tdmi", "arm_gcc"),
]


@dataclass
class SweepResult:
    """The sweep matrix: (workload, machine, compiler) → result.

    ``results`` holds only the experiments that completed; a cell whose
    task failed (worker crash, hang, exception) lands in ``failures``
    as a structured :class:`~repro.harness.faults.FailedResult` instead
    of aborting the sweep.  Exports append the failure records after
    the result rows, so a clean sweep's CSV/JSON is byte-identical to
    what it was before the fault layer existed.
    """

    results: List[ExperimentResult] = field(default_factory=list)
    failures: List[FailedResult] = field(default_factory=list)
    # Engine bookkeeping for the run that produced the matrix (wall
    # clock, cache hits, per-phase totals); not part of the exports.
    stats: Optional[EngineStats] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def speedup_matrix(self) -> Dict[str, Dict[str, float]]:
        """workload → "machine/compiler" → speedup."""
        matrix: Dict[str, Dict[str, float]] = {}
        for res in self.results:
            key = f"{res.machine}/{res.compiler}"
            matrix.setdefault(res.workload, {})[key] = res.speedup
        return matrix

    def to_csv(self) -> str:
        """Flat CSV with one row per (workload, machine, compiler)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            [
                "workload", "suite", "machine", "compiler",
                "base_cycles", "slms_cycles", "speedup",
                "base_energy_pj", "slms_energy_pj",
                "slms_applied", "ii", "ims_base", "ims_slms", "reason",
            ]
        )
        for res in self.results:
            writer.writerow(
                [
                    res.workload, res.suite, res.machine, res.compiler,
                    res.base_cycles, res.slms_cycles,
                    f"{res.speedup:.6f}",
                    f"{res.base_energy:.1f}", f"{res.slms_energy:.1f}",
                    int(res.slms_applied), res.ii if res.ii else "",
                    int(res.ims_base), int(res.ims_slms), res.slms_reason,
                ]
            )
        for fr in self.failures:
            writer.writerow(
                [
                    fr.spec.get("workload", fr.task),
                    fr.spec.get("suite", ""),
                    fr.spec.get("machine", ""),
                    fr.spec.get("compiler", ""),
                    "", "", "", "", "", "", "", "", "",
                    f"FAILED[{fr.kind}/{fr.phase}]: {fr.message}",
                ]
            )
        return buffer.getvalue()

    def to_json(self) -> str:
        """JSON list of result records (no metrics objects)."""
        records = []
        for res in self.results:
            records.append(
                {
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
                    "ii": res.ii,
                    "ims_base": res.ims_base,
                    "ims_slms": res.ims_slms,
                    "reason": res.slms_reason,
                }
            )
        # Appended only when present: a clean sweep's JSON (the digest
        # the benchmark baseline pins) is unchanged by the fault layer.
        for fr in self.failures:
            records.append(
                {
                    "status": "failed",
                    "workload": fr.spec.get("workload", fr.task),
                    "suite": fr.spec.get("suite", ""),
                    "machine": fr.spec.get("machine", ""),
                    "compiler": fr.spec.get("compiler", ""),
                    "kind": fr.kind,
                    "phase": fr.phase,
                    "message": fr.message,
                    "attempts": fr.attempts,
                    "quarantined": fr.quarantined,
                    "traceback_digest": fr.traceback_digest,
                }
            )
        return json.dumps(records, indent=2)

    def best_pair_per_workload(self) -> Dict[str, str]:
        """Where does SLMS pay off most for each workload?"""
        best: Dict[str, str] = {}
        matrix = self.speedup_matrix()
        for workload, row in matrix.items():
            best[workload] = max(row, key=row.get)  # type: ignore[arg-type]
        return best


def run_sweep(
    workloads: Optional[Sequence[Workload | str]] = None,
    pairs: Optional[Sequence[tuple]] = None,
    options: Optional[SLMSOptions] = None,
    verify: bool = True,
    workers: Optional[int] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    task_timeout_s: Optional[float] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> SweepResult:
    """Run every workload on every (machine, compiler) pair.

    ``workloads`` defaults to the whole corpus
    (:func:`~repro.workloads.all_workloads`); names are resolved through
    :func:`~repro.workloads.get_workload`, which rejects unknown names
    with the list of valid ones.  Experiments fan out over the
    evaluation engine (:mod:`repro.harness.engine`): ``workers`` picks
    the process count (default: one per CPU; 1 = serial),
    ``use_cache``/``cache_dir`` control result memoization,
    ``task_timeout_s`` bounds each experiment's wall clock (None =
    unlimited), ``journal_path``/``resume`` checkpoint completed cells
    so a killed sweep resumes byte-identical (see
    :class:`~repro.harness.faults.RunJournal`), and ``fault_plan=None``
    reads ``SLMS_FAULTS``.  The matrix is returned in deterministic
    (workload-major) order regardless of worker count; failed cells are
    partitioned into ``SweepResult.failures``.
    """
    if workloads is None:
        workloads = all_workloads()
    targets = [
        (machine_by_name(machine), compiler_by_name(compiler))
        for machine, compiler in pairs or DEFAULT_PAIRS
    ]
    specs = [
        ExperimentSpec(
            workload=get_workload(item) if isinstance(item, str) else item,
            machine=machine,
            compiler=compiler,
            options=options,
            verify=verify,
        )
        for item in workloads
        for machine, compiler in targets
    ]
    results, stats = run_experiments(
        specs,
        workers=workers,
        use_cache=use_cache,
        cache_dir=cache_dir,
        task_timeout_s=task_timeout_s,
        journal_path=journal_path,
        resume=resume,
        fault_plan=fault_plan,
    )
    return SweepResult(
        results=[r for r in results if not is_failed(r)],
        failures=[r for r in results if is_failed(r)],
        stats=stats,
    )


def bench_record(sweep: SweepResult, label: str = "") -> dict:
    """Machine-readable perf record for one sweep (``BENCH_sweep.json``).

    Captures wall clock, worker count, cache hit rate and per-phase
    timing totals so successive PRs can track the engine's performance
    trajectory.
    """
    record: dict = {"label": label, "experiments": len(sweep.results)}
    if sweep.stats is not None:
        record.update(sweep.stats.to_dict())
    return record
