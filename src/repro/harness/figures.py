"""Per-figure experiment definitions (paper §9, Figures 14–22).

Each figure function returns a :class:`FigureResult` whose series carry
the same quantity the paper plots (speedup, gap closure, power/cycle
improvement, bundle counts).  ``slms figure <id>`` prints any figure;
the benchmark suite regenerates all of them.

Every figure runs its (workload, machine, compiler) cells through
:func:`~repro.harness.sweep.run_sweep`, so the ``workers`` and
``use_cache`` arguments of :func:`run_figure` reach the evaluation
engine for every figure; a failed cell raises
:class:`~repro.harness.faults.TaskFailedError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.experiment import ExperimentResult
from repro.harness.faults import TaskFailedError
from repro.harness.sweep import run_sweep
from repro.workloads import by_suite, get_workload
from repro.workloads.base import Workload


@dataclass
class FigureResult:
    """One reproduced figure: named series over workloads."""

    figure: str
    title: str
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def workloads(self) -> List[str]:
        names: List[str] = []
        for values in self.series.values():
            for name in values:
                if name not in names:
                    names.append(name)
        return names


def _workloads(suites: List[str], quick: bool) -> List[Workload]:
    out: List[Workload] = []
    for suite in suites:
        items = by_suite(suite)
        out.extend(items[:3] if quick else items)
    return out


def _cells(
    workloads: Sequence[Workload],
    machine: str,
    compiler: str,
    *,
    workers: Optional[int],
    use_cache: bool,
) -> List[ExperimentResult]:
    """Each workload on one (machine, compiler) pair, in workload order.

    The figures read every entry, so a failed cell raises
    :class:`~repro.harness.faults.TaskFailedError` instead of being
    left out of the series.
    """
    sweep = run_sweep(
        workloads,
        pairs=[(machine, compiler)],
        workers=workers,
        use_cache=use_cache,
    )
    if sweep.failures:
        raise TaskFailedError(sweep.failures)
    return sweep.results


#: What every figure runs its cells with: :func:`_cells` with the engine
#: settings of :func:`run_figure` bound, called as
#: ``cells(workloads, machine, compiler)``.
Cells = Callable[[Sequence[Workload], str, str], List[ExperimentResult]]


def _speedup_series(
    cells: Cells,
    figure: str,
    title: str,
    suites: List[str],
    machine: str,
    compiler: str,
    quick: bool,
) -> FigureResult:
    result = FigureResult(figure=figure, title=title)
    series: Dict[str, float] = {}
    applied_notes = []
    for res in cells(_workloads(suites, quick), machine, compiler):
        series[res.workload] = res.speedup
        if not res.slms_applied:
            applied_notes.append(
                f"{res.workload}: SLMS declined ({res.slms_reason})"
            )
    result.series["slms_speedup"] = series
    result.notes.extend(applied_notes)
    return result


# ---------------------------------------------------------------------------
# Figures 14/15: SLMS over the weak compiler (GCC) on the VLIW machine
# ---------------------------------------------------------------------------


def fig14(cells: Cells, quick: bool = False) -> FigureResult:
    """Livermore & Linpack over GCC (Itanium II)."""
    return _speedup_series(
        cells,
        "fig14",
        "Livermore & Linpack over GCC -O3 (Itanium II)",
        ["livermore", "linpack"],
        "itanium2",
        "gcc_O3",
        quick,
    )


def fig15(cells: Cells, quick: bool = False) -> FigureResult:
    """STONE & NAS over GCC (Itanium II)."""
    return _speedup_series(
        cells,
        "fig15",
        "STONE & NAS over GCC -O3 (Itanium II)",
        ["stone", "nas"],
        "itanium2",
        "gcc_O3",
        quick,
    )


# ---------------------------------------------------------------------------
# Figure 16: SLMS without -O3 closes the gap to -O3 (ICC)
# ---------------------------------------------------------------------------


def fig16(cells: Cells, quick: bool = False) -> FigureResult:
    """For each loop: speedup of (SLMS @ -O0) vs speedup of (-O3),
    both relative to the plain -O0 build.  SLMS closing the gap means
    the first series approaches the second."""
    result = FigureResult(
        figure="fig16",
        title="SLMS without -O3 vs the -O3 gap (ICC, Itanium II)",
    )
    slms_at_o0: Dict[str, float] = {}
    o3_gap: Dict[str, float] = {}
    closure: Dict[str, float] = {}
    workloads = _workloads(["livermore"], quick)
    weak_runs = cells(workloads, "itanium2", "icc_O0")
    strong_runs = cells(workloads, "itanium2", "icc_O3")
    for wl, weak, strong in zip(workloads, weak_runs, strong_runs):
        # weak.base = -O0 original; weak.slms = -O0 + SLMS;
        # strong.base = -O3 original.
        slms_at_o0[wl.name] = weak.speedup
        gap = weak.base_cycles / max(1, strong.base_cycles)
        o3_gap[wl.name] = gap
        if gap > 1.0:
            closure[wl.name] = min(
                1.0, (weak.speedup - 1.0) / (gap - 1.0)
            )
        else:
            closure[wl.name] = 1.0
    result.series["slms_at_O0_speedup"] = slms_at_o0
    result.series["O3_speedup"] = o3_gap
    result.series["gap_closed_fraction"] = closure
    return result


# ---------------------------------------------------------------------------
# Figure 17: superscalar (Pentium), GCC with and without -O3
# ---------------------------------------------------------------------------


def fig17(cells: Cells, quick: bool = False) -> FigureResult:
    result = FigureResult(
        figure="fig17",
        title="SLMS on a superscalar (Pentium), GCC ±O3",
    )
    for label, preset in (("speedup_O0", "gcc_O0"), ("speedup_O3", "gcc_O3")):
        series: Dict[str, float] = {}
        for res in cells(
            _workloads(["livermore", "linpack"], quick), "pentium", preset
        ):
            series[res.workload] = res.speedup
        result.series[label] = series
    return result


# ---------------------------------------------------------------------------
# Figures 18/19: SLMS over the strong compiler (ICC with machine-level MS)
# ---------------------------------------------------------------------------


def _strong_compiler_figure(
    cells: Cells, figure: str, title: str, suites: List[str], quick: bool
) -> FigureResult:
    result = FigureResult(figure=figure, title=title)
    series: Dict[str, float] = {}
    ims_counts = {"both": 0, "only_before": 0, "only_after": 0, "neither": 0}
    for res in cells(_workloads(suites, quick), "itanium2", "icc_O3"):
        series[res.workload] = res.speedup
        if res.ims_base and res.ims_slms:
            ims_counts["both"] += 1
        elif res.ims_base:
            ims_counts["only_before"] += 1
        elif res.ims_slms:
            ims_counts["only_after"] += 1
        else:
            ims_counts["neither"] += 1
    result.series["slms_speedup"] = series
    result.notes.append(
        "machine-level MS applied (before SLMS, after SLMS): "
        f"both={ims_counts['both']}, only-before={ims_counts['only_before']}, "
        f"only-after={ims_counts['only_after']}, neither={ims_counts['neither']}"
    )
    return result


def fig18(cells: Cells, quick: bool = False) -> FigureResult:
    return _strong_compiler_figure(
        cells,
        "fig18",
        "Livermore & Linpack over ICC -O3 (Itanium II, machine MS on)",
        ["livermore", "linpack"],
        quick,
    )


def fig19(cells: Cells, quick: bool = False) -> FigureResult:
    return _strong_compiler_figure(
        cells,
        "fig19",
        "STONE & NAS over ICC -O3 (Itanium II, machine MS on)",
        ["stone", "nas"],
        quick,
    )


# ---------------------------------------------------------------------------
# Figure 20: XLC / POWER4
# ---------------------------------------------------------------------------


def fig20(cells: Cells, quick: bool = False) -> FigureResult:
    return _speedup_series(
        cells,
        "fig20",
        "Livermore & Linpack + NAS over XLC (POWER4)",
        ["livermore", "linpack", "nas"],
        "power4",
        "xlc_O3",
        quick,
    )


# ---------------------------------------------------------------------------
# Figures 21/22: ARM7 power and cycles
# ---------------------------------------------------------------------------


def fig21(cells: Cells, quick: bool = False) -> FigureResult:
    result = FigureResult(
        figure="fig21",
        title="ARM7TDMI power dissipation improvement (%)",
    )
    series: Dict[str, float] = {}
    for res in cells(
        _workloads(["livermore", "linpack"], quick), "arm7tdmi", "arm_gcc"
    ):
        series[res.workload] = (1.0 - res.slms_energy / res.base_energy) * 100.0
    result.series["power_improvement_pct"] = series
    result.notes.append(
        "positive = SLMS reduces energy; the paper stresses SLMS must be "
        "applied selectively on the ARM"
    )
    return result


def fig22(cells: Cells, quick: bool = False) -> FigureResult:
    result = FigureResult(
        figure="fig22",
        title="ARM7TDMI total cycle improvement (%)",
    )
    series: Dict[str, float] = {}
    for res in cells(
        _workloads(["livermore", "linpack"], quick), "arm7tdmi", "arm_gcc"
    ):
        series[res.workload] = (1.0 - res.slms_cycles / res.base_cycles) * 100.0
    result.series["cycle_improvement_pct"] = series
    return result


# ---------------------------------------------------------------------------
# In-text §9.2 evidence: bundle counts on the EPIC machine
# ---------------------------------------------------------------------------


def text_bundles(cells: Cells, quick: bool = False) -> FigureResult:
    """Kernel-8 and fma-loop effective bundles (cycles) per *iteration*
    before vs after SLMS (paper: kernel 8 went 23 → 16 bundles/body;
    the fma loop 5.8 → 4 bundles/iteration).

    Measured as kernel cycles divided by the iteration count, which
    stays comparable when SLMS+MVE makes one kernel execution cover
    several source iterations.
    """
    del quick
    result = FigureResult(
        figure="text_bundles",
        title="Effective bundles per iteration before/after SLMS (Itanium II)",
    )
    fma_loop = Workload(
        name="fma_loop",
        suite="text",
        setup=(
            "float X[300];\n"
            "for (i = 0; i < 300; i++) { X[i] = 1.0 + 0.001 * i; }\n"
        ),
        kernel=(
            "for (k = 1; k < 250; k++) {\n"
            "    X[k] = X[k-1] * X[k-1] * X[k-1] * X[k-1] * X[k-1] +\n"
            "           X[k+1] * X[k+1] * X[k+1] * X[k+1] * X[k+1];\n"
            "}\n"
        ),
        description="§9.2 floating-point intensive loop",
    )
    iterations = {"kernel8": 199, "fma_loop": 249}
    before: Dict[str, float] = {}
    after: Dict[str, float] = {}
    for res in cells(
        [get_workload("kernel8"), fma_loop], "itanium2", "icc_O3"
    ):
        before[res.workload] = res.base_cycles / iterations[res.workload]
        after[res.workload] = res.slms_cycles / iterations[res.workload]
    result.series["bundles_before"] = before
    result.series["bundles_after"] = after
    return result


FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "fig19": fig19,
    "fig20": fig20,
    "fig21": fig21,
    "fig22": fig22,
    "text_bundles": text_bundles,
}


def run_figure(
    figure: str,
    quick: bool = False,
    workers: Optional[int] = None,
    use_cache: bool = True,
) -> FigureResult:
    """Reproduce one figure; ``workers`` (None = one per CPU) and
    ``use_cache`` go to every engine run the figure makes."""
    try:
        fn = FIGURES[figure]
    except KeyError:
        raise ValueError(
            f"unknown figure {figure!r}; choose from {sorted(FIGURES)}"
        ) from None
    return fn(partial(_cells, workers=workers, use_cache=use_cache), quick)
