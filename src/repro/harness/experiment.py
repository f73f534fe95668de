"""Core experiment: original vs SLMSed kernel on one machine/compiler.

Methodology (mirrors the paper's §9 protocol):

* SLMS transforms **only the kernel** — the setup code compiles
  identically in both variants, so kernel cost is obtained exactly as
  ``cycles(setup + kernel) − cycles(setup)`` (the simulator is
  deterministic);
* both variants use the *same* final-compiler preset and machine, as
  the paper does ("both SLMSed and non SLMSed loops are compiled with
  the same compilation flags");
* every run is verified against the source-level interpreter before its
  timing is trusted — a miscompiled speedup is a bug, not a result.

When a :class:`~repro.harness.expcache.PhaseCache` is supplied, each
phase first consults its memo tier (keyed on exactly what the phase
reads — see :mod:`repro.harness.expcache`); hits are transparent to the
result except for timing bookkeeping: ``phase_times`` always records
what *this run* actually spent (tier lookups included) while
``cached_phase_times`` accumulates the memoized seconds the hits
originally cost, so observability never conflates served-from-cache
with executed time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.backend.compiler import (
    CompilerConfig,
    FinalCompiler,
    compiler_by_name,
)
from repro.core.pipeline import _collect_types, slms
from repro.core.slms import SLMSOptions
from repro.harness.expcache import (
    PHASE_TIERS,
    PhaseCache,
    compile_key,
    simulate_key,
    state_digest,
    transform_key,
    verify_key,
)
from repro.lang.ast_nodes import Program
from repro.lang.parser import parse_program_cached
from repro.lang.printer import to_source
from repro.machines.model import MachineModel
from repro.machines.presets import machine_by_name
from repro.obs import get_tracer
from repro.sim.executor import ExecutionMetrics, execute
from repro.sim.interp import state_equal
from repro.sim.interp_compile import run_program_fast
from repro.workloads.base import Workload

# Harness phases every ExperimentResult reports wall-clock times for.
# Cache hits instead carry the single pseudo-phase ``{"cache": seconds}``
# (see repro.harness.engine) — downstream aggregation must treat keys as
# optional but can rely on phase_times never being empty.
EXPERIMENT_PHASES = ("parse", "transform", "compile", "simulate", "verify",
                     "total")

# Serialization schema for ExperimentResult.to_dict/from_dict.  Bumped
# to 2 when ``cached_phase_times`` split served-from-cache seconds out
# of ``phase_times``; from_dict refuses other schemas so stale cache and
# journal entries quarantine instead of deserializing ambiguously.
SCHEMA_VERSION = 2


class VerificationError(AssertionError):
    """Transformed or compiled code changed program semantics."""


@dataclass
class LoopSummary:
    """What an SLMS loop report boils down to, minus the IR.

    The picklable residue of :class:`~repro.core.slms.SLMSResult` that
    the harness actually consumes — stored in the transform memo tier so
    cached transforms replay classification (and validator failures)
    exactly like fresh ones.
    """

    applied: bool
    reason: str
    ii: Optional[int]
    new_scalars: List[str]
    errors: List[str]  # formatted error-severity diagnostics

    @staticmethod
    def from_report(report) -> "LoopSummary":
        return LoopSummary(
            applied=bool(report.applied),
            reason=report.reason,
            ii=report.ii,
            new_scalars=list(report.new_scalars),
            errors=[
                d.format() for d in report.diagnostics
                if d.severity == "error"
            ],
        )


@dataclass
class ExperimentResult:
    """Outcome of one workload × machine × compiler comparison."""

    workload: str
    suite: str
    machine: str
    compiler: str
    base_cycles: int
    slms_cycles: int
    base_energy: float
    slms_energy: float
    slms_applied: bool
    slms_reason: str = ""
    ii: Optional[int] = None
    ims_base: bool = False
    ims_slms: bool = False
    base_metrics: Optional[ExecutionMetrics] = None
    slms_metrics: Optional[ExecutionMetrics] = None
    # Wall-clock seconds per harness phase (parse/transform/compile/
    # simulate/verify + total) that *this run* actually spent.  Timing
    # metadata only: deliberately not part of exports or
    # equality-sensitive comparisons.
    phase_times: Dict[str, float] = field(default_factory=dict)
    # Memoized seconds served from the phase cache (what the hits
    # originally cost when computed), keyed by phase.  Disjoint from
    # phase_times by construction.
    cached_phase_times: Dict[str, float] = field(default_factory=dict)
    # Per-tier {"hits": n, "misses": n} traffic this result generated.
    # Transient engine-side bookkeeping: not serialized, so replayed
    # cache/journal entries never re-report old tier traffic.
    cache_tiers: Optional[Dict[str, Dict[str, int]]] = None

    @property
    def speedup(self) -> float:
        return self.base_cycles / self.slms_cycles if self.slms_cycles else 1.0

    # -- cache serialization (see repro.harness.expcache) --------------
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON form (floats round-trip via repr)."""
        return {
            "schema": SCHEMA_VERSION,
            "workload": self.workload,
            "suite": self.suite,
            "machine": self.machine,
            "compiler": self.compiler,
            "base_cycles": self.base_cycles,
            "slms_cycles": self.slms_cycles,
            "base_energy": self.base_energy,
            "slms_energy": self.slms_energy,
            "slms_applied": self.slms_applied,
            "slms_reason": self.slms_reason,
            "ii": self.ii,
            "ims_base": self.ims_base,
            "ims_slms": self.ims_slms,
            "base_metrics": (
                self.base_metrics.to_dict() if self.base_metrics else None
            ),
            "slms_metrics": (
                self.slms_metrics.to_dict() if self.slms_metrics else None
            ),
            "phase_times": dict(self.phase_times),
            "cached_phase_times": dict(self.cached_phase_times),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ExperimentResult":
        schema = int(data.get("schema", 1))
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported ExperimentResult schema {schema} "
                f"(expected {SCHEMA_VERSION})"
            )
        return ExperimentResult(
            workload=data["workload"],
            suite=data["suite"],
            machine=data["machine"],
            compiler=data["compiler"],
            base_cycles=int(data["base_cycles"]),
            slms_cycles=int(data["slms_cycles"]),
            base_energy=float(data["base_energy"]),
            slms_energy=float(data["slms_energy"]),
            slms_applied=bool(data["slms_applied"]),
            slms_reason=data["slms_reason"],
            ii=data["ii"],
            ims_base=bool(data["ims_base"]),
            ims_slms=bool(data["ims_slms"]),
            base_metrics=(
                ExecutionMetrics.from_dict(data["base_metrics"])
                if data.get("base_metrics")
                else None
            ),
            slms_metrics=(
                ExecutionMetrics.from_dict(data["slms_metrics"])
                if data.get("slms_metrics")
                else None
            ),
            phase_times=dict(data.get("phase_times") or {}),
            cached_phase_times=dict(data.get("cached_phase_times") or {}),
        )


class _PhaseMemo:
    """One experiment's view of the tiered phase cache.

    Wraps a shared :class:`~repro.harness.expcache.PhaseCache` (or
    ``None``: no memoization) with per-experiment tier traffic counts
    (``tiers``) and the memoized seconds served from hits (``credits``),
    which become the result's ``cache_tiers`` / ``cached_phase_times``.
    """

    def __init__(self, cache: Optional[PhaseCache]):
        self.cache = cache
        self.tiers = {tier: {"hits": 0, "misses": 0} for tier in PHASE_TIERS}
        self.credits: Dict[str, float] = {}

    def run(
        self, tier: str, key: Callable[[], str], compute: Callable[[], Any]
    ):
        """``compute()``, memoized in ``tier`` under ``key()``.

        A hit returns the stored value and credits the seconds it
        originally cost to the phase of the same name; a miss computes,
        stores the value with its cost, and returns it.  Keys are only
        built when there is a cache, and a ``compute`` that raises
        stores nothing.
        """
        if self.cache is None:
            return compute()
        k = key()
        entry = self.cache.get(tier, k)
        if entry is not None:
            self.tiers[tier]["hits"] += 1
            self.credits[tier] = (
                self.credits.get(tier, 0.0) + entry["elapsed"]
            )
            return entry["value"]
        self.tiers[tier]["misses"] += 1
        t0 = time.perf_counter()
        value = compute()
        self.cache.put(
            tier, k, {"value": value, "elapsed": time.perf_counter() - t0}
        )
        return value


def _kernel_cycles(
    setup_prog: Program,
    full_prog: Program,
    machine: MachineModel,
    config: CompilerConfig,
    times: Dict[str, float],
    memo: _PhaseMemo,
    sources: Tuple[Optional[str], Optional[str]],
) -> tuple:
    tracer = get_tracer()

    def compiled(source, prog):
        return memo.run(
            "compile",
            lambda: compile_key(source, machine, config),
            lambda: FinalCompiler(machine, config).compile(prog),
        )

    def simulated(module):
        return memo.run(
            "simulate",
            lambda: simulate_key(module, machine),
            lambda: execute(module, machine),
        )

    setup_src, full_src = sources
    t0 = time.perf_counter()
    with tracer.span("phase.compile"):
        compiled_setup = compiled(setup_src, setup_prog)
        compiled_full = compiled(full_src, full_prog)
    t1 = time.perf_counter()
    with tracer.span("phase.simulate"):
        setup_run = simulated(compiled_setup.module)
        full_run = simulated(compiled_full.module)
    t2 = time.perf_counter()
    times["compile"] += t1 - t0
    times["simulate"] += t2 - t1
    kernel_cycles = full_run.metrics.cycles - setup_run.metrics.cycles
    kernel_energy = full_run.metrics.energy_pj - setup_run.metrics.energy_pj
    return compiled_full, full_run, max(1, kernel_cycles), max(1.0, kernel_energy)


def transform_kernel(
    workload: Workload, options: Optional[SLMSOptions] = None
):
    """SLMS the kernel fragment only; returns (program, reports)."""
    full = workload.full_program()
    types = _collect_types(full)
    from repro.core.names import all_names

    # Reserve every name in the full program (incl. setup scalars).
    for name in all_names(full):
        types.setdefault(name, types.get(name, "float"))
    kernel_prog = parse_program_cached(workload.kernel)
    outcome = slms(kernel_prog, options, types=types)
    combined = parse_program_cached(workload.setup)
    combined.body.extend(outcome.program.body)
    return combined, outcome.loops


def run_experiment(
    workload: Workload,
    machine: MachineModel | str,
    compiler: CompilerConfig | str,
    options: Optional[SLMSOptions] = None,
    verify: bool = True,
    phase_cache: Optional[PhaseCache] = None,
) -> ExperimentResult:
    """Full comparison for one workload."""
    if isinstance(machine, str):
        machine = machine_by_name(machine)
    if isinstance(compiler, str):
        compiler = compiler_by_name(compiler)

    tracer = get_tracer()
    memo = _PhaseMemo(phase_cache)
    # Every phase key is always present (0.0 when a phase does no work)
    # so downstream aggregation never KeyErrors on declined-SLMS or
    # otherwise short-circuited results.
    times: Dict[str, float] = {phase: 0.0 for phase in EXPERIMENT_PHASES}
    with tracer.span(
        "experiment",
        workload=workload.name,
        suite=workload.suite,
        machine=machine.name,
        compiler=compiler.name,
    ) as exp_span:
        t_start = time.perf_counter()
        with tracer.span("phase.parse"):
            setup_prog = workload.setup_program()
            base_prog = workload.full_program()
        times["parse"] = time.perf_counter() - t_start
        if verify:
            # Static schedule validation rides along with the interpreter
            # oracle: every applied result must satisfy the re-derived
            # modulo constraints and replay its iteration space exactly.
            options = replace(options or SLMSOptions(), verify=True)

        def transform():
            with tracer.span("phase.transform"):
                program, reports = transform_kernel(workload, options)
            return program, [LoopSummary.from_report(r) for r in reports]

        t0 = time.perf_counter()
        slms_prog, summaries = memo.run(
            "transform", lambda: transform_key(workload, options), transform
        )
        times["transform"] = time.perf_counter() - t0
        if verify:
            for summary in summaries:
                if summary.errors:
                    raise VerificationError(
                        f"{workload.name}: schedule validator rejected the "
                        "SLMS result: "
                        + "; ".join(summary.errors[:3])
                    )

        setup_src = base_src = slms_src = None
        if phase_cache is not None:
            setup_src = to_source(setup_prog)
            base_src = to_source(base_prog)
            slms_src = to_source(slms_prog)
        compiled_base, base_run, base_cycles, base_energy = _kernel_cycles(
            setup_prog, base_prog, machine, compiler, times,
            memo=memo, sources=(setup_src, base_src),
        )
        compiled_slms, slms_run, slms_cycles, slms_energy = _kernel_cycles(
            setup_prog, slms_prog, machine, compiler, times,
            memo=memo, sources=(setup_src, slms_src),
        )

        new_scalars = [n for s in summaries for n in s.new_scalars]

        def check_states():
            # Compiled oracle: bit-identical states/errors to
            # run_program, at a fraction of the tree-walk cost.
            oracle = run_program_fast(base_prog)
            ignore = set(new_scalars)
            ignore |= {
                k for k in slms_run.state
                if k.endswith("Arr") and k not in oracle
            }
            if not state_equal(oracle, base_run.state, ignore=set(base_run.state) - set(oracle) | ignore):
                raise VerificationError(
                    f"{workload.name}: baseline compilation changed semantics"
                )
            if not state_equal(
                oracle, slms_run.state, ignore=(set(slms_run.state) - set(oracle)) | ignore
            ):
                raise VerificationError(
                    f"{workload.name}: SLMS variant changed semantics"
                )

        t0 = time.perf_counter()
        with tracer.span("phase.verify"):
            if verify:
                # Only proven-equal outcomes are memoized; failures
                # always re-run (and re-raise) fresh.
                memo.run(
                    "verify",
                    lambda: verify_key(
                        base_src,
                        slms_src,
                        options,
                        new_scalars,
                        state_digest(base_run.state),
                        state_digest(slms_run.state),
                    ),
                    check_states,
                )
        times["verify"] = time.perf_counter() - t0
        times["total"] = time.perf_counter() - t_start
        if tracer.enabled:
            exp_span.set(
                slms_applied=bool([s for s in summaries if s.applied]),
                base_cycles=base_cycles,
                slms_cycles=slms_cycles,
                # Timing attrs mirror the result's phase_times /
                # cached_phase_times split so Chrome/profiler exports
                # see the same work-vs-served story as the JSON forms.
                work_s=round(times["total"], 6),
                cached_s=round(sum(memo.credits.values()), 6),
            )

    def kernel_ims(compiled) -> bool:
        """Did machine-level MS succeed on the kernel's (last) loop?"""
        loops = compiled.module.loops
        if not loops:
            return False
        last_body = loops[-1].body_block
        return any(
            r.success and r.loop == last_body for r in compiled.ims_reports
        )

    applied = [s for s in summaries if s.applied]
    return ExperimentResult(
        workload=workload.name,
        suite=workload.suite,
        machine=machine.name,
        compiler=compiler.name,
        base_cycles=base_cycles,
        slms_cycles=slms_cycles,
        base_energy=base_energy,
        slms_energy=slms_energy,
        slms_applied=bool(applied),
        slms_reason="" if applied else "; ".join(s.reason for s in summaries),
        ii=applied[0].ii if applied else None,
        ims_base=kernel_ims(compiled_base),
        ims_slms=kernel_ims(compiled_slms),
        base_metrics=base_run.metrics,
        slms_metrics=slms_run.metrics,
        phase_times=times,
        cached_phase_times=dict(memo.credits),
        cache_tiers=memo.tiers if phase_cache is not None else None,
    )

