"""The evaluation engine: parallel, memoized, fault-tolerant execution.

The paper's evaluation (§9) is a cross-product of workloads × machines ×
compilers, re-run constantly while reproducing figures.  Four
cooperating layers make that cheap and unkillable:

1. LIR execution runs exec-compiled blocks and fused loop superblocks
   (:mod:`repro.sim.codegen_exec`, driven by
   :func:`repro.sim.executor.execute`), and the verify phase runs the
   compiled source oracle (:mod:`repro.sim.interp_compile`), which cuts
   per-experiment cost;
2. this module fans independent experiments out over a process pool —
   experiments are deterministic pure functions of their spec, so
   results are collected back in submission order and are byte-identical
   to a serial run;
3. one on-disk content-addressed store (:mod:`repro.harness.expcache`)
   memoizes each :class:`~repro.harness.experiment.ExperimentResult` in
   its ``full`` tier and each pipeline phase in its own tier, so warm
   figure/sweep re-runs are near-instant and partly changed ones re-run
   only the phases whose inputs changed;
4. the fault layer (:mod:`repro.harness.faults`) contains everything
   that goes wrong: a task that crashes its worker, hangs past the
   wall-clock limit, or raises comes back as a structured
   :class:`~repro.harness.faults.FailedResult` in its spec's slot —
   never as an exception that aborts the run — with bounded
   deterministic retries for transient kinds and an optional
   checkpoint journal (``journal_path``/``resume``) that lets a killed
   sweep resume byte-identical to an uninterrupted one.

:func:`run_experiments` is the single entry point; ``run_suite``,
``run_sweep`` and the figure harness all route through it.  Defaults
(worker count, cache on/off, timeouts, fault plan) come from a
module-level :class:`EngineConfig`, overridable per call or temporarily
via :func:`engine_defaults` (how the CLI's ``--workers``/``--no-cache``/
``--timeout`` flags reach the figure suite without threading knobs
through every figure function).  Fault injection for the chaos suite
activates through ``EngineConfig.fault_plan`` or the ``SLMS_FAULTS``
environment variable.

``ENGINE_VERSION`` participates in every cache key.  Bump it whenever a
change anywhere in the pipeline (transforms, backend, simulator
accounting) can alter experiment results, or stale entries will be
served.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.backend.compiler import CompilerConfig
from repro.core.slms import SLMSOptions
from repro.harness.expcache import (
    ENGINE_VERSION,
    PHASE_TIERS,
    ExperimentCache,
    PhaseCache,
    experiment_key,
)
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.faults import (
    FaultPlan,
    FaultPolicy,
    RetryPolicy,
    RunJournal,
    execute_guarded,
    is_failed,
    task_key,
)
from repro.machines.model import MachineModel
from repro.obs import get_metrics, get_tracer
from repro.workloads.base import Workload

# ENGINE_VERSION lives in repro.harness.expcache (next to the cache
# keys it versions) and is re-exported here for compatibility.

PHASES = ("parse", "transform", "compile", "simulate", "verify", "total")


@dataclass(frozen=True)
class EngineConfig:
    """How :func:`run_experiments` schedules, memoizes and guards work.

    ``workers=None`` means "one per CPU" (capped by the number of
    uncached experiments); ``workers=1`` is the serial fallback that
    never spawns processes.  ``task_timeout_s`` is the per-task
    wall-clock limit (None = unlimited; setting one forces pooled
    dispatch so a stuck task can be contained).  ``retry`` and
    ``crash_strikes`` bound re-attempts (see
    :class:`~repro.harness.faults.RetryPolicy`); ``fault_plan`` injects
    deterministic chaos for the test suite (also reachable via the
    ``SLMS_FAULTS`` environment variable).  ``journal_path`` checkpoints
    completed specs to a :class:`~repro.harness.faults.RunJournal`;
    ``resume=True`` replays its ``ok`` records instead of re-running.
    """

    workers: Optional[int] = None
    use_cache: bool = True
    cache_dir: Optional[str] = None
    task_timeout_s: Optional[float] = None
    retry: RetryPolicy = RetryPolicy()
    crash_strikes: int = 2
    fault_plan: Optional[FaultPlan] = None
    journal_path: Optional[str] = None
    resume: bool = False


_default_config = EngineConfig()


def get_default_engine() -> EngineConfig:
    return _default_config


def set_default_engine(config: EngineConfig) -> EngineConfig:
    """Install ``config`` as the process-wide default; returns the old."""
    global _default_config
    previous = _default_config
    _default_config = config
    return previous


@contextmanager
def engine_defaults(**overrides) -> Iterator[EngineConfig]:
    """Temporarily override fields of the default engine config."""
    previous = set_default_engine(replace(_default_config, **overrides))
    try:
        yield _default_config
    finally:
        set_default_engine(previous)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment's full input tuple (picklable, hashable)."""

    workload: Workload
    machine: MachineModel
    compiler: CompilerConfig
    options: Optional[SLMSOptions] = None
    verify: bool = True

    def cache_key(self) -> str:
        return experiment_key(
            self.workload,
            self.machine,
            self.compiler,
            self.options,
            self.verify,
            ENGINE_VERSION,
        )

    def label(self) -> str:
        return (
            f"{self.workload.name}@{self.machine.name}/{self.compiler.name}"
        )

    def identity(self) -> Dict[str, str]:
        """The spec fields a :class:`FailedResult` carries for triage."""
        return {
            "workload": self.workload.name,
            "suite": self.workload.suite,
            "machine": self.machine.name,
            "compiler": self.compiler.name,
        }


@dataclass
class EngineStats:
    """What one :func:`run_experiments` call did and cost.

    ``cache_hits``/``cache_misses``/``cache_evictions`` count the
    run's ``full``-tier lookups (evictions are corrupt entries
    quarantined on read).  ``journal_hits`` are specs replayed from a
    resume journal;
    ``failures``/``retries``/``quarantined``/``timeouts`` summarize the
    fault layer's activity (all zero on a clean run).
    """

    experiments: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    journal_hits: int = 0
    failures: int = 0
    retries: int = 0
    quarantined: int = 0
    timeouts: int = 0
    workers: int = 1
    wall_s: float = 0.0
    phase_totals: Dict[str, float] = field(default_factory=dict)
    # Seconds *served from caches* this run (the work the entries
    # originally cost), aggregated from results' cached_phase_times —
    # the counterpart of phase_totals, which is work actually done.
    cached_phase_totals: Dict[str, float] = field(default_factory=dict)
    # Phase-cache tier traffic aggregated from freshly-run experiments
    # (full-cache hits and journal replays contribute nothing — their
    # tier traffic was counted when they originally ran).
    tier_hits: Dict[str, int] = field(default_factory=dict)
    tier_misses: Dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.experiments if self.experiments else 0.0

    @property
    def utilization(self) -> float:
        """Busy-fraction of the worker pool: Σ experiment wall / (wall × N)."""
        busy = self.phase_totals.get("total", 0.0)
        capacity = self.wall_s * self.workers
        return busy / capacity if capacity else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "engine_version": ENGINE_VERSION,
            "experiments": self.experiments,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "journal_hits": self.journal_hits,
            "failures": self.failures,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "timeouts": self.timeouts,
            "cache_hit_rate": round(self.hit_rate, 4),
            "workers": self.workers,
            "worker_utilization": round(self.utilization, 4),
            "wall_s": round(self.wall_s, 3),
            "phase_totals_s": {
                phase: round(seconds, 3)
                for phase, seconds in self.phase_totals.items()
            },
            "cached_phase_totals_s": {
                phase: round(seconds, 3)
                for phase, seconds in self.cached_phase_totals.items()
            },
            "phase_cache": {
                tier: {
                    "hits": self.tier_hits.get(tier, 0),
                    "misses": self.tier_misses.get(tier, 0),
                    "hit_rate": round(
                        self.tier_hits.get(tier, 0)
                        / (
                            self.tier_hits.get(tier, 0)
                            + self.tier_misses.get(tier, 0)
                        ),
                        4,
                    )
                    if self.tier_hits.get(tier, 0)
                    + self.tier_misses.get(tier, 0)
                    else 0.0,
                }
                for tier in PHASE_TIERS
            },
        }


@dataclass(frozen=True)
class _Task:
    """One dispatched unit: the spec plus the phase-cache binding.

    ``phase_cache_dir=None`` disables per-phase memoization for the
    task (cache off, or a traced run — tier hits would skip the spans
    and events that make traces worker-count-invariant).
    """

    spec: ExperimentSpec
    phase_cache_dir: Optional[str] = None


def _run_spec(task: ExperimentSpec | _Task) -> ExperimentResult:
    """Top-level worker entry point (must stay picklable)."""
    if isinstance(task, ExperimentSpec):
        task = _Task(task)
    phase_cache = (
        PhaseCache.shared(task.phase_cache_dir)
        if task.phase_cache_dir
        else None
    )
    spec = task.spec
    return run_experiment(
        spec.workload,
        spec.machine,
        spec.compiler,
        spec.options,
        verify=spec.verify,
        phase_cache=phase_cache,
    )


def _resolve_workers(requested: Optional[int], n_tasks: int) -> int:
    if requested is None:
        requested = os.cpu_count() or 1
    if requested < 1:
        raise ValueError(f"workers must be >= 1, got {requested}")
    return max(1, min(requested, n_tasks))


def _emit_task_events(tracer, registry, label: str, outcome) -> None:
    """Absorb one outcome's trace payloads and replay its lifecycle.

    Called in spec order for every dispatched task, so the merged event
    sequence (including ``engine.task.retry/failed/quarantine``) is
    independent of worker count, exactly like the rest of the obs layer.
    """
    if outcome.trace:
        tracer.absorb(outcome.trace)
    if outcome.metrics:
        registry.merge(outcome.metrics)
    for entry in outcome.log:
        attrs = {k: v for k, v in entry.items() if k != "event"}
        tracer.event(f"engine.task.{entry['event']}", task=label, **attrs)


def run_tasks(
    fn,
    items: Sequence,
    workers: Optional[int] = None,
    *,
    timeout_s: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    journal: Optional[RunJournal] = None,
    keys: Optional[Sequence[str]] = None,
    labels: Optional[Sequence[str]] = None,
) -> List:
    """Guarded deterministic map: ``[fn(item) for item in items]``.

    The generic sibling of :func:`run_experiments` for work that is not
    an experiment (the fuzzer's case evaluation, batch validation).
    ``fn`` must be a picklable module-level function of one argument and
    a *pure* one — results are collected in item order and must not
    depend on scheduling.

    A task that raises (or crashes its worker, or exceeds ``timeout_s``)
    yields a :class:`~repro.harness.faults.FailedResult` in its slot
    instead of aborting the run; transient failures retry per ``retry``.
    Pass a :class:`~repro.harness.faults.RunJournal` to checkpoint
    completed items (keyed by ``keys``, defaulting to each item's
    :func:`~repro.harness.faults.task_key`); on a resume journal, items
    with an ``ok`` record are replayed without re-running, so results
    must be JSON-able for the round-trip to be lossless.

    When the parent is tracing, each task runs under its own
    tracer/metrics registry and payloads are absorbed in item order, so
    traces and metrics are worker-count-invariant exactly like the
    experiment path.
    """
    tracer = get_tracer()
    items = list(items)
    if journal is not None and keys is None:
        keys = [task_key(item) for item in items]
    results: List = [None] * len(items)
    pending: List[int] = []
    for i in range(len(items)):
        if journal is not None:
            stored = journal.completed_ok(keys[i])
            if stored is not None:
                results[i] = stored
                continue
        pending.append(i)
    if not pending:
        return results

    plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    policy = FaultPolicy(
        timeout_s=timeout_s,
        retry=retry or RetryPolicy(),
        fault_plan=plan.resolved(len(pending)) if plan else None,
    )
    pending_labels = (
        [labels[i] for i in pending]
        if labels
        else [f"task[{i}]" for i in pending]
    )

    def on_complete(pos: int, out) -> None:
        if journal is None:
            return
        key = keys[pending[pos]]
        if out.ok:
            journal.record(key, "ok", out.value)
        else:
            journal.record(key, "failed", out.failure.to_dict())

    outcomes = execute_guarded(
        fn,
        [items[i] for i in pending],
        workers=_resolve_workers(workers, len(pending)),
        policy=policy,
        labels=pending_labels,
        traced=tracer.enabled,
        on_complete=on_complete,
    )
    registry = get_metrics()
    for pos, out in enumerate(outcomes):
        if tracer.enabled:
            _emit_task_events(tracer, registry, pending_labels[pos], out)
        results[pending[pos]] = out.value if out.ok else out.failure
    return results


def run_experiments(
    specs: Sequence[ExperimentSpec],
    config: Optional[EngineConfig] = None,
    workers: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    task_timeout_s: Optional[float] = None,
    journal_path: Optional[str] = None,
    resume: Optional[bool] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[List[ExperimentResult], EngineStats]:
    """Run every spec; returns results in spec order plus stats.

    Journal replays (on ``resume``) and cached results are filled in
    first (no process overhead for hits); the remaining specs run
    through the guarded dispatcher — pooled, or in-process when one
    worker suffices and no containment is needed.  Result order, and
    result *content*, never depend on the worker count, the cache state
    or a resume: the pipeline is deterministic and the content hash
    covers every input.

    A spec whose task fails (crash / hang / exception) contributes a
    :class:`~repro.harness.faults.FailedResult` in its slot — callers
    that need every entry to be an ``ExperimentResult`` must check
    :func:`~repro.harness.faults.is_failed` (or use
    ``run_suite(on_failure="raise")``).
    """
    base = config or get_default_engine()
    overrides: Dict[str, object] = {}
    if workers is not None:
        overrides["workers"] = workers
    if use_cache is not None:
        overrides["use_cache"] = use_cache
    if cache_dir is not None:
        overrides["cache_dir"] = cache_dir
    if task_timeout_s is not None:
        overrides["task_timeout_s"] = task_timeout_s
    if journal_path is not None:
        overrides["journal_path"] = journal_path
    if resume is not None:
        overrides["resume"] = resume
    if fault_plan is not None:
        overrides["fault_plan"] = fault_plan
    if overrides:
        base = replace(base, **overrides)

    t_start = time.perf_counter()
    stats = EngineStats(experiments=len(specs))
    cache = ExperimentCache(base.cache_dir) if base.use_cache else None
    store = cache.store if cache is not None else None
    evicted_before = store.evictions["full"] if store is not None else 0
    # The phase tiers live in the same store.  Traced runs bypass them:
    # tier hits would skip the phase spans that make traces
    # worker-count-invariant (same reason `slms trace` bypasses the
    # full tier).
    phase_cache_dir = (
        str(store.root)
        if store is not None and not get_tracer().enabled
        else None
    )
    plan = (
        base.fault_plan if base.fault_plan is not None else FaultPlan.from_env()
    )
    journal = (
        RunJournal(base.journal_path, resume=base.resume)
        if base.journal_path
        else None
    )
    tracer = get_tracer()

    try:
        with tracer.span("engine.run", specs=len(specs)) as engine_span:
            results: List = [None] * len(specs)
            pending: List[Tuple[int, ExperimentSpec, Optional[str]]] = []
            for index, spec in enumerate(specs):
                key = (
                    spec.cache_key()
                    if cache is not None or journal is not None
                    else None
                )
                if journal is not None:
                    stored = journal.completed_ok(key)
                    if stored is not None:
                        results[index] = ExperimentResult.from_dict(stored)
                        stats.journal_hits += 1
                        if tracer.enabled:
                            tracer.event(
                                "engine.journal.hit",
                                workload=spec.workload.name,
                                machine=spec.machine.name,
                                compiler=spec.compiler.name,
                            )
                        continue
                t_lookup = time.perf_counter()
                hit = cache.get(key) if cache is not None else None
                if hit is not None:
                    stats.cache_hits += 1
                    # A hit's stored phase times describe the *original*
                    # computation; report what this run actually did
                    # (the lookup) under phase_times and fold everything
                    # the entry originally cost — executed and
                    # served-from-tier alike — into cached_phase_times.
                    served = dict(hit.phase_times)
                    for phase, seconds in hit.cached_phase_times.items():
                        served[phase] = served.get(phase, 0.0) + seconds
                    hit.cached_phase_times = served
                    hit.phase_times = {
                        "cache": time.perf_counter() - t_lookup
                    }
                    results[index] = hit
                    if tracer.enabled:
                        tracer.event(
                            "engine.cache.hit",
                            workload=spec.workload.name,
                            machine=spec.machine.name,
                            compiler=spec.compiler.name,
                        )
                else:
                    pending.append((index, spec, key))
                    if tracer.enabled and cache is not None:
                        tracer.event(
                            "engine.cache.miss",
                            workload=spec.workload.name,
                            machine=spec.machine.name,
                            compiler=spec.compiler.name,
                        )
            stats.cache_misses = len(pending)

            n_workers = _resolve_workers(base.workers, len(pending))
            stats.workers = n_workers
            if pending:
                # Fault-rule indices address positions in this dispatched
                # (uncached, unjournaled) sequence; resolve '?' now so the
                # parent-side rules (corrupt-cache, abort) see the same
                # targets the workers do.
                plan_r = plan.resolved(len(pending)) if plan else None
                policy = FaultPolicy(
                    timeout_s=base.task_timeout_s,
                    retry=base.retry,
                    crash_strikes=base.crash_strikes,
                    fault_plan=plan_r,
                )
                corrupt_at = (
                    plan_r.corrupt_cache_indices() if plan_r else frozenset()
                )
                abort_at = plan_r.abort_after() if plan_r else None
                completions = 0

                def on_complete(pos: int, out) -> None:
                    nonlocal completions
                    _index, _spec, key = pending[pos]
                    if out.ok and cache is not None and key is not None:
                        cache.put(key, out.value)
                        if pos in corrupt_at:
                            store.corrupt("full", key)
                    if journal is not None and key is not None:
                        if out.ok:
                            journal.record(key, "ok", out.value.to_dict())
                        else:
                            journal.record(
                                key, "failed", out.failure.to_dict()
                            )
                    completions += 1
                    if abort_at is not None and completions >= abort_at:
                        # Simulated SIGKILL mid-sweep: flush the journal
                        # and die without cleanup, like the real thing.
                        if journal is not None:
                            journal.flush()
                        os._exit(137)

                labels = [spec.label() for _i, spec, _k in pending]
                identities = [spec.identity() for _i, spec, _k in pending]
                outcomes = execute_guarded(
                    _run_spec,
                    [
                        _Task(spec, phase_cache_dir)
                        for _i, spec, _k in pending
                    ],
                    workers=n_workers,
                    policy=policy,
                    labels=labels,
                    specs=identities,
                    traced=tracer.enabled,
                    on_complete=on_complete,
                )
                registry = get_metrics()
                for pos, ((index, _spec, _key), out) in enumerate(
                    zip(pending, outcomes)
                ):
                    if tracer.enabled:
                        _emit_task_events(tracer, registry, labels[pos], out)
                    stats.retries += sum(
                        1 for entry in out.log if entry["event"] == "retry"
                    )
                    if out.ok:
                        results[index] = out.value
                    else:
                        results[index] = out.failure
                        stats.failures += 1
                        if out.failure.quarantined:
                            stats.quarantined += 1
                        if out.failure.kind == "timeout":
                            stats.timeouts += 1

            totals: Dict[str, float] = {}
            cached_totals: Dict[str, float] = {}
            for result in results:
                for phase, seconds in (
                    getattr(result, "phase_times", None) or {}
                ).items():
                    totals[phase] = totals.get(phase, 0.0) + seconds
                for phase, seconds in (
                    getattr(result, "cached_phase_times", None) or {}
                ).items():
                    cached_totals[phase] = (
                        cached_totals.get(phase, 0.0) + seconds
                    )
                for tier, rec in (
                    getattr(result, "cache_tiers", None) or {}
                ).items():
                    stats.tier_hits[tier] = (
                        stats.tier_hits.get(tier, 0) + rec.get("hits", 0)
                    )
                    stats.tier_misses[tier] = (
                        stats.tier_misses.get(tier, 0) + rec.get("misses", 0)
                    )
            stats.phase_totals = totals
            stats.cached_phase_totals = cached_totals
            if store is not None:
                stats.cache_evictions = (
                    store.evictions["full"] - evicted_before
                )
                # One sidecar update per run, from the spec-order
                # counts, so pooled runs add up exactly.
                traffic = {
                    "full": {
                        "hits": stats.cache_hits,
                        "misses": stats.cache_misses,
                    }
                }
                for tier in PHASE_TIERS:
                    traffic[tier] = {
                        "hits": stats.tier_hits.get(tier, 0),
                        "misses": stats.tier_misses.get(tier, 0),
                    }
                store.add_counters(traffic)
            stats.wall_s = time.perf_counter() - t_start

            # Engine-side metrics: coarse, once per run.  Fault counters
            # appear only when the fault layer actually did something, so
            # clean runs export the same metrics as before.
            registry = get_metrics()
            registry.counter("engine.runs").inc()
            registry.counter("engine.experiments").inc(len(specs))
            registry.counter("engine.cache.hits").inc(stats.cache_hits)
            registry.counter("engine.cache.misses").inc(stats.cache_misses)
            # Tier counters only when the phase cache saw traffic, so
            # traced runs (phase cache off) export the same metric set
            # as before.
            for tier in PHASE_TIERS:
                hits = stats.tier_hits.get(tier, 0)
                misses = stats.tier_misses.get(tier, 0)
                if hits:
                    registry.counter(
                        f"engine.phase_cache.{tier}.hits"
                    ).inc(hits)
                if misses:
                    registry.counter(
                        f"engine.phase_cache.{tier}.misses"
                    ).inc(misses)
            registry.gauge("engine.workers").set(stats.workers)
            registry.gauge("engine.worker_utilization").set(stats.utilization)
            if stats.journal_hits:
                registry.counter("engine.journal.hits").inc(stats.journal_hits)
            if stats.retries:
                registry.counter("engine.task.retries").inc(stats.retries)
            if stats.quarantined:
                registry.counter("engine.task.quarantined").inc(
                    stats.quarantined
                )
            if stats.failures:
                registry.counter("engine.task.failures").inc(stats.failures)
                kinds: Dict[str, int] = {}
                for result in results:
                    if is_failed(result):
                        kinds[result.kind] = kinds.get(result.kind, 0) + 1
                for kind, count in sorted(kinds.items()):
                    registry.counter(f"engine.task.failures.{kind}").inc(count)
            for phase, seconds in totals.items():
                registry.histogram(f"engine.phase.{phase}_s").observe(seconds)
            if tracer.enabled:
                engine_span.set(
                    workers=stats.workers,
                    cache_hits=stats.cache_hits,
                    cache_misses=stats.cache_misses,
                )
                if stats.failures:
                    engine_span.set(failures=stats.failures)
    finally:
        if journal is not None:
            journal.close()
    return results, stats
