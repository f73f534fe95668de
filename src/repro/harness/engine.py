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
   never as an exception that aborts the run — with deterministic
   retries for transient failures and an optional checkpoint journal
   (``journal_path``/``resume``) that lets a killed sweep resume
   byte-identical to an uninterrupted one.

:func:`run_tasks` is the one guarded batch runner: journal replay, the
fault plan (an explicit plan, else ``SLMS_FAULTS``), dispatch through
:func:`~repro.harness.faults.execute_guarded`, journaling, the
parent-side ``abort`` rule and the spec-order replay of task events.
:func:`run_experiments` — which ``run_sweep``, and through it the
figure harness, route through — adds the ``full``-tier cache in front
of it and :class:`EngineStats` around it.  Every setting (worker
count, cache on/off, timeout, journal, fault plan) is an argument of
the call; the module holds no process-wide defaults.

``ENGINE_VERSION`` participates in every cache key.  Bump it whenever a
change anywhere in the pipeline (transforms, backend, simulator
accounting) can alter experiment results, or stale entries will be
served.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
    RunJournal,
    execute_guarded,
    is_failed,
)
from repro.machines.model import MachineModel
from repro.obs import digest_of, get_metrics, get_tracer
from repro.workloads.base import Workload

# ENGINE_VERSION lives in repro.harness.expcache (next to the cache
# keys it versions) and is re-exported here for compatibility.

PHASES = ("parse", "transform", "compile", "simulate", "verify", "total")


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
    quarantined on read; with the cache off every spec is a miss).
    ``journal_hits`` are the misses replayed from a resume journal;
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


def _run_spec(task: _Task) -> ExperimentResult:
    """Top-level worker entry point (must stay picklable)."""
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


def check_settings(
    workers: Optional[int] = None, task_timeout_s: Optional[float] = None
) -> None:
    """Refuse a worker count or task timeout no run could use.

    Callers check before any cache lookup, task or journal write.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if task_timeout_s is not None and not task_timeout_s > 0:
        raise ValueError(
            "task timeout must be a positive number of seconds, "
            f"got {task_timeout_s!r}"
        )


def _resolve_workers(requested: Optional[int], n_tasks: int) -> int:
    check_settings(requested)
    if requested is None:
        requested = os.cpu_count() or 1
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
    fault_plan: Optional[FaultPlan] = None,
    journal: Optional[RunJournal] = None,
    keys: Optional[Sequence[str]] = None,
    labels: Optional[Sequence[str]] = None,
    specs: Optional[Sequence[Dict[str, str]]] = None,
    on_result: Optional[Callable[[int, Any, bool], None]] = None,
    stats: Optional[EngineStats] = None,
) -> List:
    """Guarded deterministic map: ``[fn(item) for item in items]``.

    The one guarded batch runner: :func:`run_experiments` hands it its
    cache misses, and the fuzzer its cases.  ``fn`` must be a picklable
    module-level function of one argument and a *pure* one — results
    are collected in item order and must not depend on scheduling.

    A task that raises (or crashes its worker, or exceeds ``timeout_s``)
    yields a :class:`~repro.harness.faults.FailedResult` in its slot
    instead of aborting the run; ``specs`` gives each such record its
    task's identity.  ``fault_plan`` injects chaos (None reads
    ``SLMS_FAULTS``; an explicit empty plan never does), its indices
    addressing positions among the items actually dispatched.

    Pass a :class:`~repro.harness.faults.RunJournal` to checkpoint
    completed items (keyed by ``keys``, defaulting to each item's
    :func:`~repro.obs.digest_of`); on a resume journal, items
    with an ``ok`` record are replayed without re-running, as their
    stored JSON.  A result is journaled as its ``to_dict()`` when it
    has one, else as itself, which must then be JSON-able.

    ``on_result(index, result, corrupt_cache)`` fires as each dispatched
    item succeeds, before its journal record (the engine writes its
    cache there; ``corrupt_cache`` is whether a ``corrupt-cache`` rule
    targets the item).  An ``abort:N`` rule hard-exits the process with
    status 137 after N dispatched items conclude.  ``stats`` gains the
    run's journal replays, worker count, retries and failures.

    When the parent is tracing, each task runs under its own
    tracer/metrics registry and payloads are absorbed in item order, so
    traces and metrics are worker-count-invariant.
    """
    tracer = get_tracer()
    items = list(items)
    if journal is not None and keys is None:
        keys = [digest_of(item) for item in items]
    labels = (
        list(labels) if labels else [f"task[{i}]" for i in range(len(items))]
    )
    results: List = [None] * len(items)
    pending: List[int] = []
    for i in range(len(items)):
        stored = journal.completed_ok(keys[i]) if journal is not None else None
        if stored is None:
            pending.append(i)
            continue
        results[i] = stored
        if stats is not None:
            stats.journal_hits += 1
        if tracer.enabled:
            tracer.event("engine.journal.hit", task=labels[i])
    n_workers = _resolve_workers(workers, len(pending))
    if stats is not None:
        stats.workers = n_workers
    if not pending:
        return results

    plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    plan = plan.resolved(len(pending)) if plan else None
    corrupt_at = plan.corrupt_cache_indices() if plan else frozenset()
    abort_at = plan.abort_after() if plan else None
    completions = 0

    def on_complete(pos: int, out) -> None:
        nonlocal completions
        i = pending[pos]
        if out.ok and on_result is not None:
            on_result(i, out.value, pos in corrupt_at)
        if journal is not None:
            if out.ok:
                value = out.value
                if hasattr(value, "to_dict"):
                    value = value.to_dict()
                journal.record(keys[i], "ok", value)
            else:
                journal.record(keys[i], "failed", out.failure.to_dict())
        completions += 1
        if abort_at is not None and completions >= abort_at:
            # Simulated SIGKILL mid-run: flush the journal and die
            # without cleanup, like the real thing.
            if journal is not None:
                journal.flush()
            os._exit(137)

    outcomes = execute_guarded(
        fn,
        [items[i] for i in pending],
        workers=n_workers,
        timeout_s=timeout_s,
        fault_plan=plan,
        labels=[labels[i] for i in pending],
        specs=[specs[i] for i in pending] if specs else None,
        traced=tracer.enabled,
        on_complete=on_complete,
    )
    registry = get_metrics()
    for i, out in zip(pending, outcomes):
        if tracer.enabled:
            _emit_task_events(tracer, registry, labels[i], out)
        if out.ok:
            results[i] = out.value
        else:
            results[i] = out.failure
        if stats is not None:
            stats.retries += sum(
                1 for entry in out.log if entry["event"] == "retry"
            )
            if not out.ok:
                stats.failures += 1
                if out.failure.quarantined:
                    stats.quarantined += 1
                if out.failure.kind == "timeout":
                    stats.timeouts += 1
    return results


def run_experiments(
    specs: Sequence[ExperimentSpec],
    workers: Optional[int] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    task_timeout_s: Optional[float] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[List[ExperimentResult], EngineStats]:
    """Run every spec; returns results in spec order plus stats.

    Each spec is looked up in the ``full`` cache tier first (no process
    overhead for hits); the misses go to :func:`run_tasks`, which
    replays any the resume journal holds and runs the rest — pooled,
    or in-process when one worker suffices and no containment is
    needed.  A spec both cached and journaled is thus served from the
    cache.  Result order, and result *content*, never depend on the
    worker count, the cache state or a resume: the pipeline is
    deterministic and the content hash covers every input.

    ``workers=None`` means one per CPU (capped by the number of
    uncached specs); ``cache_dir=None`` is the default store
    (``SLMS_CACHE_DIR``); ``task_timeout_s`` is the per-task wall-clock
    limit (None = unlimited; a limit forces pooled dispatch so a stuck
    task can be contained); a worker count below 1 or a limit that is
    not positive raises :class:`ValueError` before any lookup or
    journal write; ``journal_path``/``resume``
    checkpoint completed specs to a
    :class:`~repro.harness.faults.RunJournal` and replay its ``ok``
    records; ``fault_plan=None`` reads ``SLMS_FAULTS``.

    A spec whose task fails (crash / hang / exception) contributes a
    :class:`~repro.harness.faults.FailedResult` in its slot — callers
    that need every entry to be an ``ExperimentResult`` must check
    :func:`~repro.harness.faults.is_failed`.
    """
    check_settings(workers, task_timeout_s)
    t_start = time.perf_counter()
    stats = EngineStats(experiments=len(specs))
    cache = ExperimentCache(cache_dir) if use_cache else None
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
    journal = (
        RunJournal(journal_path, resume=resume)
        if journal_path
        else None
    )
    keys = (
        [spec.cache_key() for spec in specs]
        if cache is not None or journal is not None
        else None
    )
    tracer = get_tracer()

    try:
        with tracer.span("engine.run", specs=len(specs)) as engine_span:
            results: List = [None] * len(specs)
            misses: List[int] = []
            for index, spec in enumerate(specs):
                t_lookup = time.perf_counter()
                hit = cache.get(keys[index]) if cache is not None else None
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
                    misses.append(index)
                    if tracer.enabled and cache is not None:
                        tracer.event(
                            "engine.cache.miss",
                            workload=spec.workload.name,
                            machine=spec.machine.name,
                            compiler=spec.compiler.name,
                        )
            stats.cache_misses = len(misses)

            def store_result(i: int, result, corrupt_cache: bool) -> None:
                key = keys[misses[i]]
                cache.put(key, result)
                if corrupt_cache:
                    store.corrupt("full", key)

            computed = run_tasks(
                _run_spec,
                [_Task(specs[i], phase_cache_dir) for i in misses],
                workers,
                timeout_s=task_timeout_s,
                fault_plan=fault_plan,
                journal=journal,
                keys=[keys[i] for i in misses] if keys else None,
                labels=[specs[i].label() for i in misses],
                specs=[specs[i].identity() for i in misses],
                on_result=store_result if cache is not None else None,
                stats=stats,
            )
            for index, result in zip(misses, computed):
                # Journal replays come back as the stored JSON.
                results[index] = (
                    ExperimentResult.from_dict(result)
                    if isinstance(result, dict)
                    else result
                )

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
                tier_hits = stats.tier_hits.get(tier, 0)
                tier_misses = stats.tier_misses.get(tier, 0)
                if tier_hits:
                    registry.counter(
                        f"engine.phase_cache.{tier}.hits"
                    ).inc(tier_hits)
                if tier_misses:
                    registry.counter(
                        f"engine.phase_cache.{tier}.misses"
                    ).inc(tier_misses)
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
