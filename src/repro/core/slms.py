"""The SLMS driver — paper §5, steps 1–6.

:func:`slms_for_loop` applies the full algorithm to one canonical for
loop:

1. bad-case filter (§4);
2. source-level if-conversion (§3.1);
3. MI partition + multi-def scalar renaming (§3);
4. dependence graph with ``<distance, delay>`` labels (§3.5, §3.6);
5. MII / valid-II search; on failure, decompose an MI (§3.2) and retry;
6. prologue/kernel/epilogue emission (§1), then MVE (§3.3) or scalar
   expansion (§3.4) to remove the false dependences decomposition and
   loop scalars introduced.

The driver *declines* rather than transforms whenever it cannot prove
the result equivalent — imprecise dependences, non-canonical loops,
nested control flow, short trip counts.  Declines carry a reason string
so the harness (and the interactive user of §8) can see why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.ddg import DependenceGraph, build_ddg
from repro.analysis.loopinfo import LoopInfo
from repro.core.decompose import decompose_mi
from repro.core.filters import FilterVerdict, bad_case_filter
from repro.core.if_conversion import if_convert
from repro.core.mi import MIPartition, NotPartitionable, partition_mis
from repro.core.mii import find_valid_ii, pmii_difmin
from repro.core.mve import apply_mve, plan_rotations
from repro.core.schedulers import (
    SCHEDULER_NAMES,
    SourceSchedule,
    exact,
    resource_mii,
)
from repro.core.names import NamePool
from repro.core.scalar_expansion import apply_scalar_expansion
from repro.core.schedule import ShortTripCount, build_modulo_schedule
from repro.defaults import DEFAULT_SCHED_BUDGET
from repro.lang.ast_nodes import Break, Continue, Decl, For, Stmt, While
from repro.lang.visitors import walk
from repro.obs import get_tracer

EXPANSIONS = ("auto", "mve", "scalar", "none")

#: Upper bound on ``reduction_lanes``.  The lane split's cost grows
#: steeply with the lane count (about 2 s for 256 lanes and 36 s for
#: 1024 on a 100-iteration float sum, on a 2-vCPU host), and from 16
#: lanes upward the split is tried and then dropped on such a loop.
MAX_REDUCTION_LANES = 64


@dataclass
class SLMSOptions:
    """Tuning knobs for the SLMS driver.

    ``expansion``
        ``"auto"`` (MVE when bounds are literal, else plain schedule),
        ``"mve"``, ``"scalar"`` (scalar expansion), or ``"none"``.
    ``ratio_threshold`` / ``min_arith_per_ref``
        §4 / §11 filter thresholds; ``enable_filter=False`` or
        ``force=True`` bypasses filtering entirely (the §8 interactive
        user saying "do it anyway").
    ``max_decompositions``
        Bound on §3.2 retries before giving up.
    ``max_unroll``
        Cap on the MVE unroll factor (register pressure guard; the
        paper's kernel-10 regression came from unbounded MVE).
    """

    enable_filter: bool = True
    ratio_threshold: float = 0.85
    min_arith_per_ref: float = 0.0
    expansion: str = "auto"
    max_decompositions: int = 8
    max_unroll: int = 8
    force: bool = False
    # §5's max-loop lane splitting: rotate a reduction variable through
    # N independent lanes and merge after the loop (0 disables; at
    # most MAX_REDUCTION_LANES).
    # min/max merges are bit-exact; sum/product lanes reassociate
    # floating point and additionally require allow_reassociation.
    reduction_lanes: int = 0
    allow_reassociation: bool = False
    # §3.2's second decomposition form: split MIs whose resource usage
    # exceeds the target VLIW's per-row capacity, e.g. ``(2, 2)`` for a
    # machine allowing two load/stores and two additions per VLS.
    # ``None`` disables resource-driven decomposition (the default —
    # SLMS "ignores hardware resources", §7).
    resource_limits: Optional[tuple] = None
    # Run the independent schedule validator (repro.verify.schedule) on
    # every applied result and attach its diagnostics to the report.
    verify: bool = False
    # Scheduling backend (docs/SCHEDULERS.md): "heuristic" is the
    # paper's fixed placement; "exact" proves placement optimality by
    # branch-and-bound within sched_budget placement attempts.
    scheduler: str = "heuristic"
    sched_budget: int = DEFAULT_SCHED_BUDGET
    # Machine preset name for the source-level resMII report (None
    # skips it — the paper's scheduler is resource-blind, §7, so the
    # floor is informational and never gates feasibility).
    machine: Optional[str] = None

    def __post_init__(self) -> None:
        if self.expansion not in EXPANSIONS:
            raise ValueError(
                f"unknown expansion mode {self.expansion!r}; choose from "
                + ", ".join(EXPANSIONS)
            )
        if not 0 <= self.reduction_lanes <= MAX_REDUCTION_LANES:
            raise ValueError(
                f"reduction_lanes must be from 0 to {MAX_REDUCTION_LANES}, "
                f"got {self.reduction_lanes}"
            )
        if self.resource_limits is not None:
            loads, arith = self.resource_limits
            if loads < 1 or arith < 1:
                raise ValueError("resource limits must be >= 1")
        if self.scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; choose from "
                + ", ".join(SCHEDULER_NAMES)
            )
        if self.sched_budget < 1:
            raise ValueError("sched_budget must be >= 1")
        if self.machine is not None:
            from repro.machines.presets import machine_by_name

            machine_by_name(self.machine)  # raises on unknown names


@dataclass
class SLMSResult:
    """Outcome of SLMS on one loop (or a whole program — see pipeline)."""

    applied: bool
    stmts: List[Stmt] = field(default_factory=list)
    new_decls: List[Decl] = field(default_factory=list)
    reason: str = ""
    ii: Optional[int] = None
    pmii: Optional[int] = None
    stages: Optional[int] = None
    n_mis: Optional[int] = None
    decompositions: int = 0
    expansion: str = "none"
    unroll: int = 1
    new_scalars: List[str] = field(default_factory=list)
    filter_verdict: Optional[FilterVerdict] = None
    ddg: Optional[DependenceGraph] = None
    partition: Optional[MIPartition] = None
    # The MI list the schedule was built from (after decomposition,
    # before expansion) — what the Fig. 1 table view renders.
    final_mis: List[Stmt] = field(default_factory=list)
    # Reduction lanes used (≥ 2 when §5 lane splitting rewrote the loop
    # header; the schedule validator skips such results).
    lanes: int = 0
    # Validator findings, populated when SLMSOptions.verify is set.
    diagnostics: List = field(default_factory=list)
    # Expansion rename provenance: fresh name -> the MI scalar it
    # stands for (MVE rotation names, scalar-expansion arrays).  Lets
    # the schedule validator refuse to unify a rename of one scalar
    # against an occurrence of another.
    renames: Dict[str, str] = field(default_factory=dict)
    # Scheduling-backend report (docs/SCHEDULERS.md): which backend
    # placed the MIs, the resMII floor (when a machine was given), the
    # identity II the paper's search found, and — for non-default
    # backends — whether the II was proven optimal, the search size,
    # and the placement permutation applied to final_mis.
    scheduler: str = "heuristic"
    res_mii: Optional[int] = None
    heuristic_ii: Optional[int] = None
    sched_proven: Optional[bool] = None
    sched_nodes: int = 0
    sched_order: List[int] = field(default_factory=list)
    # The source loop this report is about (set by pipeline.slms; with
    # §5 lane splitting, the loop as written, not the lane loop).
    loop: Optional[For] = None

    @staticmethod
    def declined(reason: str, **kwargs) -> "SLMSResult":
        return SLMSResult(applied=False, reason=reason, **kwargs)


def _has_inner_control(body: List[Stmt]) -> Optional[str]:
    for stmt in body:
        for node in walk(stmt):
            if isinstance(node, (For, While)):
                return "nested loop in body"
            if isinstance(node, (Break, Continue)):
                return "break/continue in body"
    return None


def _element_type(name: str, types: Dict[str, str]) -> str:
    return types.get(name, "float")


def _infer_type(expr, types: Dict[str, str]) -> str:
    """Static type of a scalar expression under the dialect's rules:
    ``int`` iff every leaf is an int; any float leaf, call, or unknown
    name promotes to ``float`` (matching the backend's expr_type)."""
    from repro.lang.ast_nodes import (
        ArrayRef, BinOp, Call, FloatLit, IntLit, Ternary, UnaryOp, Var,
    )

    if isinstance(expr, IntLit):
        return "int"
    if isinstance(expr, FloatLit):
        return "float"
    if isinstance(expr, Var):
        return types.get(expr.name, "float")
    if isinstance(expr, ArrayRef):
        return types.get(expr.name, "float")
    if isinstance(expr, UnaryOp):
        if expr.op == "!":
            return "int"
        return _infer_type(expr.operand, types)
    if isinstance(expr, BinOp):
        if expr.op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
            return "int"
        left = _infer_type(expr.left, types)
        right = _infer_type(expr.right, types)
        return "int" if left == right == "int" else "float"
    if isinstance(expr, Ternary):
        then = _infer_type(expr.then, types)
        els = _infer_type(expr.els, types)
        return "int" if then == els == "int" else "float"
    if isinstance(expr, Call):
        return "float"
    return "float"


def _trace_applied(
    tracer,
    ii: int,
    pmii: Optional[int],
    stages: int,
    n_mis: int,
    decompositions: int,
    expansion: str,
) -> None:
    tracer.event(
        "slms.applied",
        ii=ii,
        pmii=pmii,
        stages=stages,
        n_mis=n_mis,
        decompositions=decompositions,
        expansion=expansion,
    )


def slms_for_loop(
    loop: For,
    pool: NamePool,
    options: Optional[SLMSOptions] = None,
    types: Optional[Dict[str, str]] = None,
) -> SLMSResult:
    """Apply SLMS to one for loop; never mutates the input."""
    options = options or SLMSOptions()
    # Local copy: fresh temporaries (predicates, renamed webs,
    # decomposition registers) are registered as they are declared so
    # later passes (MVE, scalar expansion) type their own temps off them.
    types = dict(types or {})
    tracer = get_tracer()

    def declined(reason: str, **kwargs) -> SLMSResult:
        if tracer.enabled:
            tracer.event("slms.decline", reason=reason)
        return SLMSResult.declined(reason, **kwargs)

    # ---- step 0: canonical shape ----------------------------------------
    info = LoopInfo.from_for(loop)
    if info is None:
        return declined("loop is not in canonical counted form")
    control = _has_inner_control(loop.body)
    if control is not None:
        return declined(control)

    # ---- step 1: §4 bad-case filter ---------------------------------------
    verdict = bad_case_filter(
        loop.body,
        info.var,
        ratio_threshold=options.ratio_threshold,
        min_arith_per_ref=options.min_arith_per_ref,
    )
    if tracer.enabled:
        tracer.event(
            "filter.verdict",
            apply_slms=verdict.apply_slms,
            ratio=round(verdict.memory_ref_ratio, 6),
            loads=verdict.loads,
            stores=verdict.stores,
            scalar_accesses=verdict.scalar_accesses,
            arith=verdict.arith,
            enforced=options.enable_filter and not options.force,
        )
    if options.enable_filter and not options.force and not verdict.apply_slms:
        return declined(verdict.reason, filter_verdict=verdict)

    # ---- step 2: if-conversion ----------------------------------------------
    converted = if_convert([s.clone() for s in loop.body], pool)
    new_decls: List[Decl] = [Decl("int", p) for p in converted.predicates]
    new_scalars: List[str] = list(converted.predicates)
    types.update((p, "int") for p in converted.predicates)

    # ---- step 3: MI partition + multi-def renaming ----------------------------
    try:
        partition = partition_mis(
            converted.stmts, info.var, pool, elem_types=types
        )
    except NotPartitionable as exc:
        return declined(str(exc), filter_verdict=verdict)
    new_decls.extend(partition.hoisted_decls)
    types.update((d.name, d.type) for d in partition.hoisted_decls)
    for renames in partition.renamed.values():
        new_scalars.extend(renames)
    mis = partition.mis
    if not mis:
        return declined("empty loop body", filter_verdict=verdict)
    if tracer.enabled:
        tracer.event(
            "mi.partition",
            n_mis=len(mis),
            renamed=sorted(partition.renamed),
            predicates=len(converted.predicates),
        )

    # ---- §3.2 second form: resource-driven decomposition ------------------
    if options.resource_limits is not None:
        from repro.core.decompose import decompose_by_resources

        max_loads, max_arith = options.resource_limits
        changed = True
        rounds = 0
        while changed and rounds < options.max_decompositions:
            changed = False
            for pos, stmt in enumerate(mis):
                parts = decompose_by_resources(stmt, max_loads, max_arith, pool)
                if parts is not None:
                    temp = parts[0].target.name  # type: ignore[union-attr]
                    temp_type = _infer_type(parts[0].value, types)  # type: ignore[union-attr]
                    mis = mis[:pos] + parts + mis[pos + 1 :]
                    new_decls.append(Decl(temp_type, temp))
                    types[temp] = temp_type
                    new_scalars.append(temp)
                    changed = True
                    rounds += 1
                    break

    # ---- steps 4+5: DDG, II search, decomposition loop -------------------------
    decompositions = 0
    while True:
        graph = build_ddg(mis, info)
        if not graph.precise:
            return declined(
                "imprecise dependences: " + "; ".join(graph.reasons),
                filter_verdict=verdict,
                ddg=graph,
            )
        ii = find_valid_ii(graph, len(mis)) if len(mis) >= 2 else None
        if ii is not None:
            break
        if decompositions >= options.max_decompositions:
            return declined(
                "no valid II after maximum decompositions",
                n_mis=len(mis),
                decompositions=decompositions,
                filter_verdict=verdict,
                ddg=graph,
            )
        # §3.2: pick an MI (sequential order, §5 footnote) and split it.
        for pos, stmt in enumerate(mis):
            decomposition = decompose_mi(stmt, mis, info, pool)
            if decomposition is not None:
                mis = mis[:pos] + [decomposition.load_mi, decomposition.rest_mi] + mis[pos + 1 :]
                new_decls.append(
                    Decl(_element_type(decomposition.array, types), decomposition.temp)
                )
                types[decomposition.temp] = _element_type(decomposition.array, types)
                new_scalars.append(decomposition.temp)
                decompositions += 1
                if tracer.enabled:
                    tracer.event(
                        "decompose.round",
                        round=decompositions,
                        mi_index=pos,
                        array=decomposition.array,
                        temp=decomposition.temp,
                        n_mis=len(mis),
                    )
                break
        else:
            return declined(
                "no MI can be decomposed (§5 failure case)",
                n_mis=len(mis),
                decompositions=decompositions,
                filter_verdict=verdict,
            )

    # ---- placement refinement (docs/SCHEDULERS.md) -------------------------
    # The II search above IS the paper's scheduler (identity placement);
    # the exact backend may now find a better placement for the same MI
    # partition.  Reordering the MI list realises the permutation —
    # every downstream pass and the validator key off list position —
    # and is sequentially sound because the search enforced every
    # distance-0 dependence direction.
    heuristic_ii = ii
    if options.scheduler == "exact":
        floor = 1
        if info.trip_count is not None and info.trip_count > 0:
            # A lower II would push the stage count past the trip count
            # and trip the emission guard, so never search below this.
            floor = max(1, -(-len(mis) // info.trip_count))
        sched = exact.refine(graph, heuristic_ii, floor, options.sched_budget)
        if not sched.is_identity:
            mis = [mis[m] for m in sched.order]
            graph = build_ddg(mis, info)
    else:
        sched = SourceSchedule(
            ii=heuristic_ii, order=tuple(range(graph.n)), backend="heuristic"
        )
    ii = sched.ii

    res_mii = None
    if options.machine is not None:
        from repro.machines.presets import machine_by_name

        res_mii = resource_mii(mis, machine_by_name(options.machine), types)

    # Recurrence MII for the report: the difMin iterative-shortest-path
    # form (§3.6) — polynomial, unlike cycle enumeration, so dense
    # scalar-dependence graphs cannot blow up the driver.
    pmii = pmii_difmin(graph)
    stages = -(-len(mis) // ii)
    if tracer.enabled:
        tracer.event(
            "ii.found",
            ii=ii,
            pmii=pmii,
            stages=stages,
            n_mis=len(mis),
            decompositions=decompositions,
        )
        if options.scheduler != "heuristic":
            tracer.event(
                "sched.decision",
                backend=sched.backend,
                ii=sched.ii,
                heuristic_ii=heuristic_ii,
                proven=sched.proven_optimal,
                exhausted=sched.exhausted,
                nodes=sched.nodes,
                reordered=not sched.is_identity,
            )

    # What every result from here on reports, applied or declined at
    # emission.
    facts = dict(
        ii=ii,
        pmii=pmii,
        stages=stages,
        n_mis=len(mis),
        decompositions=decompositions,
        filter_verdict=verdict,
        ddg=graph,
        scheduler=options.scheduler,
        res_mii=res_mii,
        heuristic_ii=heuristic_ii,
        sched_proven=(
            sched.proven_optimal if options.scheduler != "heuristic" else None
        ),
        sched_nodes=sched.nodes,
        sched_order=list(sched.order),
    )

    # ---- step 6: expansion choice + emission --------------------------------
    expansion = options.expansion
    literal_bounds = info.trip_count is not None and info.step > 0

    if expansion in ("auto", "mve") and literal_bounds:
        plans = plan_rotations(mis, info, ii, pool)
        if plans and len(plans[0].names) <= options.max_unroll:
            try:
                mve = apply_mve(mis, info, ii, plans, elem_types=types)
            except ValueError as exc:
                return declined(str(exc), **facts)
            new_decls.extend(mve.new_decls)
            new_scalars.extend(n for p in mve.plans for n in p.names)
            if tracer.enabled:
                tracer.event(
                    "expansion.choice",
                    strategy="mve",
                    unroll=mve.unroll,
                    rotated=sorted(p.var for p in mve.plans),
                )
                _trace_applied(tracer, ii, pmii, stages, len(mis),
                               decompositions, "mve")
            return SLMSResult(
                applied=True,
                stmts=mve.stmts,
                new_decls=new_decls,
                expansion="mve",
                unroll=mve.unroll,
                new_scalars=new_scalars,
                partition=partition,
                final_mis=[m.clone() for m in mis],
                renames={
                    name: p.var for p in mve.plans for name in p.names
                },
                **facts,
            )
        # fall through to plain schedule when nothing needs rotation
        expansion = "none" if expansion == "auto" else expansion

    if expansion == "scalar" and literal_bounds:
        expanded = apply_scalar_expansion(mis, info, pool, elem_types=types)
        mis_x = expanded.mis
        try:
            schedule = build_modulo_schedule(mis_x, info, ii)
        except ShortTripCount as exc:
            return declined(str(exc), **facts)
        new_decls.extend(expanded.new_decls)
        if tracer.enabled:
            tracer.event(
                "expansion.choice",
                strategy="scalar",
                expanded=sorted(p.var for p in expanded.plans),
            )
            _trace_applied(tracer, ii, pmii, stages, len(mis),
                           decompositions, "scalar")
        return SLMSResult(
            applied=True,
            stmts=[*expanded.preheader, *schedule.stmts(), *expanded.liveout],
            new_decls=new_decls,
            expansion="scalar",
            new_scalars=new_scalars,
            partition=partition,
            final_mis=[m.clone() for m in mis],
            renames={p.array: p.var for p in expanded.plans},
            **facts,
        )

    if expansion == "mve" and not literal_bounds:
        return declined(
            "MVE requires literal bounds and a positive step", **facts
        )
    if expansion == "scalar" and not literal_bounds:
        return declined(
            "scalar expansion requires literal bounds and a positive step",
            **facts,
        )

    # Plain schedule: sequentially correct; cross-row scalar anti-deps
    # remain (the backend rebuilds exact dependences anyway).
    try:
        schedule = build_modulo_schedule(mis, info, ii)
    except ShortTripCount as exc:
        return declined(str(exc), **facts)
    if tracer.enabled:
        tracer.event("expansion.choice", strategy="none")
        _trace_applied(tracer, ii, pmii, stages, len(mis), decompositions,
                       "none")
    return SLMSResult(
        applied=True,
        stmts=schedule.stmts(),
        new_decls=new_decls,
        expansion="none",
        new_scalars=new_scalars,
        partition=partition,
        final_mis=[m.clone() for m in mis],
        **facts,
    )
