"""MI-level data dependence graph with ``<distance, delay>`` edges.

:func:`build_ddg` turns a loop (its ordered MI statements plus header
info) into the dependence multigraph SLMS schedules against, merging

* array dependences from the §3-style subscript tests (dependence edges
  between memory reference nodes are "raised" to the parent MI — §5
  step 4a),
* scalar dependences with kill analysis,
* conservative barriers for opaque calls.

Each edge carries the dependence kind, the variable/array responsible,
the iteration distance, and the §3.5 source-level delay.  The graph also
records *imprecision*: any non-affine subscript, unknown-distance
dependence, or call barrier marks it, and SLMS declines imprecise loops
(matching Tiny, which only transforms loops its Omega test fully
understands).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.affine import AffineExpr, analyze_subscript
from repro.analysis.delays import edge_delay
from repro.analysis.deptests import DependenceResult, test_dependence
from repro.analysis.loopinfo import LoopInfo
from repro.analysis.scalars import scalar_dependences
from repro.lang.ast_nodes import (
    ArrayRef,
    Assign,
    Call,
    Decl,
    Expr,
    ExprStmt,
    If,
    Stmt,
)
from repro.lang.visitors import walk


@dataclass(frozen=True)
class Dependence:
    """A dependence edge between MI positions ``src → dst``.

    The dependence source executes in iteration ``i`` and the sink in
    iteration ``i + distance`` (``distance ≥ 0``; distance-0 edges always
    have ``src < dst`` in body order).  ``delay`` follows §3.5.
    """

    kind: str  # "flow" | "anti" | "output"
    src: int
    dst: int
    var: str
    distance: int
    delay: int
    exact: bool = True

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.kind} {self.var}: MI{self.src} -> MI{self.dst} "
            f"<dist={self.distance}, delay={self.delay}>"
        )


@dataclass
class _MemRef:
    """One array access inside an MI, normalized to affine subscripts."""

    mi: int
    name: str
    subs: Optional[Tuple[AffineExpr, ...]]  # None: non-affine
    is_write: bool
    # Subscript mentions a scalar the body redefines: the affine form's
    # "loop-invariant symbol" assumption does not hold, so any conflict
    # involving this reference must be treated as unknown.
    variant_syms: bool = False


@dataclass
class DependenceGraph:
    """The SLMS dependence multigraph over MI positions ``0..n-1``."""

    n: int
    edges: List[Dependence] = field(default_factory=list)
    precise: bool = True
    reasons: List[str] = field(default_factory=list)

    def add(self, dep: Dependence) -> None:
        self.edges.append(dep)

    def mark_imprecise(self, reason: str) -> None:
        self.precise = False
        if reason not in self.reasons:
            self.reasons.append(reason)

    # -- queries ----------------------------------------------------------
    def loop_carried(self) -> List[Dependence]:
        return [e for e in self.edges if e.distance >= 1]

    def self_edges(self, mi: int) -> List[Dependence]:
        return [e for e in self.edges if e.src == mi and e.dst == mi]

    def dominant_edges(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Per node pair, the tightest ``(delay, distance)`` pair.

        For MII purposes the binding label between two MIs maximizes
        ``delay − II·distance``; since delay is a function of positions
        only, that is the *minimum distance* among parallel edges (and
        their shared positional delay).
        """
        best: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for e in self.edges:
            key = (e.src, e.dst)
            if key not in best or e.distance < best[key][1]:
                best[key] = (e.delay, e.distance)
        return best


def _collect_mem_refs(
    stmt: Stmt, mi: int, index_var: str, body_defined: frozenset
) -> List[_MemRef]:
    """Array accesses of one MI, with read/write roles.

    ``body_defined`` holds the scalars written anywhere in the loop
    body; a subscript touching one of them is flagged ``variant_syms``
    (its affine form is only valid within a single iteration).
    """
    refs: List[_MemRef] = []

    def make_ref(ref: ArrayRef, is_write: bool) -> _MemRef:
        subs = []
        variant = False
        for idx in ref.indices:
            a = analyze_subscript(idx, index_var)
            if a is None:
                return _MemRef(mi, ref.name, None, is_write)
            if any(name in body_defined for name, _c in a.syms):
                variant = True
            subs.append(a)
        return _MemRef(mi, ref.name, tuple(subs), is_write, variant)

    def add_reads(expr: Expr) -> None:
        for node in walk(expr):
            if isinstance(node, ArrayRef):
                refs.append(make_ref(node, False))

    def visit(s: Stmt) -> None:
        if isinstance(s, Assign):
            add_reads(s.expanded_value())
            if isinstance(s.target, ArrayRef):
                refs.append(make_ref(s.target, True))
                for idx in s.target.indices:
                    add_reads(idx)
        elif isinstance(s, If):
            add_reads(s.cond)
            for inner in list(s.then) + list(s.els):
                visit(inner)
        elif isinstance(s, ExprStmt):
            add_reads(s.expr)
        elif isinstance(s, Decl) and s.init is not None:
            add_reads(s.init)

    visit(stmt)
    return refs


def _has_call(stmt: Stmt) -> bool:
    return any(isinstance(n, Call) for n in walk(stmt))


def _kind(src_write: bool, dst_write: bool) -> str:
    if src_write and dst_write:
        return "output"
    if src_write:
        return "flow"
    return "anti"


def raise_to_mi_edges(
    result: DependenceResult,
    ref1: _MemRef,
    ref2: _MemRef,
) -> List[Tuple[str, int, int, int, bool]]:
    """Convert one reference-pair test into directed MI-level edges.

    Returns ``(kind, src_mi, dst_mi, distance, exact)`` tuples with
    ``distance ≥ 0``; a negative tested distance flips the edge (the
    "source" of the dependence is whichever access runs first).
    """
    a, b = ref1.mi, ref2.mi
    out: List[Tuple[str, int, int, int, bool]] = []

    def directed(distance: int) -> None:
        if distance > 0:
            out.append((_kind(ref1.is_write, ref2.is_write), a, b, distance, result.exact))
        elif distance < 0:
            out.append((_kind(ref2.is_write, ref1.is_write), b, a, -distance, result.exact))
        else:  # distance == 0: body order decides direction
            if a < b:
                out.append((_kind(ref1.is_write, ref2.is_write), a, b, 0, result.exact))
            elif b < a:
                out.append((_kind(ref2.is_write, ref1.is_write), b, a, 0, result.exact))
            # a == b at distance 0: within one MI; expression evaluation
            # order covers it, no edge.

    if not result.exists:
        return out
    if result.distance is not None:
        directed(result.distance)
        return out
    # All distances (or unknown): the binding constraint is the minimal
    # forward distance in each direction (larger distances only relax
    # the schedule inequality d·II + (j−i) ≥ delay).
    if a == b:
        out.append((_kind(ref1.is_write, ref2.is_write), a, b, 1, result.exact))
        return out
    lo_mi, hi_mi = (a, b) if a < b else (b, a)
    if a < b:
        out.append((_kind(ref1.is_write, ref2.is_write), lo_mi, hi_mi, 0, result.exact))
        out.append((_kind(ref2.is_write, ref1.is_write), hi_mi, lo_mi, 1, result.exact))
    else:
        out.append((_kind(ref2.is_write, ref1.is_write), lo_mi, hi_mi, 0, result.exact))
        out.append((_kind(ref1.is_write, ref2.is_write), hi_mi, lo_mi, 1, result.exact))
    return out


def build_ddg(
    stmts: Sequence[Stmt],
    info: LoopInfo,
) -> DependenceGraph:
    """Build the MI dependence graph for a loop body.

    ``stmts`` are the ordered MI statements (after if-conversion / MI
    partitioning); ``info`` is the loop header.
    """
    graph = DependenceGraph(n=len(stmts))
    seen: set = set()

    def add(kind: str, src: int, dst: int, distance: int, var: str, exact: bool) -> None:
        key = (kind, src, dst, distance, var)
        if key in seen:
            return
        seen.add(key)
        graph.add(
            Dependence(
                kind=kind,
                src=src,
                dst=dst,
                var=var,
                distance=distance,
                delay=edge_delay(src, dst),
                exact=exact,
            )
        )

    # ---- call barriers ----------------------------------------------------
    for mi, stmt in enumerate(stmts):
        if _has_call(stmt):
            graph.mark_imprecise(f"MI{mi} contains an opaque call")

    # ---- array dependences ----------------------------------------------
    from repro.lang.visitors import defined_scalars

    body_defined = frozenset(
        name
        for stmt in stmts
        for name in defined_scalars(stmt)
        if name != info.var
    )
    all_refs: List[_MemRef] = []
    for mi, stmt in enumerate(stmts):
        all_refs.extend(_collect_mem_refs(stmt, mi, info.var, body_defined))
    for ref in all_refs:
        if ref.subs is None:
            graph.mark_imprecise(
                f"non-affine subscript on {ref.name!r} in MI{ref.mi}"
            )

    by_array: Dict[str, List[_MemRef]] = {}
    for ref in all_refs:
        by_array.setdefault(ref.name, []).append(ref)

    for name, refs in by_array.items():
        for i, r1 in enumerate(refs):
            for r2 in refs[i:]:
                if not (r1.is_write or r2.is_write):
                    continue
                if r1.subs is None or r2.subs is None:
                    # Unknown subscripts: conservative all-distance dep.
                    result = DependenceResult.unknown()
                elif r1.variant_syms or r2.variant_syms:
                    # A loop-variant scalar in a subscript invalidates
                    # the cross-iteration affine comparison.
                    result = DependenceResult.unknown()
                else:
                    if len(r1.subs) != len(r2.subs):
                        graph.mark_imprecise(
                            f"rank mismatch on array {name!r}"
                        )
                        result = DependenceResult.unknown()
                    else:
                        result = test_dependence(
                            r1.subs,
                            r2.subs,
                            lo=info.lo_const,
                            hi=info.hi_const,
                            step=info.step,
                        )
                if result.exists and not result.exact:
                    graph.mark_imprecise(
                        f"unknown-distance dependence on {name!r} between "
                        f"MI{r1.mi} and MI{r2.mi}"
                    )
                for kind, src, dst, distance, exact in raise_to_mi_edges(
                    result, r1, r2
                ):
                    add(kind, src, dst, distance, name, exact)

    # ---- scalar dependences ----------------------------------------------
    for dep in scalar_dependences(stmts, info.var):
        add(dep.kind, dep.src, dep.dst, dep.distance, dep.var, True)

    from repro.obs import get_tracer

    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "ddg.build",
            nodes=graph.n,
            edges=len(graph.edges),
            loop_carried=len(graph.loop_carried()),
            precise=graph.precise,
            reasons=list(graph.reasons),
        )
    return graph
