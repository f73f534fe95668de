"""Independent validation of an emitted modulo schedule.

Given an applied :class:`~repro.core.slms.SLMSResult` and the original
loop, this module re-checks the transformation from scratch — it shares
no state with the scheduler beyond the AST:

**Layer 1 — modulo constraints.**  The DDG of the scheduled MIs is
re-derived with :func:`repro.analysis.ddg.build_ddg` and every edge
``src → dst, <distance d, delay δ>`` is checked against the row
arithmetic of SLMS's fixed placement (MI ``m`` of iteration ``k`` sits
at row ``k·II + m``, so ``σ(m) = m``)::

    d·II + (σ(dst) − σ(src))  ≥  1   for flow edges
    d·II + (σ(dst) − σ(src))  ≥  0   for anti/output edges

This is the paper's ``d·II + σ(dst) − σ(src) ≥ δ`` specialized to the
source-level delay model: a flow edge's value must be produced in a
strictly earlier row, while a same-row anti/output overlap is legal
because rows are emitted oldest-iteration first (see
:mod:`repro.core.mii`).  Violations are ``V201``; bookkeeping mismatches
(II/stage counts) are ``V202``; an imprecise re-derived graph on an
applied result is ``V203``.

**Layer 2 — structural replay.**  For loops with literal bounds the
emitted statement list is *flattened*: every loop in it is concretely
interpreted (tracking the loop variable's integer value), producing the
exact sequence of statement instances the transformed program executes.
Each instance is matched back to a pair ``(MI m, iteration g)`` by
instantiating MI ``m`` at every iteration value through the same
substitute-and-fold pipeline the emitters use, modulo the renames the
expansion introduced (MVE rotation names, scalar-expansion arrays).
Then:

* every MI must execute for exactly the iterations ``0 … N−1``, once
  each (``V204`` — the prologue/kernel/epilogue coverage check);
* every flow dependence must be serialized def-before-use in the
  flattened order (``V205``);
* scalar def-use chains are replayed through a symbolic store so that a
  use of ``x`` in MI ``m`` of iteration ``g`` — wherever the renaming
  put it — reads exactly the value MI ``def(x)`` produced for the
  iteration the original program would read (``V206``), including the
  live-out copies after the loop;
* an emitted statement that is neither an MI instance nor a pure
  bookkeeping copy is ``V207``.

Result shapes the replay cannot decide (symbolic bounds behind a
runtime guard, reduction-lane splits whose header was rewritten) are
skipped with an ``N208`` note, never a false error.
"""

from __future__ import annotations

import gc
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.ddg import DependenceGraph, build_ddg
from repro.analysis.loopinfo import LoopInfo
from repro.core.slms import SLMSResult
from repro.lang.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Decl,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    If,
    IntLit,
    Node,
    ParGroup,
    Stmt,
    Ternary,
    UnaryOp,
    Var,
    While,
)
from repro.lang.visitors import collect_vars, fold_constants, substitute_expr, walk
from repro.verify.diagnostics import Diagnostic, DiagnosticBag, has_errors

# Flattening budgets: far above anything the corpus produces (the
# largest workloads run a few thousand statement instances), but they
# keep a pathological input from hanging the validator.
_MAX_EVENTS = 500_000
_MAX_LOOP_ITERS = 1_000_000

# Cap per-code reports so one systematic corruption doesn't emit
# thousands of identical diagnostics.
_MAX_REPORTS_PER_CODE = 5


@dataclass
class ValidationReport:
    """Outcome of validating one :class:`SLMSResult`."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    events: int = 0
    matched: int = 0
    structural: bool = False  # did the layer-2 replay run?

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)


# ---------------------------------------------------------------------------
# Expression evaluation over a concrete integer environment
# ---------------------------------------------------------------------------


def _eval_int(expr: Expr, env: Dict[str, int]) -> Optional[int]:
    """Evaluate an integer expression; ``None`` when not statically known."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Var):
        return env.get(expr.name)
    if isinstance(expr, UnaryOp):
        inner = _eval_int(expr.operand, env)
        if inner is None:
            return None
        if expr.op == "-":
            return -inner
        if expr.op == "+":
            return inner
        if expr.op == "!":
            return 0 if inner else 1
        return None
    if isinstance(expr, BinOp):
        left = _eval_int(expr.left, env)
        right = _eval_int(expr.right, env)
        if left is None or right is None:
            return None
        op = expr.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "<":
            return int(left < right)
        if op == "<=":
            return int(left <= right)
        if op == ">":
            return int(left > right)
        if op == ">=":
            return int(left >= right)
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        return None
    return None


def _instance(stmt: Stmt, var: str, value: Optional[int]) -> Stmt:
    """``stmt`` with loop variable ``var`` bound to ``value`` (left free
    when ``None``) and integer constants folded.

    The rewriters never mutate their input, and with ``reuse`` the
    instance shares unchanged interior nodes with ``stmt`` — safe
    because replay treats every tree as read-only, and it makes the
    canonical-key memo hit across iterations.
    """
    if value is None:
        return fold_constants(stmt, reuse=True)  # type: ignore[return-value]
    return substitute_expr(stmt, var, IntLit(value), reuse=True)  # type: ignore[return-value]


class _FlattenBailout(Exception):
    """The statement list cannot be concretely replayed."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def _flatten(stmts: List[Stmt], var: str, env: Dict[str, int], out: List[Stmt]) -> None:
    """Unroll the emitted statement list into concrete statement events.

    Assignments to the loop variable are bookkeeping (they advance
    ``env``); everything else is emitted with the loop variable folded
    to its current value.
    """
    for stmt in stmts:
        if isinstance(stmt, ParGroup):
            _flatten(stmt.stmts, var, env, out)
        elif isinstance(stmt, Decl):
            continue  # hoisted declarations carry no schedule content
        elif isinstance(stmt, Assign) and isinstance(stmt.target, Var) and stmt.target.name == var:
            value = _eval_int(stmt.expanded_value(), env)
            if value is None:
                raise _FlattenBailout(
                    f"loop variable {var!r} assigned a non-constant value"
                )
            env[var] = value
        elif isinstance(stmt, For):
            if not isinstance(stmt.init, Assign) or not isinstance(stmt.init.target, Var):
                raise _FlattenBailout("emitted loop has a non-assignment init")
            init_val = _eval_int(stmt.init.expanded_value(), env)
            if init_val is None:
                raise _FlattenBailout("emitted loop bound is not statically known")
            env[stmt.init.target.name] = init_val
            iters = 0
            while True:
                cond = _eval_int(stmt.cond, env) if stmt.cond is not None else 1
                if cond is None:
                    raise _FlattenBailout("emitted loop condition is not static")
                if not cond:
                    break
                iters += 1
                if iters > _MAX_LOOP_ITERS:
                    raise _FlattenBailout("flattening iteration budget exceeded")
                _flatten(stmt.body, var, env, out)
                if stmt.step is not None:
                    _flatten([stmt.step], var, env, out)
        elif isinstance(stmt, If):
            cond = _eval_int(stmt.cond, env)
            if cond is None:
                raise _FlattenBailout("emitted guard condition is not static")
            _flatten(stmt.then if cond else stmt.els, var, env, out)
        elif isinstance(stmt, While):
            raise _FlattenBailout("emitted while loop cannot be replayed")
        else:
            out.append(_instance(stmt, var, env.get(var)))
            if len(out) > _MAX_EVENTS:
                raise _FlattenBailout("flattening event budget exceeded")


# ---------------------------------------------------------------------------
# Canonical keys and strict unification (renaming-aware matching)
# ---------------------------------------------------------------------------


def _canon(
    node: Node,
    wildcard_arrays: Set[str],
    memo: Optional[Dict[int, object]] = None,
) -> object:
    """Rename-insensitive structural key: scalars (and renamed arrays)
    collapse to a wildcard; literals, operators, and original array
    names stay, which is where the matching selectivity comes from.

    ``memo`` maps ``id(node)`` to its key.  The rewriters share
    unchanged subtrees between instances, so one matching session
    canonicalizes the same subtree objects many times over; a shared
    memo turns those into O(1) lookups.  Only valid while every
    canonicalized root stays referenced (ids must not be recycled) —
    callers keep instances/events alive for the whole session.  The
    leaves are answered before the memo: their keys cost less to build
    than to look up.
    """
    kind = type(node)
    if kind is Var:
        return "□"
    if kind is IntLit:
        return ("i", node.value)
    if memo is not None:
        hit = memo.get(id(node))
        if hit is not None:
            return hit
        res = _canon_compute(node, wildcard_arrays, memo)
        memo[id(node)] = res
        return res
    return _canon_compute(node, wildcard_arrays, None)


def _canon_compute(
    node: Node,
    wildcard_arrays: Set[str],
    memo: Optional[Dict[int, object]],
) -> object:
    kind = type(node)
    if kind is FloatLit:
        return ("f", repr(node.value))
    if kind is ArrayRef:
        if node.name in wildcard_arrays:
            return "□"
        return ("ref", node.name, tuple(_canon(i, wildcard_arrays, memo) for i in node.indices))
    if kind is BinOp:
        return ("b", node.op, _canon(node.left, wildcard_arrays, memo), _canon(node.right, wildcard_arrays, memo))
    if kind is UnaryOp:
        return ("u", node.op, _canon(node.operand, wildcard_arrays, memo))
    if kind is Ternary:
        return (
            "t",
            _canon(node.cond, wildcard_arrays, memo),
            _canon(node.then, wildcard_arrays, memo),
            _canon(node.els, wildcard_arrays, memo),
        )
    if kind is Call:
        return ("call", node.name, tuple(_canon(a, wildcard_arrays, memo) for a in node.args))
    if kind is Assign:
        return (
            "=",
            node.op,
            _canon(node.target, wildcard_arrays, memo),
            _canon(node.value, wildcard_arrays, memo),
        )
    if kind is If:
        return (
            "if",
            _canon(node.cond, wildcard_arrays, memo),
            tuple(_canon(s, wildcard_arrays, memo) for s in node.then),
            tuple(_canon(s, wildcard_arrays, memo) for s in node.els),
        )
    if kind is ExprStmt:
        return ("e", _canon(node.expr, wildcard_arrays, memo))
    if kind is ParGroup:
        return ("par", tuple(_canon(s, wildcard_arrays, memo) for s in node.stmts))
    return ("?", kind.__name__)


# A concrete storage location in the replayed program:
#   ("s", name)        — a scalar
#   ("e", arr, index)  — one array element (constant index)
#   ("a", arr)         — an array summary (index not statically known)
Location = Tuple


@dataclass
class _Bindings:
    """Scalar occurrences of one matched statement instance."""

    uses: List[Tuple[str, Location]] = field(default_factory=list)
    defs: List[Tuple[str, Location]] = field(default_factory=list)


def _event_location(node: Expr) -> Optional[Location]:
    if isinstance(node, Var):
        return ("s", node.name)
    if isinstance(node, ArrayRef):
        if len(node.indices) == 1 and isinstance(node.indices[0], IntLit):
            return ("e", node.name, node.indices[0].value)
        return ("a", node.name)
    return None


def _rename_admits(
    ev_name: str, pat_name: str, origins: Optional[Dict[str, str]]
) -> bool:
    """May rename ``ev_name`` stand for pattern scalar ``pat_name``?

    With provenance (``SLMSResult.renames``) a rename only matches the
    scalar it was created for — ``s1`` (a rotation of ``s``) never
    unifies against ``t``.  Without provenance (older pickled results)
    any rename is admitted, as before.
    """
    if not origins:
        return True
    origin = origins.get(ev_name)
    return origin is None or origin == pat_name


def _unify(
    pat: Node,
    ev: Node,
    rename_scalars: Set[str],
    rename_arrays: Set[str],
    bindings: _Bindings,
    role: str = "use",
    origins: Optional[Dict[str, str]] = None,
) -> bool:
    """Match one emitted node against an instantiated MI pattern.

    A pattern scalar may appear in the event either under its own name,
    under an expansion rename (MVE rotation names bind per occurrence —
    a def and a previous-iteration use of the same scalar legitimately
    land in *different* rotated names), or as an element of a
    scalar-expansion array.  Which value those locations hold is not
    decided here; the store replay checks that afterwards.

    Dispatch is on the exact node class (no AST node class is
    subclassed), so a pattern and an event of different classes never
    unify.
    """
    kind = type(pat)
    if kind is Var:
        ev_kind = type(ev)
        if ev_kind is Var and (
            ev.name == pat.name
            or (
                ev.name in rename_scalars
                and _rename_admits(ev.name, pat.name, origins)
            )
        ):
            loc = _event_location(ev)
        elif ev_kind is ArrayRef and ev.name in rename_arrays and (
            _rename_admits(ev.name, pat.name, origins)
        ):
            loc = _event_location(ev)
        else:
            return False
        assert loc is not None
        (bindings.defs if role == "def" else bindings.uses).append((pat.name, loc))
        return True
    if kind is IntLit:
        return type(ev) is IntLit and ev.value == pat.value
    if kind is FloatLit:
        return type(ev) is FloatLit and ev.value == pat.value
    if kind is ArrayRef:
        if type(ev) is not ArrayRef or ev.name != pat.name:
            return False
        if len(ev.indices) != len(pat.indices):
            return False
        return all(
            _unify(p, e, rename_scalars, rename_arrays, bindings, origins=origins)
            for p, e in zip(pat.indices, ev.indices)
        )
    if kind is BinOp:
        return (
            type(ev) is BinOp
            and ev.op == pat.op
            and _unify(pat.left, ev.left, rename_scalars, rename_arrays, bindings, origins=origins)
            and _unify(pat.right, ev.right, rename_scalars, rename_arrays, bindings, origins=origins)
        )
    if kind is UnaryOp:
        return (
            type(ev) is UnaryOp
            and ev.op == pat.op
            and _unify(pat.operand, ev.operand, rename_scalars, rename_arrays, bindings, origins=origins)
        )
    if kind is Ternary:
        return (
            type(ev) is Ternary
            and _unify(pat.cond, ev.cond, rename_scalars, rename_arrays, bindings, origins=origins)
            and _unify(pat.then, ev.then, rename_scalars, rename_arrays, bindings, origins=origins)
            and _unify(pat.els, ev.els, rename_scalars, rename_arrays, bindings, origins=origins)
        )
    if kind is Call:
        return (
            type(ev) is Call
            and ev.name == pat.name
            and len(ev.args) == len(pat.args)
            and all(
                _unify(p, e, rename_scalars, rename_arrays, bindings, origins=origins)
                for p, e in zip(pat.args, ev.args)
            )
        )
    if kind is Assign:
        if type(ev) is not Assign or ev.op != pat.op:
            return False
        if type(pat.target) is Var:
            if not _unify(
                pat.target, ev.target, rename_scalars, rename_arrays, bindings, role="def", origins=origins
            ):
                return False
            if pat.op is not None:
                # A compound assign reads the old value of its target;
                # record that as a use at the same location.
                bindings.uses.append((pat.target.name, bindings.defs[-1][1]))
        else:
            if not _unify(pat.target, ev.target, rename_scalars, rename_arrays, bindings, origins=origins):
                return False
        return _unify(pat.value, ev.value, rename_scalars, rename_arrays, bindings, origins=origins)
    if kind is If:
        return (
            type(ev) is If
            and len(ev.then) == len(pat.then)
            and len(ev.els) == len(pat.els)
            and _unify(pat.cond, ev.cond, rename_scalars, rename_arrays, bindings, origins=origins)
            and all(
                _unify(p, e, rename_scalars, rename_arrays, bindings, origins=origins)
                for p, e in zip(pat.then, ev.then)
            )
            and all(
                _unify(p, e, rename_scalars, rename_arrays, bindings, origins=origins)
                for p, e in zip(pat.els, ev.els)
            )
        )
    if kind is ExprStmt:
        return type(ev) is ExprStmt and _unify(
            pat.expr, ev.expr, rename_scalars, rename_arrays, bindings
        )
    return False


def _is_pure_copy(stmt: Stmt) -> Optional[Tuple[Location, Optional[Expr]]]:
    """Bookkeeping copy shape: ``loc = loc`` or ``loc = literal``.

    Returns ``(target_location, source_expr)``; source ``None`` is never
    returned — literals pass through as the expression itself.
    """
    if not isinstance(stmt, Assign) or stmt.op is not None:
        return None
    target = _event_location(stmt.target)
    if target is None or target[0] == "a":
        return None
    if isinstance(stmt.value, (Var, IntLit, FloatLit)):
        return target, stmt.value
    if isinstance(stmt.value, ArrayRef) and _event_location(stmt.value) is not None:
        return target, stmt.value
    return None


# ---------------------------------------------------------------------------
# The validator
# ---------------------------------------------------------------------------


def _scalar_def_mis(mis: List[Stmt]) -> Tuple[Dict[str, int], Set[str]]:
    """Map each scalar to its unique defining MI.

    Scalars with several defining MIs or with defs nested under control
    flow go into the exempt set: the linear store replay cannot predict
    their values, and (by construction) the expansions never rename
    them, so skipping their checks loses nothing.
    """
    def_mi: Dict[str, int] = {}
    exempt: Set[str] = set()
    for m, stmt in enumerate(mis):
        plain: Set[str] = set()
        if isinstance(stmt, Assign) and isinstance(stmt.target, Var):
            plain.add(stmt.target.name)
            # A pure scalar-to-scalar copy MI (a fuzzer shape like
            # ``s2 = s`` surviving multi-def renaming) is structurally
            # indistinguishable from the expansions' bookkeeping
            # copies, so the store replay cannot attribute either
            # name's value reliably: exempt both ends.
            if stmt.op is None and isinstance(stmt.value, Var):
                exempt.add(stmt.target.name)
                exempt.add(stmt.value.name)
        for node in walk(stmt):
            if isinstance(node, If):
                for inner in list(node.then) + list(node.els):
                    for sub in walk(inner):
                        if isinstance(sub, Assign) and isinstance(sub.target, Var):
                            exempt.add(sub.target.name)
        for name in plain:
            if name in def_mi:
                exempt.add(name)
            else:
                def_mi[name] = m
    return def_mi, exempt


class _Capped:
    """Per-code diagnostic limiter."""

    def __init__(self, bag: DiagnosticBag):
        self.bag = bag
        self.counts: Dict[str, int] = {}

    def error(self, code: str, message: str) -> None:
        seen = self.counts.get(code, 0)
        self.counts[code] = seen + 1
        if seen < _MAX_REPORTS_PER_CODE:
            self.bag.error(code, None, message)
        elif seen == _MAX_REPORTS_PER_CODE:
            self.bag.note(
                "N208", None, f"further {code} reports suppressed"
            )


class _CollectorPause:
    """Pause CPython's cyclic garbage collector while any thread is
    inside; re-entrant and shared across threads.

    The replay keeps tens of thousands of AST nodes, tuples, lists and
    dicts alive at once, and every allocation counts towards the
    collector's thresholds, so an unpaused replay runs generation-0
    collections by the hundred and, now and then, a full collection
    over the whole heap — about a third of the validator's time.  None
    of it finds garbage: the replay builds only acyclic trees, which
    reference counting frees as soon as the last reference drops.
    Pausing is therefore safe.  Cycles that other threads create
    meanwhile are not lost, only deferred until no validation is in
    flight: the allocation counts keep growing while paused, so the
    first allocation after the last exit starts the collection they
    would have started.  While validations keep overlapping (concurrent
    verify requests on ``slms serve --no-isolation`` handler threads)
    that deferral has no upper bound.

    ``gc.enable``/``gc.disable`` are process-wide, so a plain
    save/disable/restore per call would leave the collector off when
    two validations interleave.  Instead the first entry saves the
    state and disables, the last exit restores, and a lock guards the
    count.  The fork hooks hold that lock across a fork, so a child
    never inherits a collector switched off by an entry not yet counted
    (or on by an exit not yet done).
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def before_fork(self) -> None:
        self._lock.acquire()

    def after_fork_in_parent(self) -> None:
        self._lock.release()

    def after_fork_in_child(self) -> None:
        # The child runs only the forking thread, which is never inside
        # a validation (the validator does not fork): entries counted
        # for the parent's other threads will never exit here, and the
        # lock arrives held (before_fork took it).
        if self._depth and self._was_enabled:
            gc.enable()
        self._reset()

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()


_COLLECTOR_PAUSE = _CollectorPause()
os.register_at_fork(
    before=_COLLECTOR_PAUSE.before_fork,
    after_in_parent=_COLLECTOR_PAUSE.after_fork_in_parent,
    after_in_child=_COLLECTOR_PAUSE.after_fork_in_child,
)


def validate_result(result: SLMSResult, loop: For) -> ValidationReport:
    """Validate an SLMS outcome against the loop it transformed.

    Declined results validate trivially.  Applied results get the
    layer-1 modulo-constraint check always, and the layer-2 structural
    replay whenever the loop has literal bounds and the result shape is
    replayable (``N208`` notes mark the skips).  The work runs with the
    cyclic collector paused (see :class:`_CollectorPause`).
    """
    with _COLLECTOR_PAUSE:
        return _validate(result, loop)


def _validate(result: SLMSResult, loop: For) -> ValidationReport:
    report = ValidationReport()
    bag = DiagnosticBag()
    if not result.applied:
        return report

    info = LoopInfo.from_for(loop)
    if info is None:
        bag.note("N208", None, "original loop is not canonical; nothing to validate")
        report.diagnostics = bag.diagnostics
        return report
    if getattr(result, "lanes", 0) >= 2:
        bag.note(
            "N208",
            None,
            "reduction-lane split rewrote the loop header; "
            "schedule validation skipped",
        )
        report.diagnostics = bag.diagnostics
        return report

    # ---- layer 1: bookkeeping + modulo constraints ----------------------
    mis = result.final_mis
    n = len(mis)
    ii = result.ii
    if not mis or ii is None:
        bag.error("V202", None, "applied result carries no MIs or no II")
        report.diagnostics = bag.diagnostics
        return report
    if not 1 <= ii < n:
        bag.error("V202", None, f"II={ii} is outside [1, n_mis) for {n} MIs")
    if result.n_mis is not None and result.n_mis != n:
        bag.error(
            "V202", None, f"n_mis={result.n_mis} but {n} final MIs recorded"
        )
    expected_stages = -(-n // ii) if ii >= 1 else None
    if expected_stages is not None and result.stages != expected_stages:
        bag.error(
            "V202",
            None,
            f"stages={result.stages} but ⌈{n}/{ii}⌉ = {expected_stages}",
        )

    graph = build_ddg(mis, info)
    if not graph.precise:
        bag.error(
            "V203",
            None,
            "re-derived dependence graph is imprecise for an applied "
            "result: " + "; ".join(graph.reasons),
        )
    capped = _Capped(bag)
    for edge in graph.edges:
        slack = edge.distance * ii + (edge.dst - edge.src)
        need = 1 if edge.kind == "flow" else 0
        if slack < need:
            capped.error(
                "V201",
                f"{edge.kind} dependence on {edge.var!r} "
                f"MI{edge.src} → MI{edge.dst} <dist={edge.distance}, "
                f"delay={edge.delay}>: slack {edge.distance}·{ii} + "
                f"({edge.dst} − {edge.src}) = {slack} < {need}",
            )

    # ---- layer 2: structural replay ---------------------------------------
    structural_skip: Optional[str] = None
    if info.trip_count is None:
        structural_skip = "symbolic loop bounds (runtime-guarded emission)"
    elif info.lo_const is None:
        structural_skip = "symbolic lower bound"
    if structural_skip is None:
        _structural_replay(result, info, graph, bag, report)
    else:
        bag.note("N208", None, f"structural replay skipped: {structural_skip}")

    report.diagnostics = bag.diagnostics
    return report


def _structural_replay(
    result: SLMSResult,
    info: LoopInfo,
    graph: DependenceGraph,
    bag: DiagnosticBag,
    report: ValidationReport,
) -> None:
    mis = result.final_mis
    trips = info.trip_count
    lo = info.lo_const
    assert trips is not None and lo is not None and result.ii is not None
    capped = _Capped(bag)

    # Names introduced *after* the MIs were fixed (MVE rotations,
    # scalar-expansion arrays) are the only legal renames; anything the
    # MIs themselves mention must match verbatim.
    mentioned: Set[str] = set()
    for mi in mis:
        mentioned |= collect_vars(mi)
        mentioned |= {node.name for node in walk(mi) if isinstance(node, ArrayRef)}
    rename_scalars = set(result.new_scalars) - mentioned
    rename_arrays = {d.name for d in result.new_decls if d.dims} - mentioned
    # Rename provenance (rotation name -> rotated scalar): lets unify
    # reject a rename of one scalar standing in for another.
    origins: Dict[str, str] = dict(getattr(result, "renames", {}) or {})

    # ---- flatten ---------------------------------------------------------
    events: List[Stmt] = []
    try:
        _flatten(list(result.stmts), info.var, {}, events)
    except _FlattenBailout as exc:
        bag.note("N208", None, f"structural replay skipped: {exc.reason}")
        return
    report.events = len(events)
    report.structural = True

    # ---- index every MI instance by canonical key -----------------------
    # The memos live exactly as long as the trees they key (instances /
    # events hold every root for the whole session), so id-keyed
    # lookups are safe; instances share subtrees across iterations,
    # which is where the memo pays off.
    mi_memo: Dict[int, object] = {}
    event_memo: Dict[int, object] = {}
    no_wildcards: Set[str] = set()
    instances: Dict[Tuple[int, int], Stmt] = {}
    index: Dict[object, List[Tuple[int, int]]] = {}
    for m, mi in enumerate(mis):
        if info.var in collect_vars(mi):
            for g in range(trips):
                inst = _instance(mi, info.var, lo + g * info.step)
                instances[(m, g)] = inst
                index.setdefault(_canon(inst, no_wildcards, mi_memo), []).append((m, g))
        else:
            inst = _instance(mi, info.var, None)
            key = _canon(inst, no_wildcards, mi_memo)
            for g in range(trips):
                instances[(m, g)] = inst
                index.setdefault(key, []).append((m, g))

    # ---- match events, replaying the store as we go ---------------------
    def_mi, exempt = _scalar_def_mis(mis)

    def expected_tag(name: str, m: int, g: int) -> Tuple:
        d = def_mi.get(name)
        if d is None:
            return ("init", name)
        # Uses at or before the defining MI read the previous iteration.
        read_iter = g if m > d else g - 1
        if read_iter < 0:
            return ("init", name)
        return ("def", name, read_iter)

    store: Dict[Location, Tuple] = {}

    def read(loc: Location) -> Tuple:
        return store.get(loc, ("init", loc[1] if loc[0] == "s" else loc))

    claimed: Set[Tuple[int, int]] = set()
    positions: Dict[Tuple[int, int], int] = {}
    per_mi_iters: Dict[int, List[int]] = {m: [] for m in range(len(mis))}

    for pos, event in enumerate(events):
        key = _canon(event, rename_arrays, event_memo)
        # Structurally aliased instances are possible (``A[8] = s`` is
        # both MI3 of iteration 5 and MI4 of iteration 0 when the MIs
        # store the same scalar at offsets 3 and 8), so collect every
        # unifiable candidate and prefer one whose scalar uses agree
        # with the replayed store, falling back to the earliest
        # scheduled one when none is consistent.
        candidates: List[Tuple[int, int, _Bindings]] = []
        for m, g in index.get(key, ()):  # insertion order: (m asc, g asc)
            if (m, g) in claimed:
                continue
            bindings = _Bindings()
            if _unify(
                instances[(m, g)],
                event,
                rename_scalars,
                rename_arrays,
                bindings,
                origins=origins,
            ):
                candidates.append((m, g, bindings))
        if len(candidates) > 1:
            # Rows are emitted in order, oldest iteration first within a
            # row, so try aliased instances in that order: row g·II + m.
            candidates.sort(key=lambda c: (c[1] * result.ii + c[0], c[1]))
        match: Optional[Tuple[int, int, _Bindings]] = None
        for m, g, bindings in candidates:
            if all(
                read(loc) == expected_tag(name, m, g)
                for name, loc in bindings.uses
                if name not in exempt and name != info.var and loc[0] != "a"
            ):
                match = (m, g, bindings)
                break
        if match is None and candidates:
            match = candidates[0]
        if match is None:
            copy = _is_pure_copy(event)
            if copy is None:
                capped.error(
                    "V207",
                    f"emitted statement #{pos} matches no MI instance "
                    "and is not a bookkeeping copy",
                )
            else:
                target, source = copy
                src_loc = _event_location(source)  # type: ignore[arg-type]
                if src_loc is None:
                    store[target] = ("const",)
                else:
                    store[target] = read(src_loc)
            continue

        m, g, bindings = match
        claimed.add((m, g))
        positions[(m, g)] = pos
        per_mi_iters[m].append(g)
        report.matched += 1
        for name, loc in bindings.uses:
            if name in exempt or name == info.var or loc[0] == "a":
                continue
            want = expected_tag(name, m, g)
            got = read(loc)
            if got != want:
                capped.error(
                    "V206",
                    f"MI{m} iteration {g} reads {name!r} from "
                    f"{loc}: holds {got}, expected {want}",
                )
        for name, loc in bindings.defs:
            if loc[0] == "a":
                continue
            store[loc] = ("def", name, g)

    # ---- iteration-space coverage ---------------------------------------
    want_iters = list(range(trips))
    for m, iters in per_mi_iters.items():
        if sorted(iters) != want_iters:
            missing = sorted(set(want_iters) - set(iters))
            extra = sorted(set(iters) - set(want_iters))
            dups = sorted({g for g in iters if iters.count(g) > 1})
            detail = []
            if missing:
                detail.append(f"missing {missing[:6]}")
            if extra:
                detail.append(f"out-of-space {extra[:6]}")
            if dups:
                detail.append(f"duplicated {dups[:6]}")
            capped.error(
                "V204",
                f"MI{m} covers {len(iters)} of {trips} iterations: "
                + "; ".join(detail),
            )

    # ---- flow-dependence serialization -----------------------------------
    # Only array-carried flow edges: a scalar flow edge's value may
    # legally cross rows through an expansion copy (that is what MVE
    # renaming is *for*), and the store replay above already pins every
    # scalar read to the right iteration's definition.
    array_names = {
        node.name for mi in mis for node in walk(mi) if isinstance(node, ArrayRef)
    }
    for edge in graph.edges:
        if edge.kind != "flow" or edge.var not in array_names:
            continue
        violated = 0
        for g in range(trips - edge.distance):
            a = positions.get((edge.src, g))
            b = positions.get((edge.dst, g + edge.distance))
            if a is not None and b is not None and a >= b:
                violated += 1
        if violated:
            capped.error(
                "V205",
                f"flow dependence on {edge.var!r} MI{edge.src} → "
                f"MI{edge.dst} <dist={edge.distance}> runs use before "
                f"def in {violated} iteration(s)",
            )

    # ---- live-out consistency --------------------------------------------
    for name in sorted(def_mi):
        if name in exempt or name == info.var:
            continue
        got = read(("s", name))
        want = ("def", name, trips - 1)
        if got != want:
            capped.error(
                "V206",
                f"live-out value of {name!r} is {got}, expected {want} "
                "(last iteration's definition)",
            )
