"""Cross-phase IR invariant checker (``V21x`` series).

Every boundary the pipeline's values cross gets an independent
invariant check, so a bug in one phase is caught *at that phase* rather
than as a downstream miscompare:

* **AST → MI partition** (:func:`check_partition`, V210) — the MI list
  must be flat (pure assignments), preserve the loop body's set of
  array stores and scalar definitions, and keep every renamed
  multi-definition web's *final* definition on the original name.
* **Post-SLMS kernel** (:func:`check_kernel`, V211) — every scalar the
  transformation *introduced* (predicates, renamed webs, decomposition
  temporaries, MVE rotation names) must be defined before its first use
  along the emitted prologue → kernel → epilogue order.  Scalars that
  existed in the input may be defined outside the fragment and are not
  judged.
* **LIR** (:func:`check_module`, V212–V217) — opcodes and branch
  targets must be known, register operands must stay inside the virtual
  (``v``), physical (``r``) or scratch (``s``) files for the active
  machine, memory operations must name declared arrays, operand counts
  must match opcode shapes, constant addresses must land inside the
  array extent, and a conditional branch must end its block (the
  simulator's per-block profiles need each block's executed
  instruction mix to be invariant).

:func:`check_result` bundles the source-level checks; it runs inside
``SLMSOptions(verify=True)`` right after the V2xx schedule validator.
All checks are read-only and raise nothing: findings come back as
:class:`~repro.verify.diagnostics.Diagnostic` records.
"""

from __future__ import annotations

import re
from math import prod
from typing import Iterable, List, Optional, Set

from repro.backend.lir import (
    ALL_OPS,
    COMPARES,
    FLOAT_ARITH,
    INT_ARITH,
    Instr,
    Module,
)
from repro.lang.ast_nodes import (
    Assign,
    ArrayRef,
    Decl,
    ExprStmt,
    For,
    If,
    ParGroup,
    Stmt,
    Var,
    While,
)
from repro.lang.visitors import defined_scalars, walk
from repro.machines.model import MachineModel
from repro.obs import get_metrics, get_tracer
from repro.verify.diagnostics import Diagnostic, DiagnosticBag

# The backend emits several opcodes that predate the ALL_OPS registry:
# ``fma`` (multiply-add fusion), ``trunc`` (float-to-int assignment),
# ``brt`` (loop rotation) and the type-polymorphic ``vabs``/``vmin``/
# ``vmax`` intrinsics.
_KNOWN_OPS: Set[str] = set(ALL_OPS) | {
    "fma", "brt", "trunc", "vabs", "vmin", "vmax",
}

_REGISTER = re.compile(r"^(v|r|s)(\d+)$")

# Opcode -> (needs_dst, allowed source arities).
_SHAPES = {
    "movi": (True, (0,)),
    "mov": (True, (1,)),
    "neg": (True, (1,)),
    "fneg": (True, (1,)),
    "not": (True, (1,)),
    "select": (True, (3,)),
    "fma": (True, (3,)),
    "trunc": (True, (1,)),
    "vabs": (True, (1,)),
    "vmin": (True, (2,)),
    "vmax": (True, (2,)),
    "ld": (True, (0, 1)),
    "st": (False, (1, 2)),
    "br": (False, (0,)),
    "brf": (False, (1,)),
    "brt": (False, (1,)),
    "sqrt": (True, (1,)),
    "fabs": (True, (1,)),
    "iabs": (True, (1,)),
    "exp": (True, (1,)),
    "log": (True, (1,)),
    "sin": (True, (1,)),
    "cos": (True, (1,)),
    "floorr": (True, (1,)),
    "ceilr": (True, (1,)),
    "fmin": (True, (2,)),
    "fmax": (True, (2,)),
    "imin": (True, (2,)),
    "imax": (True, (2,)),
    "powr": (True, (2,)),
}
for _op in INT_ARITH + FLOAT_ARITH + COMPARES + ("and", "or"):
    _SHAPES[_op] = (True, (2,))


# ---------------------------------------------------------------------------
# AST -> MI partition (V210)
# ---------------------------------------------------------------------------


def _stored_arrays(stmts: Iterable[Stmt]) -> Set[str]:
    out: Set[str] = set()
    for stmt in stmts:
        for node in walk(stmt):
            if isinstance(node, Assign) and isinstance(
                node.target, ArrayRef
            ):
                out.add(node.target.name)
    return out


def _defined(stmts: Iterable[Stmt]) -> Set[str]:
    out: Set[str] = set()
    for stmt in stmts:
        out |= defined_scalars(stmt)
    return out


def check_partition(result, loop: For) -> List[Diagnostic]:
    """V210: the MI partition covers the loop body exactly once."""
    bag = DiagnosticBag()
    partition = result.partition
    if partition is None:
        return bag.diagnostics
    loc = loop.loc
    for pos, mi in enumerate(partition.mis):
        if isinstance(mi, If):
            # Post-if-conversion residue: a single predicated MI with no
            # else arm is the only control shape a partition may hold.
            if mi.els or len(mi.then) != 1 or not isinstance(
                mi.then[0], (Assign, ExprStmt)
            ):
                bag.error(
                    "V210", getattr(mi, "loc", loc),
                    f"MI {pos} is an unconverted if statement",
                )
        elif not isinstance(mi, (Assign, ExprStmt)):
            bag.error(
                "V210", getattr(mi, "loc", loc),
                f"MI {pos} is a {type(mi).__name__}, not a flat statement",
            )
    body_stores = _stored_arrays(loop.body)
    mi_stores = _stored_arrays(partition.mis)
    for name in sorted(body_stores - mi_stores):
        bag.error(
            "V210", loc,
            f"store to array {name!r} from the loop body is missing "
            "from the MI partition",
        )
    for name in sorted(mi_stores - body_stores):
        bag.error(
            "V210", loc,
            f"MI partition stores to array {name!r} which the loop "
            "body never stores",
        )
    hoisted = {d.name for d in partition.hoisted_decls}
    body_defs = _defined(loop.body) | hoisted
    mi_defs = _defined(partition.mis)
    for name in sorted(body_defs - mi_defs):
        bag.error(
            "V210", loc,
            f"scalar {name!r} is defined by the loop body but by no MI",
        )
    for original, web in partition.renamed.items():
        if original not in mi_defs:
            bag.error(
                "V210", loc,
                f"renamed web of {original!r} lost its final definition "
                "on the original name",
            )
        for fresh in web:
            if fresh != original and fresh not in mi_defs:
                bag.error(
                    "V210", loc,
                    f"renamed definition {fresh!r} (web of {original!r}) "
                    "is defined by no MI",
                )
    return bag.diagnostics


# ---------------------------------------------------------------------------
# post-SLMS kernel (V211)
# ---------------------------------------------------------------------------


def _introduced_scalars(result) -> Set[str]:
    """Names the transformation introduced and must define itself —
    excluding scalar-expansion *arrays* (they are subscripted, not read
    as scalars)."""
    array_names = {d.name for d in result.new_decls if d.dims}
    names = set(result.new_scalars) | set(result.renames)
    return names - array_names


class _DefScan:
    """Linear def-before-use scan over the emitted statement sequence.

    Tracks only the introduced names; a use with no textually earlier
    definition means the first concrete execution reads garbage (the
    prologue covers every earlier-iteration instance, so "textually
    earlier" is exactly "defined at runtime")."""

    def __init__(self, tracked: Set[str], bag: DiagnosticBag):
        self.tracked = tracked
        self.bag = bag
        self.reported: Set[str] = set()

    def scan(self, stmts: Iterable[Stmt], defined: Set[str]) -> Set[str]:
        for stmt in stmts:
            defined = self.scan_stmt(stmt, defined)
        return defined

    def scan_stmt(self, stmt: Stmt, defined: Set[str]) -> Set[str]:
        if isinstance(stmt, ParGroup):
            return self.scan(stmt.stmts, defined)
        if isinstance(stmt, Decl):
            if stmt.init is not None and not stmt.dims:
                return defined | {stmt.name}
            return defined
        if isinstance(stmt, If):
            self.uses(stmt.cond, defined, stmt)
            then_defs = self.scan(stmt.then, set(defined))
            else_defs = self.scan(stmt.els, set(defined))
            return then_defs & else_defs
        if isinstance(stmt, (For, While)):
            if isinstance(stmt, For):
                defined = self.scan_stmt(stmt.init, defined)
            self.uses(stmt.cond, defined, stmt)
            # One pass over the body IS the first concrete kernel
            # iteration; wrap-around uses must be prologue-defined.
            defined = self.scan(stmt.body, defined)
            if isinstance(stmt, For):
                defined = self.scan_stmt(stmt.step, defined)
            return defined
        if isinstance(stmt, Assign):
            self.uses(stmt.expanded_value(), defined, stmt)
            if isinstance(stmt.target, ArrayRef):
                for idx in stmt.target.indices:
                    self.uses(idx, defined, stmt)
                return defined
            if isinstance(stmt.target, Var):
                return defined | {stmt.target.name}
            return defined
        if isinstance(stmt, ExprStmt):
            self.uses(stmt.expr, defined, stmt)
        return defined

    def uses(self, expr, defined: Set[str], stmt: Stmt) -> None:
        if expr is None:
            return
        for node in walk(expr):
            if not isinstance(node, Var):
                continue
            name = node.name
            if (
                name in self.tracked
                and name not in defined
                and name not in self.reported
            ):
                self.reported.add(name)
                self.bag.error(
                    "V211", getattr(stmt, "loc", None),
                    f"introduced scalar {name!r} is read before any "
                    "definition in the emitted prologue/kernel/epilogue",
                )


def check_kernel(result, loop: For) -> List[Diagnostic]:
    """V211: def-before-use for introduced scalars across the emitted
    sequence (renames included)."""
    bag = DiagnosticBag()
    if not result.applied or result.lanes >= 2:
        # Lane-split results rewrite the loop header wholesale; the
        # schedule validator already skips them (N208) for the same
        # reason.
        return bag.diagnostics
    tracked = _introduced_scalars(result)
    if not tracked:
        return bag.diagnostics
    scan = _DefScan(tracked, bag)
    defined: Set[str] = {
        d.name for d in result.new_decls if d.init is not None and not d.dims
    }
    scan.scan(result.stmts, defined)
    return bag.diagnostics


def check_result(result, loop: For) -> List[Diagnostic]:
    """All source-level IR invariants for one applied SLMS result."""
    if not result.applied:
        return []
    diags = check_partition(result, loop) + check_kernel(result, loop)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "ir_check.result",
            findings=len(diags),
            codes=sorted({d.code for d in diags}),
        )
    if diags:
        get_metrics().counter("ir_check.findings").inc(len(diags))
    return diags


# ---------------------------------------------------------------------------
# LIR (V212 - V217)
# ---------------------------------------------------------------------------


def _check_register(
    reg: str, module: Module, machine: Optional[MachineModel],
    bag: DiagnosticBag, where: str,
) -> None:
    match = _REGISTER.match(reg)
    if match is None:
        bag.error("V213", None, f"{where}: malformed register {reg!r}")
        return
    space, index = match.group(1), int(match.group(2))
    if space == "v":
        if not 1 <= index <= max(module.n_vregs, 1):
            bag.error(
                "V213", None,
                f"{where}: virtual register {reg} outside "
                f"v1..v{module.n_vregs}",
            )
    elif machine is not None:
        limit = (
            machine.num_registers if space == "r" else 3  # scratch pool
        )
        if index >= limit:
            bag.error(
                "V213", None,
                f"{where}: register {reg} outside the "
                f"{machine.name} file of {limit} ({space}-space)",
            )


def _check_instr(
    instr: Instr, module: Module, machine: Optional[MachineModel],
    bag: DiagnosticBag, where: str,
) -> None:
    if instr.op not in _KNOWN_OPS:
        bag.error("V212", None, f"{where}: unknown opcode {instr.op!r}")
        return
    shape = _SHAPES.get(instr.op)
    if shape is not None and instr.op != "call":
        needs_dst, arities = shape
        if needs_dst and instr.dst is None:
            bag.error(
                "V215", None,
                f"{where}: {instr.op} must produce a destination",
            )
        if not needs_dst and instr.dst is not None:
            bag.error(
                "V215", None,
                f"{where}: {instr.op} must not write a destination",
            )
        if len(instr.srcs) not in arities:
            bag.error(
                "V215", None,
                f"{where}: {instr.op} takes {arities} source(s), "
                f"got {len(instr.srcs)}",
            )
    if instr.op == "movi" and instr.imm is None:
        bag.error("V215", None, f"{where}: movi without an immediate")
    if instr.op in ("br", "brf", "brt"):
        if instr.label is None or instr.label not in module.blocks:
            bag.error(
                "V212", None,
                f"{where}: branch to unknown block {instr.label!r}",
            )
    if instr.op == "call" and not instr.name:
        bag.error("V215", None, f"{where}: call without a target name")
    for reg in list(instr.srcs) + ([instr.dst] if instr.dst else []):
        _check_register(reg, module, machine, bag, where)
    if instr.op in ("ld", "st"):
        _check_memory(instr, module, bag, where)


def _check_memory(
    instr: Instr, module: Module, bag: DiagnosticBag, where: str
) -> None:
    if instr.array is None:
        bag.error(
            "V215", None, f"{where}: {instr.op} without an array operand"
        )
        return
    if instr.array == "__spill":
        return  # spill slots are sized by the allocator, not declared
    meta = module.arrays.get(instr.array)
    if meta is None:
        bag.error(
            "V214", None,
            f"{where}: {instr.op} names undeclared array {instr.array!r}",
        )
        return
    dims, _elem = meta
    extent = prod(dims)
    # Constant-address accesses (no index register) are fully static.
    has_index = (instr.op == "ld" and len(instr.srcs) == 1) or (
        instr.op == "st" and len(instr.srcs) == 2
    )
    if not has_index and not 0 <= instr.disp < extent:
        bag.error(
            "V216", None,
            f"{where}: constant address {instr.array}+{instr.disp} "
            f"outside extent {extent}",
        )


def check_module(
    module: Module, machine: Optional[MachineModel] = None
) -> List[Diagnostic]:
    """V212-V217 over a compiled module.  ``machine`` enables the
    physical/scratch register-file checks (post-allocation modules)."""
    bag = DiagnosticBag()
    if module.entry not in module.blocks:
        bag.error(
            "V212", None, f"entry block {module.entry!r} does not exist"
        )
    for name in module.order:
        block = module.blocks.get(name)
        if block is None:
            bag.error("V212", None, f"ordered block {name!r} missing")
            continue
        for pos, instr in enumerate(block.instrs):
            _check_instr(
                instr, module, machine, bag, f"{name}[{pos}]"
            )
        pos = block.midblock_branch()
        if pos is not None:
            bag.error(
                "V217", None,
                f"{name}[{pos}]: conditional branch "
                f"{block.instrs[pos].op} before the end of its block",
            )
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "ir_check.module",
            findings=len(bag.diagnostics),
            blocks=len(module.order),
        )
    if bag.diagnostics:
        get_metrics().counter("ir_check.findings").inc(len(bag.diagnostics))
    return bag.diagnostics
