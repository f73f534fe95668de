"""Which LIR registers and spill slots provably hold an ``int`` or a
``float`` at each block entry.

The reference interpreter (:mod:`repro.sim.lir_interp`) coerces every
arithmetic operand — ``int(a) + int(b)``, ``float(a) * float(b)``.
Coercing a value that already has the target type is the identity, so
the exec-compiled blocks (:mod:`repro.sim.codegen_exec`) leave the call
out wherever this analysis proves the operand's type.

A type map sends a location — a register by name, a spill slot by its
integer displacement — to ``int``, ``float`` or ``None`` (unknown).  A
location absent from the map holds an ``int``: a register or slot that
was never written reads as ``0``.  Types are exact: ``bool``,
``complex`` and numpy scalars (``np.float64`` subclasses ``float``) are
unknown, because coercing them changes the value.

The analysis is forward and flow-sensitive.  It is seeded from the
interpreter's actual initial registers and spill (the run's ``env``)
and solved by :func:`repro.analysis.dataflow.solver.solve` over a
block-level CFG; two paths that disagree on a location's type join to
unknown.  ``None`` in place of a whole map marks a block no path from
the entry reaches.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Optional

from repro.analysis.dataflow.cfg import CFG, CFGNode
from repro.analysis.dataflow.solver import DataflowAnalysis, solve
from repro.backend.lir import Block, Instr, Module

TypeMap = Dict[Hashable, Optional[type]]

# Result type of the ops whose result type does not depend on their
# operands.  ``powr`` is unknown: a negative base to a fractional power
# is complex.
_FIXED_RESULT: Dict[str, Optional[type]] = {
    **dict.fromkeys(
        ("add", "sub", "mul", "div", "mod", "neg", "trunc",
         "lt", "le", "gt", "ge", "eq", "ne", "and", "or", "not"),
        int,
    ),
    **dict.fromkeys(
        ("fadd", "fsub", "fmul", "fdiv", "fma", "fneg",
         "sqrt", "exp", "log", "sin", "cos"),
        float,
    ),
    "powr": None,
    "call": None,
}
_VARIES = object()


def value_type(value: Any) -> Optional[type]:
    """``int`` or ``float`` for a value of exactly that type, else None."""
    kind = type(value)
    return kind if kind is int or kind is float else None


def _put(types: TypeMap, loc: Hashable, kind: Optional[type]) -> None:
    if kind is int:
        types.pop(loc, None)
    else:
        types[loc] = kind


def step(types: TypeMap, instr: Instr, arrays: Mapping[str, Any]) -> None:
    """Apply one instruction's effect to ``types``, in place."""
    dst = instr.dst
    if dst is None:
        if instr.op == "st" and instr.array == "__spill":
            _put(types, instr.disp, types.get(instr.srcs[0], int))
        return
    op = instr.op
    kind = _FIXED_RESULT.get(op, _VARIES)
    if kind is _VARIES:
        srcs = instr.srcs
        if op == "movi":
            kind = value_type(instr.imm)
        elif op == "mov" or op == "vabs":
            kind = types.get(srcs[0], int)
        elif op == "ld":
            if instr.array == "__spill":
                kind = types.get(instr.disp, int)
            else:
                # ``.item()`` of an int64 / float64 buffer.
                kind = int if arrays[instr.array][1] == "int" else float
        elif op == "vmin" or op == "vmax" or op == "select":
            # The result is one of the two value operands.
            kind = types.get(srcs[-2], int)
            if types.get(srcs[-1], int) is not kind:
                kind = None
        elif op == "floorr" or op == "ceilr":
            kind = int if types.get(srcs[0], int) is not None else None
        else:  # an unknown op: it raises if it runs
            kind = None
    if kind is int:
        types.pop(dst, None)
    else:
        types[dst] = kind


def _join(maps: List[Optional[TypeMap]]) -> Optional[TypeMap]:
    """Per location, the common type of the reached maps, else None.
    Maps are never mutated once built, so a lone map is shared."""
    reached = [m for m in maps if m is not None]
    if len(reached) < 2:
        return reached[0] if reached else None
    out = dict(reached[0])
    for other in reached[1:]:
        for loc, kind in other.items():
            if out.get(loc, int) is not kind:
                out[loc] = None
        # Stored types are never int, so these differ from ``other``.
        for loc in out.keys() - other.keys():
            out[loc] = None
    return out


class _TypeFlow(DataflowAnalysis):
    """Forward analysis; CFG node ``k`` (1-based) is ``blocks[k - 1]``."""

    def __init__(self, blocks: List[Block], arrays: Mapping[str, Any],
                 entry: TypeMap):
        self.blocks = blocks
        self.arrays = arrays
        self.entry = entry

    def boundary(self, cfg: CFG) -> TypeMap:
        return self.entry

    def initial(self, cfg: CFG, node: CFGNode) -> None:
        return None

    def join(self, values: List[Optional[TypeMap]]) -> Optional[TypeMap]:
        return _join(values)

    def transfer(self, node: CFGNode, value: Optional[TypeMap]):
        if value is None or node.kind != "block":
            return value
        out = dict(value)
        for instr in self.blocks[node.id - 1].instrs:
            if instr.op == "br":  # the rest of the block is dead
                break
            step(out, instr, self.arrays)
        return out


def block_cfg(module: Module) -> CFG:
    """Block-level CFG: node 0 is the entry, node ``k`` is
    ``module.order[k - 1]``, the last node is the exit.

    Execution starts at the first block in order; edges follow
    :meth:`Block.successors`.  A branch to a label no block has raises
    at run time, so it gets no edge.  The exit node has no edges: a
    forward analysis never reads it.
    """
    order = module.order
    cfg = CFG()
    ids = {name: k for k, name in enumerate(order, start=1)}
    kinds = ["entry"] + ["block"] * len(order) + ["exit"]
    for node_id, kind in enumerate(kinds):
        cfg.nodes.append(CFGNode(node_id, kind))
        cfg.succs[node_id] = []
        cfg.preds[node_id] = []

    def edge(src: int, dst: int) -> None:
        cfg.succs[src].append((dst, None))
        cfg.preds[dst].append((src, None))

    if order:
        edge(0, 1)
    for k, name in enumerate(order, start=1):
        after = order[k] if k < len(order) else None
        for label in module.blocks[name].successors(after):
            if label in ids:
                edge(k, ids[label])
    cfg.entry, cfg.exit = 0, len(kinds) - 1
    return cfg


def block_entry_types(
    module: Module, regs: Mapping[str, Any], spill: Mapping[int, Any]
) -> Dict[str, Optional[TypeMap]]:
    """Type map at each block's entry (None: unreachable), for a run
    that starts from registers ``regs`` and spill slots ``spill``."""
    entry: TypeMap = {}
    for loc, value in list(regs.items()) + list(spill.items()):
        _put(entry, loc, value_type(value))
    blocks = [module.blocks[name] for name in module.order]
    result = solve(block_cfg(module), _TypeFlow(blocks, module.arrays, entry))
    return {
        name: result.value_in(k)
        for k, name in enumerate(module.order, start=1)
    }
