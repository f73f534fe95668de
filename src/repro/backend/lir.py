"""Low-level IR: three-address code over virtual registers.

Instructions
------------

===========  =======================  =============================
op           operands                 meaning
===========  =======================  =============================
``movi``     dst, imm                 dst ← constant
``mov``      dst, (a,)                dst ← a
``add…mod``  dst, (a, b)              integer arithmetic (C semantics)
``fadd…``    dst, (a, b)              IEEE double arithmetic
``fma``      dst, (a, b, c)           dst ← a·b + c (same rounding as
                                      the unfused pair — see codegen)
``neg/fneg`` dst, (a,)                negation
``lt…ne``    dst, (a, b)              comparison, yields 0/1
``and/or``   dst, (a, b)              logical on 0/1 values
``not``      dst, (a,)                logical negation
``ld``       dst, (idx?,), array+disp dst ← array[idx + disp]
``st``       (val, idx?), array+disp  array[idx + disp] ← val
``select``   dst, (c, a, b)           dst ← c ? a : b
``sqrt`` …   dst, (a,…)               math intrinsics
``br``       label                    unconditional jump
``brf``      (c,), label              jump when c == 0
``call``     dst?, (args…), name      opaque call (barrier)
===========  =======================  =============================

``ld``/``st`` may omit the index register (``None``) for a constant
address (``disp`` only).  ``iv`` annotations carry the induction
variable affinity (coefficient, offset) of the address when the codegen
could prove it — the machine-level modulo scheduler depends on them.

A :class:`Module` is a list of named :class:`Block`\\ s with fallthrough
order plus array metadata and the scalar→register binding map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

INT_ARITH = ("add", "sub", "mul", "div", "mod")
FLOAT_ARITH = ("fadd", "fsub", "fmul", "fdiv")
COMPARES = ("lt", "le", "gt", "ge", "eq", "ne")
LOGICALS = ("and", "or", "not")
INTRINSICS = (
    "sqrt",
    "fabs",
    "iabs",
    "fmin",
    "fmax",
    "imin",
    "imax",
    "exp",
    "log",
    "sin",
    "cos",
    "powr",
    "floorr",
    "ceilr",
)
ALL_OPS = (
    ("movi", "mov", "neg", "fneg", "ld", "st", "select", "br", "brf", "call")
    + INT_ARITH
    + FLOAT_ARITH
    + COMPARES
    + LOGICALS
    + INTRINSICS
)


# op → functional-unit class; ops absent here are "alu".  Integer
# multiply shares the multiplier with the float ops.
_OP_CLASS = {
    "ld": "mem", "st": "mem",
    "fadd": "fadd", "fsub": "fadd", "fneg": "fadd",
    "fmul": "fmul", "fma": "fmul", "mul": "fmul",
    "fdiv": "div", "div": "div", "mod": "div", "sqrt": "div",
    "exp": "div", "log": "div", "sin": "div", "cos": "div",
    "powr": "div",
    "br": "branch", "brf": "branch", "brt": "branch", "call": "branch",
}


@dataclass
class IVInfo:
    """Address affinity: ``address = coeff · iv + offset`` (elements,
    row-major flattened); ``iv`` is the loop variable's register."""

    iv: str
    coeff: int
    offset: int


@dataclass
class Instr:
    """One LIR instruction."""

    op: str
    dst: Optional[str] = None
    srcs: Tuple[str, ...] = ()
    imm: Optional[object] = None  # int or float constant
    array: Optional[str] = None
    disp: int = 0
    label: Optional[str] = None
    name: Optional[str] = None  # call target
    iv: Optional[IVInfo] = None

    def op_class(self) -> str:
        """Functional-unit class for scheduling and energy accounting."""
        return _OP_CLASS.get(self.op, "alu")

    def reads(self) -> Tuple[str, ...]:
        return self.srcs

    def writes(self) -> Optional[str]:
        return self.dst

    def is_branch(self) -> bool:
        return self.op in ("br", "brf", "brt")

    def encoding(self) -> str:
        """Every field, as the text the content keys hash.

        The one per-instruction encoding behind both
        ``module_fingerprint`` (the simulate tier's key) and the IMS
        memo's body key, so the two cannot drift apart.  ``repr`` keeps
        int and float immediates distinct (``1`` vs ``1.0``).
        """
        iv = (self.iv.iv, self.iv.coeff, self.iv.offset) if self.iv else None
        return (
            f"\x1e{self.op}\x1f{self.dst}\x1f{list(self.srcs)}\x1f{self.imm!r}"
            f"\x1f{self.array}\x1f{self.disp}\x1f{self.label}\x1f{self.name}"
            f"\x1f{iv}"
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op]
        if self.dst:
            parts.append(self.dst)
        if self.srcs:
            parts.append("(" + ", ".join(self.srcs) + ")")
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.array:
            parts.append(f"{self.array}+{self.disp}")
        if self.label:
            parts.append(f"-> {self.label}")
        if self.name:
            parts.append(f"@{self.name}")
        return " ".join(parts)


@dataclass
class Block:
    """A basic block; control leaves via the trailing branch(es) or by
    falling through to the next block in module order."""

    name: str
    instrs: List[Instr] = field(default_factory=list)
    # Filled by the scheduler:
    schedule: Optional[List[List[int]]] = None  # cycles -> instr indices
    schedule_length: int = 0
    # Filled by IMS when this block is a pipelined loop body:
    ims_ii: Optional[int] = None

    def emit(self, instr: Instr) -> Instr:
        self.instrs.append(instr)
        return instr

    def midblock_branch(self) -> Optional[int]:
        """Position of a conditional branch with live code after it.

        ``None`` when every ``brf``/``brt`` that can execute is the
        block's last instruction (code after an unconditional ``br`` is
        dead).  Then both outcomes of the branch run the same
        instructions, so every execution of the block has the same
        instruction mix — the invariant the simulator's per-block
        profiles rely on, checked as V217.
        """
        last = len(self.instrs) - 1
        for pos, instr in enumerate(self.instrs):
            if instr.op == "br":
                return None
            if instr.op in ("brf", "brt") and pos != last:
                return pos
        return None

    def successors(self, next_block: Optional[str]) -> List[str]:
        succs: List[str] = []
        for instr in self.instrs:
            if instr.op in ("brf", "brt"):
                succs.append(instr.label)  # type: ignore[arg-type]
            elif instr.op == "br":
                succs.append(instr.label)  # type: ignore[arg-type]
                return succs
        if next_block is not None:
            succs.append(next_block)
        return succs


@dataclass
class LoopDesc:
    """An innermost source loop after codegen (an IMS candidate)."""

    cond_block: str
    body_block: str
    iv_reg: str
    step: int


@dataclass
class Module:
    """A compiled program."""

    blocks: Dict[str, Block] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)
    entry: str = "entry"
    arrays: Dict[str, Tuple[Tuple[int, ...], str]] = field(default_factory=dict)
    scalar_regs: Dict[str, str] = field(default_factory=dict)
    scalar_types: Dict[str, str] = field(default_factory=dict)
    # Filled by register allocation for scalars living in spill slots.
    scalar_slots: Dict[str, int] = field(default_factory=dict)
    loops: List[LoopDesc] = field(default_factory=list)
    n_vregs: int = 0

    def new_block(self, name: str, after: Optional[str] = None) -> Block:
        """Create a block; ``after`` positions it in fallthrough order
        (immediately after the named block) instead of at the end."""
        if name in self.blocks:
            raise ValueError(f"duplicate block {name!r}")
        block = Block(name)
        self.blocks[name] = block
        if after is None:
            self.order.append(name)
        else:
            self.order.insert(self.order.index(after) + 1, name)
        return block

    def next_of(self, name: str) -> Optional[str]:
        idx = self.order.index(name)
        return self.order[idx + 1] if idx + 1 < len(self.order) else None

    def all_instrs(self) -> List[Instr]:
        out: List[Instr] = []
        for name in self.order:
            out.extend(self.blocks[name].instrs)
        return out

    def dump(self) -> str:  # pragma: no cover - debugging aid
        lines = []
        for name in self.order:
            lines.append(f"{name}:")
            for instr in self.blocks[name].instrs:
                lines.append(f"    {instr}")
        return "\n".join(lines)
