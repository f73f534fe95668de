"""Linear-scan register allocation with spilling.

Virtual registers are mapped onto the machine's architected register
file (minus a small scratch reserve used by spill reloads).  Intervals
come from block-level liveness (so values live around loop back edges
get whole-loop intervals), allocation is Poletto–Sarkar linear scan,
and spilled values live in the ``__spill`` pseudo-array — which means
spill traffic shows up as *memory operations* in the scheduler, cache
model and energy accounting.  That is precisely the mechanism behind
the paper's Pentium kernel-10 regression: MVE raises live-range counts
past 8 registers and the spill loads/stores eat the SLMS gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.backend.lir import Instr, Module

# Registers reserved for spill-reload scratch (cycled within one instr).
SCRATCH_COUNT = 3


class RegAllocError(Exception):
    """The machine has too few registers even for scratch."""


@dataclass
class AllocationResult:
    """Statistics for reporting and tests."""

    n_vregs: int
    n_spilled: int
    spill_slots: int
    max_pressure: int
    # Blocks where spill loads/stores were inserted: their pre-RA
    # schedules are stale and must be rebuilt.
    touched_blocks: List[str] = field(default_factory=list)


def _block_liveness(module: Module) -> Dict[str, Tuple[Set[str], Set[str]]]:
    """Per-block (live_in, live_out) over virtual registers."""
    use: Dict[str, Set[str]] = {}
    defs: Dict[str, Set[str]] = {}
    for name in module.order:
        block = module.blocks[name]
        u: Set[str] = set()
        d: Set[str] = set()
        for instr in block.instrs:
            for src in instr.srcs:
                if src not in d:
                    u.add(src)
            if instr.dst is not None:
                d.add(instr.dst)
        use[name] = u
        defs[name] = d

    live_in: Dict[str, Set[str]] = {n: set() for n in module.order}
    live_out: Dict[str, Set[str]] = {n: set() for n in module.order}
    changed = True
    while changed:
        changed = False
        for name in reversed(module.order):
            block = module.blocks[name]
            succs = block.successors(module.next_of(name))
            out: Set[str] = set()
            for s in succs:
                out |= live_in[s]
            inn = use[name] | (out - defs[name])
            if out != live_out[name] or inn != live_in[name]:
                live_out[name] = out
                live_in[name] = inn
                changed = True
    return {n: (live_in[n], live_out[n]) for n in module.order}


def _intervals(module: Module) -> Dict[str, Tuple[int, int]]:
    """Live interval per vreg over the linearized instruction index."""
    liveness = _block_liveness(module)
    intervals: Dict[str, Tuple[int, int]] = {}

    def extend(reg: str, pos: int) -> None:
        lo, hi = intervals.get(reg, (pos, pos))
        intervals[reg] = (min(lo, pos), max(hi, pos))

    index = 0
    for name in module.order:
        block = module.blocks[name]
        start = index
        end = index + max(0, len(block.instrs) - 1)
        live_in, live_out = liveness[name]
        # Sorted: set order varies with PYTHONHASHSEED, and the order
        # intervals are first seen breaks ties in the linear scan.
        for reg in sorted(live_in):
            extend(reg, start)
        for reg in sorted(live_out):
            extend(reg, end + 1)
        for instr in block.instrs:
            for src in instr.srcs:
                extend(src, index)
            if instr.dst is not None:
                extend(instr.dst, index)
            index += 1

    # Source scalars are observable program state (and may carry initial
    # values injected from the environment): pin their intervals to the
    # whole program so no other value ever shares their location.
    for vreg in module.scalar_regs.values():
        extend(vreg, 0)
        extend(vreg, index)
    return intervals


def _max_pressure(intervals: Dict[str, Tuple[int, int]]) -> int:
    events: List[Tuple[int, int]] = []
    for lo, hi in intervals.values():
        events.append((lo, 1))
        events.append((hi + 1, -1))
    events.sort()
    current = peak = 0
    for _pos, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


def allocate(module: Module, num_registers: int) -> AllocationResult:
    """Allocate in place: rewrites every block's instructions.

    Scalars whose vreg is spilled are recorded in
    ``module.scalar_slots`` so the interpreter can still extract their
    final values (and inject env bindings).
    """
    if num_registers < SCRATCH_COUNT + 2:
        raise RegAllocError(
            f"need at least {SCRATCH_COUNT + 2} registers, got {num_registers}"
        )
    allocatable = num_registers - SCRATCH_COUNT
    scratch = [f"s{k}" for k in range(SCRATCH_COUNT)]

    intervals = _intervals(module)
    max_pressure = _max_pressure(intervals)

    order = sorted(intervals.items(), key=lambda kv: kv[1][0])
    free = [f"r{k}" for k in range(allocatable)]
    active: List[Tuple[int, str, str]] = []  # (end, vreg, phys)
    assignment: Dict[str, str] = {}
    spilled: Dict[str, int] = {}
    next_slot = 0

    for vreg, (start, end) in order:
        # Expire intervals that ended before this one starts.
        still_active: List[Tuple[int, str, str]] = []
        for entry in active:
            if entry[0] < start:
                free.append(entry[2])
            else:
                still_active.append(entry)
        active = still_active
        if free:
            phys = free.pop()
            assignment[vreg] = phys
            active.append((end, vreg, phys))
            active.sort()
        else:
            # Spill the interval with the furthest end.
            furthest = active[-1]
            if furthest[0] > end:
                # Steal its register; the old owner goes to memory.
                active.pop()
                spilled[furthest[1]] = next_slot
                next_slot += 1
                assignment.pop(furthest[1], None)
                assignment[vreg] = furthest[2]
                active.append((end, vreg, furthest[2]))
                active.sort()
            else:
                spilled[vreg] = next_slot
                next_slot += 1

    # ---- rewrite ---------------------------------------------------------
    touched: List[str] = []
    for name in module.order:
        block = module.blocks[name]
        new_instrs: List[Instr] = []
        n_before = len(block.instrs)
        for instr in block.instrs:
            scratch_cycle = 0
            new_srcs: List[str] = []
            for src in instr.srcs:
                if src in spilled:
                    reg = scratch[scratch_cycle % SCRATCH_COUNT]
                    scratch_cycle += 1
                    new_instrs.append(
                        Instr(op="ld", dst=reg, array="__spill", disp=spilled[src])
                    )
                    new_srcs.append(reg)
                else:
                    new_srcs.append(assignment.get(src, src))
            store_after: Optional[Instr] = None
            new_dst = instr.dst
            if instr.dst is not None:
                if instr.dst in spilled:
                    new_dst = scratch[scratch_cycle % SCRATCH_COUNT]
                    store_after = Instr(
                        op="st",
                        srcs=(new_dst,),
                        array="__spill",
                        disp=spilled[instr.dst],
                    )
                else:
                    new_dst = assignment.get(instr.dst, instr.dst)
            new_iv = instr.iv
            if new_iv is not None:
                if new_iv.iv in spilled:
                    new_iv = None  # the IV lives in memory: drop the affinity
                else:
                    from repro.backend.lir import IVInfo

                    new_iv = IVInfo(
                        iv=assignment.get(new_iv.iv, new_iv.iv),
                        coeff=new_iv.coeff,
                        offset=new_iv.offset,
                    )
            new_instrs.append(
                Instr(
                    op=instr.op,
                    dst=new_dst,
                    srcs=tuple(new_srcs),
                    imm=instr.imm,
                    array=instr.array,
                    disp=instr.disp,
                    label=instr.label,
                    name=instr.name,
                    iv=new_iv,
                )
            )
            if store_after is not None:
                new_instrs.append(store_after)
        block.instrs = new_instrs
        if len(new_instrs) != n_before:
            touched.append(name)

    # ---- fix scalar bindings ------------------------------------------------
    new_scalar_regs: Dict[str, str] = {}
    for sname, vreg in module.scalar_regs.items():
        if vreg in spilled:
            module.scalar_slots[sname] = spilled[vreg]
            new_scalar_regs[sname] = vreg  # placeholder; slot wins
        else:
            new_scalar_regs[sname] = assignment.get(vreg, vreg)
    module.scalar_regs = new_scalar_regs

    return AllocationResult(
        n_vregs=len(intervals),
        n_spilled=len(spilled),
        spill_slots=next_slot,
        max_pressure=max_pressure,
        touched_blocks=touched,
    )
