"""Machine-level Iterative Modulo Scheduling (Rau, MICRO'94).

Models the "high performance compiler" half of the paper's comparison:
ICC/XLC run modulo scheduling on the machine code of innermost loops.
We implement the real algorithm — MII = max(ResMII, RecMII), modulo
reservation table, priority-ordered placement with an iteration budget —
*as a timing transformation*: a successfully pipelined loop body is
tagged with its achieved II and the cycle simulator charges II per
iteration instead of the list-scheduled block length.  (Functional
execution keeps the original instruction order; IMS is semantics
preserving, so only the timing claim matters.)

The model deliberately keeps the documented real-world limitations the
paper exploits in §7:

* loops larger than ``machine.ims_max_ops`` are not attempted (§7
  point 1: "compilers restrict MS to small size loops");
* no rewriting of operand iteration indices — placement beyond the
  implied iteration is rejected exactly like Fig. 12's A3/A4 failure;
* an estimated MaxLive above the register file aborts the schedule
  (Fig. 11's register-pressure failure), falling back to list
  scheduling;
* memory ops without provable induction-variable affinity get
  conservative distance-1 dependences, serializing the kernel.

A loop's outcome is a pure function of its body, its step, its list
schedule length, the machine and ``max_ii_factor``, and an experiment
compiles the same bodies again and again: the setup's loops recur in
the setup, base and SLMS programs.  :func:`run_ims` therefore schedules
each distinct body once per process.  Its memo keys a body on every
field of every instruction (:meth:`~repro.backend.lir.Instr.encoding`,
the encoding ``module_fingerprint`` hashes too) together with the rest
of those inputs; it is cleared when it reaches ``_OUTCOMES_LIMIT``
entries, like the simulator's code cache.  A hit hands out a copy of
the stored report, renamed to the current loop, because the final
compiler rewrites its reports in place when spill code invalidates a
schedule.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, replace
from math import ceil
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend.lir import Instr, Module
from repro.machines.model import MachineModel, res_mii_for_counts

# Content key of a loop (body, step, list schedule length, machine,
# max_ii_factor) → the report IMS gave it.  Process-wide, and bounded
# as a backstop against pathological body diversity (fuzzing).  Entries
# are never mutated, so threads that race on it at worst schedule a
# body twice.
_OUTCOMES: Dict[str, "IMSReport"] = {}
_OUTCOMES_LIMIT = 4096


@dataclass
class IMSReport:
    """Outcome of one IMS attempt."""

    loop: str
    attempted: bool
    success: bool
    ii: Optional[int] = None
    res_mii: Optional[int] = None
    rec_mii: Optional[int] = None
    max_live: Optional[int] = None
    reason: str = ""


@dataclass
class _Edge:
    src: int
    dst: int
    latency: int
    distance: int


def _loop_carried_mem_distance(
    first: Instr, second: Instr, step: int
) -> Optional[int]:
    """Iterations after which ``second`` touches ``first``'s address.

    Both must carry IV affinity on the same induction register.  Returns
    ``None`` when they never collide; a negative value means the
    collision is in the other direction.
    """
    assert first.iv is not None and second.iv is not None
    if first.iv.coeff != second.iv.coeff:
        return None if first.iv.coeff * second.iv.coeff != 0 else 0
    coeff = first.iv.coeff
    if coeff == 0:
        return 0 if first.iv.offset == second.iv.offset else None
    stride = coeff * step
    diff = first.iv.offset - second.iv.offset
    if diff % stride != 0:
        return None
    return diff // stride


def build_loop_dependences(
    instrs: List[Instr], step: int, machine: MachineModel
) -> Tuple[List[_Edge], bool]:
    """Dependence edges with iteration distances for a loop body.

    Returns the edges and a flag saying whether every memory pair was
    analyzable (False means conservative distance-1 serialization was
    injected somewhere).
    """
    n = len(instrs)
    edges: List[_Edge] = []
    precise = True

    def lat(i: int) -> int:
        return machine.latency(instrs[i].op_class())

    def add(src: int, dst: int, latency: int, distance: int) -> None:
        edges.append(_Edge(src, dst, latency, distance))

    # ---- register dependences -------------------------------------------
    defs: Dict[str, List[int]] = {}
    uses: Dict[str, List[int]] = {}
    for i, instr in enumerate(instrs):
        if instr.dst is not None:
            defs.setdefault(instr.dst, []).append(i)
        for s in instr.srcs:
            uses.setdefault(s, []).append(i)

    for reg, def_positions in defs.items():
        for d in def_positions:
            for u in uses.get(reg, []):
                # Reaching definition: nearest def before the use (same
                # iteration) or the last def (previous iteration).
                same_iter_defs = [p for p in def_positions if p < u]
                if same_iter_defs:
                    if d == max(same_iter_defs):
                        add(d, u, lat(d), 0)
                else:
                    if d == max(def_positions):
                        add(d, u, lat(d), 1)
                # Anti back to every later def.
                if u <= d:
                    add(u, d, 0, 1 if u <= d else 0)
            for d2 in def_positions:
                if d < d2:
                    add(d, d2, 1, 0)
            if len(def_positions) >= 1:
                add(max(def_positions), min(def_positions), 1, 1)
        for u in uses.get(reg, []):
            later_defs = [p for p in def_positions if p > u]
            if later_defs:
                add(u, min(later_defs), 0, 0)

    # ---- memory dependences ----------------------------------------------
    mem = [i for i, ins in enumerate(instrs) if ins.op in ("ld", "st")]
    for ai in mem:
        for bi in mem:
            a, b = instrs[ai], instrs[bi]
            if a.op == "ld" and b.op == "ld":
                continue
            if a.array != b.array:
                continue
            if a.array == "__spill":
                if a.disp == b.disp and ai != bi:
                    if ai < bi:
                        add(ai, bi, 1, 0)
                    add(bi, ai, 1, 1)
                continue
            if a.iv is None or b.iv is None:
                precise = False
                if ai < bi:
                    add(ai, bi, 1, 0)
                add(bi, ai, 1, 1)
                continue
            dist = _loop_carried_mem_distance(a, b, step)
            if dist is None:
                continue
            if dist > 0:
                add(ai, bi, 1, dist)
            elif dist == 0 and ai < bi:
                add(ai, bi, 1, 0)

    # Calls serialize everything (shouldn't appear in IMS candidates).
    for i, instr in enumerate(instrs):
        if instr.op == "call":
            precise = False
    return edges, precise


def res_mii(instrs: List[Instr], machine: MachineModel) -> int:
    """Resource-constrained MII: ``max over classes ⌈uses/units⌉``.

    The census is machine-level (LIR instructions); the ceiling formula
    is shared with the source-level resMII in ``core/schedulers``.
    """
    counts: Dict[str, int] = {}
    for instr in instrs:
        if instr.is_branch():
            continue
        cls = instr.op_class()
        counts[cls] = counts.get(cls, 0) + 1
    return res_mii_for_counts(machine, counts)


def _positive_cycle(weights) -> bool:
    """Floyd–Warshall longest-path positive-cycle detection.

    Vectorized max-plus relaxation: one outer iteration per pivot,
    each a whole-matrix ``max(dist, dist[:,mid] + dist[mid,:])``.
    Weights are integers (or -inf), far below 2**53, so float64
    arithmetic is exact and the verdict matches the scalar loop.
    """
    n = len(weights)
    if n == 0:
        return False
    dist = np.array(weights, dtype=np.float64)
    diag = np.diagonal(dist)
    for mid in range(n):
        # -inf propagates correctly through max-plus (no +inf entries
        # exist, so no NaN can appear).
        via = dist[:, mid : mid + 1] + dist[mid : mid + 1, :]
        np.maximum(dist, via, out=dist)
        # Relaxation only ever raises entries, so a positive diagonal
        # is permanent: returning early gives the exact final verdict.
        if (diag > 0).any():
            return True
    return False


def rec_mii(edges: List[_Edge], n: int) -> int:
    """Recurrence-constrained MII: the smallest II with no positive
    cycle under edge weight ``latency − II·distance`` (polynomial; the
    dense anti/output edge sets make cycle enumeration explode)."""
    if n == 0:
        return 1
    # Tightest label per node pair under the candidate II is the one
    # maximizing latency − II·distance; since II varies, keep the best
    # per (pair, distance) and take the max weight at query time.
    best_lat: Dict[Tuple[int, int, int], int] = {}
    for e in edges:
        key = (e.src, e.dst, e.distance)
        if e.latency > best_lat.get(key, -1):
            best_lat[key] = e.latency

    upper = max(
        (lat for lat in best_lat.values()), default=1
    ) * max(1, n)

    srcs = np.array([k[0] for k in best_lat], dtype=np.intp)
    dsts = np.array([k[1] for k in best_lat], dtype=np.intp)
    dists = np.array([k[2] for k in best_lat], dtype=np.float64)
    lats = np.array(list(best_lat.values()), dtype=np.float64)

    def feasible(ii: int) -> bool:
        weights = np.full((n, n), float("-inf"))
        if len(lats):
            np.maximum.at(weights, (srcs, dsts), lats - ii * dists)
        return not _positive_cycle(weights)

    lo, hi = 1, 1
    while not feasible(hi):
        lo = hi + 1
        hi *= 2
        if hi > upper:
            hi = upper
            break
    # Binary search the smallest feasible II in [lo, hi].
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def modulo_schedule(
    instrs: List[Instr],
    edges: List[_Edge],
    machine: MachineModel,
    ii: int,
    budget_factor: int = 8,
) -> Optional[Dict[int, int]]:
    """Try to place all ops in a modulo reservation table at the given II.

    Returns op→cycle on success.  Placement follows Rau's iterative
    scheme: height-priority order, earliest legal start from scheduled
    predecessors, at most II candidate rows, eviction of conflicting
    ops with a bounded budget.
    """
    n = len(instrs)
    preds: Dict[int, List[_Edge]] = {i: [] for i in range(n)}
    succs: Dict[int, List[_Edge]] = {i: [] for i in range(n)}
    for e in edges:
        preds[e.dst].append(e)
        succs[e.src].append(e)

    # Height priority (longest latency path to any leaf, distances relax).
    height = [0] * n
    for _ in range(n):
        changed = False
        for i in range(n):
            for e in succs[i]:
                candidate = height[e.dst] + e.latency - ii * e.distance
                if candidate > height[i]:
                    height[i] = candidate
                    changed = True
        if not changed:
            break

    order = sorted(range(n), key=lambda i: (-height[i], i))
    placement: Dict[int, int] = {}
    # Reservation table: row -> {class: count}, plus per-row totals so
    # the issue-width check is O(1) instead of summing the row.
    table: List[Dict[str, int]] = [dict() for _ in range(ii)]
    row_total = [0] * ii
    cls_of = [instr.op_class() for instr in instrs]
    units = {cls: machine.unit_count(cls) for cls in set(cls_of)}
    issue_width = machine.issue_width
    budget = budget_factor * n

    def fits(op: int, cycle: int) -> bool:
        slot = cycle % ii
        cls = cls_of[op]
        if table[slot].get(cls, 0) >= units[cls]:
            return False
        if row_total[slot] >= issue_width:
            return False
        return True

    def occupy(op: int, cycle: int) -> None:
        slot = cycle % ii
        row = table[slot]
        cls = cls_of[op]
        row[cls] = row.get(cls, 0) + 1
        row_total[slot] += 1
        placement[op] = cycle

    def release(op: int) -> None:
        cycle = placement.pop(op)
        slot = cycle % ii
        table[slot][cls_of[op]] -= 1
        row_total[slot] -= 1

    worklist = deque(order)
    while worklist:
        if budget <= 0:
            return None
        budget -= 1
        op = worklist.popleft()
        est = 0
        for e in preds[op]:
            if e.src in placement:
                est = max(est, placement[e.src] + e.latency - ii * e.distance)
        est = max(est, 0)
        chosen: Optional[int] = None
        for cycle in range(est, est + ii):
            ok = fits(op, cycle)
            if not ok:
                continue
            # Successor constraints against already-placed ops.
            legal = True
            for e in succs[op]:
                if e.dst in placement:
                    if cycle + e.latency - ii * e.distance > placement[e.dst]:
                        legal = False
                        break
            if legal:
                chosen = cycle
                break
        if chosen is None:
            # Evict: force placement at est, kicking conflicting ops.
            cycle = est
            victims = [
                other
                for other, at in placement.items()
                if at % ii == cycle % ii and cls_of[other] == cls_of[op]
            ]
            # Also evict successor-violating ops.
            for e in succs[op]:
                if e.dst in placement and cycle + e.latency - ii * e.distance > placement[e.dst]:
                    victims.append(e.dst)
            if not victims:
                return None
            for victim in set(victims):
                if victim in placement:
                    release(victim)
                    worklist.append(victim)
            if not fits(op, cycle):
                return None
            occupy(op, cycle)
        else:
            occupy(op, chosen)
    return placement


def estimate_max_live(
    instrs: List[Instr],
    edges: List[_Edge],
    placement: Dict[int, int],
    ii: int,
) -> int:
    """Rau's MaxLive estimate: Σ value lifetimes / II (rounded up per
    value).  A value consumed d iterations later lives ``d·II`` extra
    cycles — the Fig. 11 pressure mechanism."""
    lifetime: Dict[int, int] = {}
    for e in edges:
        if e.latency == 0:
            continue  # anti edges don't extend value lifetimes
        if instrs[e.src].dst is None:
            continue
        if e.src not in placement or e.dst not in placement:
            continue
        span = placement[e.dst] + ii * e.distance - placement[e.src]
        if span > lifetime.get(e.src, 0):
            lifetime[e.src] = span
    total = 0
    for span in lifetime.values():
        total += max(1, ceil(span / ii))
    return total


def _schedule_loop(
    body: List[Instr],
    step: int,
    schedule_length: int,
    machine: MachineModel,
    max_ii_factor: int,
) -> IMSReport:
    """IMS on one loop body, read from nothing else: the report, with
    ``loop`` left for the caller to name."""
    report = IMSReport(loop="", attempted=False, success=False)
    if not body:
        report.reason = "empty body"
        return report
    if len(body) > machine.ims_max_ops:
        report.reason = (
            f"loop too large for machine-level MS "
            f"({len(body)} > {machine.ims_max_ops} ops)"
        )
        return report
    report.attempted = True
    edges, _precise = build_loop_dependences(body, step, machine)
    resource = res_mii(body, machine)
    recurrence = rec_mii(edges, len(body))
    report.res_mii = resource
    report.rec_mii = recurrence
    mii = max(resource, recurrence)
    sequential = schedule_length or len(body)
    placed: Optional[Dict[int, int]] = None
    ii = mii
    while ii <= max(mii * max_ii_factor, mii + 8):
        placed = modulo_schedule(body, edges, machine, ii)
        if placed is not None:
            break
        ii += 1
    if placed is None:
        report.reason = "no schedule found within II budget"
        return report
    max_live = estimate_max_live(body, edges, placed, ii)
    report.max_live = max_live
    if max_live > machine.num_registers:
        report.reason = (
            f"register pressure: MaxLive {max_live} exceeds "
            f"{machine.num_registers} registers"
        )
        return report
    if ii >= sequential:
        report.reason = (
            f"II {ii} not better than list schedule {sequential}"
        )
        return report
    report.success = True
    report.ii = ii
    return report


def run_ims(
    module: Module,
    machine: MachineModel,
    max_ii_factor: int = 4,
) -> List[IMSReport]:
    """Attempt IMS on every single-block innermost loop in the module.

    One report per loop, each a fresh object; a body already scheduled
    in this process replays its memoized outcome (module docstring).
    """
    reports: List[IMSReport] = []
    context = f"{machine!r}\x1d{max_ii_factor}".encode()
    for loop in module.loops:
        block = module.blocks.get(loop.body_block)
        if block is None:
            continue
        h = hashlib.sha256(context)
        h.update(f"\x1d{loop.step}\x1d{block.schedule_length}".encode())
        for instr in block.instrs:
            h.update(instr.encoding().encode())
        key = h.hexdigest()
        outcome = _OUTCOMES.get(key)
        if outcome is None:
            outcome = _schedule_loop(
                block.instrs, loop.step, block.schedule_length, machine,
                max_ii_factor,
            )
            if len(_OUTCOMES) >= _OUTCOMES_LIMIT:
                _OUTCOMES.clear()
            _OUTCOMES[key] = outcome
        report = replace(outcome, loop=loop.body_block)
        if report.success:
            block.ims_ii = report.ii
        reports.append(report)
    return reports
