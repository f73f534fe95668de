"""Exact modulo scheduling by branch-and-bound (docs/SCHEDULERS.md).

Moovac-style encoding, specialised to SLMS's unit-latency rows: the
integer variables are the MI row offsets ``σ(v) ∈ [0, n-1]``, the
overlap/ordering decisions are implicit in the permutation the search
builds slot by slot, and every dependence edge contributes

    σ(dst) − σ(src) ≥ EDGE_NEED[kind] − distance·II

which is the fixed-placement rule of :mod:`repro.core.mii` with the
placement left free, and the same difference-constraint system as the
paper's difMin matrix — so the pruning relaxation is the same
:func:`repro.core.mii.longest_paths` routine: the all-pairs longest
path ``L`` over edge weight ``need − d·II`` gives ``σ(v) − σ(u) ≥
L[u][v]`` for every pair, a positive diagonal proves the II infeasible
for *any* placement, and ``L`` tightens each node's earliest/latest
slot (``est``/``ub``) as slots are committed.

The search assigns slot 0, then 1, … (a permutation has no gaps, so a
slot nobody can take kills the branch immediately); each committed slot
propagates ``est/ub`` through ``L`` and prunes on an empty window.  II
feasibility is monotone — raising II only loosens every constraint —
so the first feasible II in the upward sweep is optimal.

The node budget counts placement attempts and is the only bound, so
verdicts are a pure function of the graph and the budget and fuzz
reports stay byte-identical across hosts.  A result obtained after a
budget exhaustion at a lower II is flagged ``exhausted`` and never
``proven_optimal``.
"""

from __future__ import annotations

from math import inf
from typing import List, Optional, Tuple

from repro.analysis.ddg import DependenceGraph
from repro.core.mii import EDGE_NEED, longest_paths
from repro.core.schedulers import SourceSchedule


class _BudgetExhausted(Exception):
    pass


class _Budget:
    """Placement-attempt countdown shared across one II sweep."""

    __slots__ = ("remaining", "used")

    def __init__(self, nodes: int):
        self.remaining = nodes
        self.used = 0

    def spend(self) -> None:
        if self.remaining <= 0:
            raise _BudgetExhausted
        self.remaining -= 1
        self.used += 1


def _solve(
    graph: DependenceGraph, ii: int, budget: _Budget
) -> Tuple[Optional[List[int]], bool]:
    """``(order, exhausted)`` — ``order`` is ``None`` when the II is
    infeasible or the budget ran out (``exhausted`` tells which)."""
    n = graph.n
    paths = longest_paths(
        n,
        (
            (edge.src, edge.dst, EDGE_NEED[edge.kind] - edge.distance * ii)
            for edge in graph.edges
        ),
    )
    if any(paths[v][v] > 0 for v in range(n)):
        return None, False  # a positive cycle: no placement works
    last = n - 1
    est = [0] * n
    ub = [last] * n
    for v in range(n):
        for u in range(n):
            to_v = paths[u][v]
            if to_v != -inf and to_v > est[v]:
                est[v] = int(to_v)  # σ(u) ≥ 0 ⇒ σ(v) ≥ L[u][v]
            from_v = paths[v][u]
            if from_v != -inf and last - from_v < ub[v]:
                ub[v] = int(last - from_v)  # σ(u) ≤ n−1
        if est[v] > ub[v]:
            return None, False

    order = [0] * n
    used = [False] * n

    def place(r: int, est: List[int], ub: List[int]) -> bool:
        if r == n:
            return True
        musts: List[int] = []
        cands: List[int] = []
        for v in range(n):
            if used[v]:
                continue
            if ub[v] < r:
                return False  # v can never be placed any more
            if est[v] <= r:
                cands.append(v)
                if ub[v] == r:
                    musts.append(v)
        if not cands or len(musts) > 1:
            return False  # slot r unfillable / two MIs forced into it
        if musts:
            cands = musts
        else:
            cands.sort(key=lambda v: (ub[v], est[v], v))
        for m in cands:
            budget.spend()
            used[m] = True
            new_est = list(est)
            new_ub = list(ub)
            viable = True
            for v in range(n):
                if used[v]:
                    continue
                fwd = paths[m][v]
                if fwd != -inf and r + fwd > new_est[v]:
                    new_est[v] = int(r + fwd)
                back = paths[v][m]
                if back != -inf and r - back < new_ub[v]:
                    new_ub[v] = int(r - back)
                if new_est[v] > new_ub[v]:
                    viable = False
                    break
            if viable and place(r + 1, new_est, new_ub):
                order[r] = m
                return True
            used[m] = False
        return False

    try:
        found = place(0, est, ub)
    except _BudgetExhausted:
        return None, True
    return (order if found else None), False


def refine(
    graph: DependenceGraph,
    heuristic_ii: int,
    min_ii: int = 1,
    budget_nodes: int = 50_000,
) -> SourceSchedule:
    """Search for a placement below the paper's II, ``heuristic_ii``.

    ``min_ii`` is the smallest II worth returning (the driver passes
    ``⌈n_mis/trip⌉`` so a lower II never trips the stage-count emission
    guard).  One budget of ``budget_nodes`` placement attempts covers
    the whole sweep.  The identity placement at ``heuristic_ii`` is the
    fallback, so the returned II never exceeds the heuristic's — even
    when every smaller II exhausts the budget (the result is then
    flagged, not claimed optimal).
    """
    budget = _Budget(budget_nodes)
    exhausted = False
    for ii in range(max(1, min_ii), heuristic_ii):
        order, ran_out = _solve(graph, ii, budget)
        if order is not None:
            return SourceSchedule(
                ii=ii,
                order=tuple(order),
                backend="exact",
                proven_optimal=not exhausted,
                exhausted=exhausted,
                nodes=budget.used,
            )
        exhausted = exhausted or ran_out
    return SourceSchedule(
        ii=heuristic_ii,
        order=tuple(range(graph.n)),
        backend="exact",
        proven_optimal=not exhausted,
        exhausted=exhausted,
        nodes=budget.used,
    )
