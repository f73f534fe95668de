"""Loop distribution (fission).

Splits a loop into one loop per group of statements, where groups are
the strongly connected components of the statement dependence graph and
loops are emitted in topological (dependence) order.  Statements tied in
a dependence cycle stay together; everything else gets its own loop,
which is the classical enabler for vectorization and for applying SLMS
to the recurrence-free parts.  Independent groups come out in source
order (see :func:`statement_groups`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Sequence, Tuple

from repro.analysis.ddg import build_ddg
from repro.analysis.loopinfo import LoopInfo
from repro.lang.ast_nodes import For
from repro.transforms.errors import TransformError


def statement_groups(
    n: int, edges: Sequence[Tuple[int, int]]
) -> List[List[int]]:
    """Strongly connected components of the digraph on ``0..n-1``, each
    sorted, in the order distribution emits them.

    The components come from an iterative Tarjan search; a Kahn pass
    over the condensed graph then orders them so that every edge points
    forward, taking among the ready components the one with the
    smallest statement index (independent statements keep source order).
    """
    succ: List[List[int]] = [[] for _ in range(n)]
    for src, dst in edges:
        succ[src].append(dst)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: List[int] = []
    groups: List[List[int]] = []
    visited = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        # Explicit DFS frames (node, next successor to look at).
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = visited
                visited += 1
                stack.append(v)
            for j in range(i, len(succ[v])):
                w = succ[v][j]
                if index[w] < 0:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    break
                if comp[w] < 0:  # visited and unassigned: on the stack
                    low[v] = min(low[v], index[w])
            else:
                if low[v] == index[v]:
                    group = []
                    while v not in group:
                        group.append(stack.pop())
                        comp[group[-1]] = len(groups)
                    groups.append(sorted(group))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])

    after: List[List[int]] = [[] for _ in groups]
    indegree = [0] * len(groups)
    for src, dst in edges:
        a, b = comp[src], comp[dst]
        if a != b:
            after[a].append(b)
            indegree[b] += 1
    # Heap entries are (smallest member, component): the members are
    # distinct, so the component id never decides a comparison.
    ready = [(g[0], c) for c, g in enumerate(groups) if indegree[c] == 0]
    heapify(ready)
    order: List[List[int]] = []
    while ready:
        _, c = heappop(ready)
        order.append(groups[c])
        for d in after[c]:
            indegree[d] -= 1
            if indegree[d] == 0:
                heappush(ready, (groups[d][0], d))
    return order


def distribute(loop: For) -> List[For]:
    """Distribute ``loop``; returns the ordered list of new loops."""
    info = LoopInfo.from_for(loop)
    if info is None:
        raise TransformError("loop is not in canonical counted form")
    graph = build_ddg(loop.body, info)
    if not graph.precise:
        raise TransformError(
            "cannot prove distribution legal: " + "; ".join(graph.reasons)
        )
    n = len(loop.body)
    if n <= 1:
        return [loop.clone()]

    loops: List[For] = []
    edges = [(edge.src, edge.dst) for edge in graph.edges]
    for group in statement_groups(n, edges):
        new_loop = loop.clone()
        new_loop.body = [loop.body[m].clone() for m in group]
        loops.append(new_loop)
    return loops
