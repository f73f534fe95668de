"""MII computation (paper §3.5–§3.6), the fixed-placement edge rule and
the valid-II search.

* :func:`difmin_feasible` / :func:`pmii_difmin` — the Iterative Shortest
  Path formulation the paper adopts from [3, 23]: for a candidate II,
  the ``difMin`` matrix is the all-pairs *longest* path
  (:func:`longest_paths`) under edge weight ``delay − II·distance``;
  the II is feasible iff no positive cycle exists
  (``difMin[v][v] ≤ 0``).  PMII is the smallest feasible II found by
  iterating II upward, exactly as §5 describes.  It equals the maximum
  over dependence cycles of ``⌈Σ delay / Σ distance⌉`` (the tests
  enumerate cycles as the cross-check, ``tests/reference_graphs.py``),
  but PMII is not a floor on the II SLMS achieves: the §3.5 delays
  price anti and output dependences like flow ones, while the fixed
  placement lets them share a row.
* :data:`EDGE_NEED` / :func:`identity_feasible` / :func:`find_valid_ii`
  — the II that SLMS's *fixed placement* actually needs.  SLMS never
  reorders MIs inside an iteration (MI ``m`` of iteration ``k`` sits at
  row ``k·II + m``; the final compiler's list scheduler does intra-row
  scheduling).  A dependence ``src → dst, distance d`` therefore
  requires ``d·II + (dst − src) ≥ EDGE_NEED[kind]``: 1 for flow edges
  (the consumed value must be produced in a strictly earlier row) and 0
  for anti/output edges (a same-row overlap is legal because rows are
  emitted oldest-iteration first — the paper's footnote-1 assumption
  made explicit), which is why the achieved II can be lower than PMII.
  The exact scheduler (``core/schedulers/exact.py``) searches the same
  constraint system with the placement left free.

Per the paper, a valid II must also beat the sequential schedule:
``II < number of MIs``.
"""

from __future__ import annotations

from math import inf
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.ddg import Dependence, DependenceGraph
from repro.obs import get_tracer

#: Minimum row slack ``d·II + (dst − src)`` a dependence needs under
#: SLMS's fixed placement, by kind (see the module docstring).  Read
#: by the valid-II search, the exact scheduler and ``slms explain``; an
#: unknown kind is a ``KeyError``, so the rule fails closed.
EDGE_NEED: Dict[str, int] = {"flow": 1, "anti": 0, "output": 0}

# The PMII functions only need the smallest distance per (src, dst)
# pair — see DependenceGraph.dominant_edges — so they work on that
# reduction.


def longest_paths(
    n: int, arcs: Iterable[Tuple[int, int, int]]
) -> List[List[float]]:
    """All-pairs longest path over ``(src, dst, weight)`` arcs on nodes
    ``0..n-1`` (Floyd–Warshall; parallel arcs keep the largest weight).

    Entries are ``-inf`` where no path exists.  A positive diagonal
    means a positive cycle; it can amplify itself, so entries touched by
    one are not path lengths — but one pass is enough to expose it,
    which is all a feasibility test needs.
    """
    dist: List[List[float]] = [[-inf] * n for _ in range(n)]
    for src, dst, weight in arcs:
        if weight > dist[src][dst]:
            dist[src][dst] = weight
    for mid in range(n):
        row_mid = dist[mid]
        for a in range(n):
            via = dist[a][mid]
            if via == -inf:
                continue
            row_a = dist[a]
            for b in range(n):
                if row_mid[b] == -inf:
                    continue
                candidate = via + row_mid[b]
                if candidate > row_a[b]:
                    row_a[b] = candidate
    return dist


def difmin_matrix(graph: DependenceGraph, ii: int) -> List[List[float]]:
    """All-pairs longest path under weight ``delay − II·distance``.

    This is the difMin matrix of [3]; entries are ``-inf`` where no path
    exists.  Positive diagonal ⇒ II infeasible.
    """
    return longest_paths(
        graph.n,
        (
            (src, dst, delay - ii * distance)
            for (src, dst), (delay, distance) in graph.dominant_edges().items()
        ),
    )


def difmin_feasible(graph: DependenceGraph, ii: int) -> bool:
    """Is ``ii`` feasible under the recurrence constraint (difMin test)?"""
    matrix = difmin_matrix(graph, ii)
    return all(matrix[v][v] <= 0 for v in range(graph.n))


def pmii_difmin(graph: DependenceGraph, max_ii: Optional[int] = None) -> Optional[int]:
    """Smallest feasible II by iterating the difMin test (paper §5).

    ``max_ii`` defaults to the number of MIs; ``None`` is returned when
    no II up to the bound is feasible (cannot happen for legal DDGs, but
    the guard keeps the search total).
    """
    limit = max_ii if max_ii is not None else max(graph.n, 1)
    tracer = get_tracer()
    for ii in range(1, limit + 1):
        feasible = difmin_feasible(graph, ii)
        if tracer.enabled:
            tracer.event("mii.difmin", ii=ii, feasible=feasible)
        if feasible:
            return ii
    return None


def edge_fits(edge: Dependence, ii: int) -> bool:
    """Does ``edge`` hold under the fixed (identity) placement at ``ii``?

    The row arithmetic ``row(dst, k+d) − row(src, k) = d·II + (dst −
    src)`` must reach :data:`EDGE_NEED` for the edge's kind.
    """
    return edge.distance * ii + (edge.dst - edge.src) >= EDGE_NEED[edge.kind]


def identity_feasible(graph: DependenceGraph, ii: int) -> bool:
    """Is the paper's fixed (identity) placement valid at ``ii``?"""
    return all(edge_fits(edge, ii) for edge in graph.edges)


def find_valid_ii(
    graph: DependenceGraph,
    n_mis: int,
    max_ii: Optional[int] = None,
) -> Optional[int]:
    """The smallest II valid for SLMS's fixed MI placement.

    Sweeps II upward through :func:`identity_feasible`.  Slack is
    monotonically non-decreasing in II for every edge (distance ≥ 0), so
    the first II that passes is the minimum.  Returns ``None`` when no
    ``II < n_mis`` works — by the paper's definition such a schedule
    would not beat the sequential loop, so SLMS must decompose or give
    up.
    """
    tracer = get_tracer()
    upper = min(max_ii, n_mis - 1) if max_ii is not None else n_mis - 1
    if upper < 1:
        if tracer.enabled:
            tracer.event("ii.search", upper=upper, outcome="no room")
        return None
    for ii in range(1, upper + 1):
        valid = identity_feasible(graph, ii)
        if tracer.enabled:
            tracer.event("ii.candidate", ii=ii, valid=valid)
        if valid:
            return ii
    if tracer.enabled:
        tracer.event("ii.search", upper=upper, outcome="exhausted")
    return None
