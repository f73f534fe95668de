"""Graph references the tests check the program against.

:func:`pmii_cycle_ratio` enumerates dependence cycles to compute the
recurrence-constrained MII, the cross-check for
:func:`repro.core.mii.pmii_difmin`.  It lives in the tests because it
needs networkx, which the program itself never imports.
"""

from __future__ import annotations

from math import ceil
from typing import Optional

import networkx as nx

from repro.analysis.ddg import DependenceGraph


def pmii_cycle_ratio(graph: DependenceGraph) -> Optional[int]:
    """Max-cycle-ratio PMII: ``max over cycles ⌈Σ delay / Σ distance⌉``.

    Returns ``None`` when the graph has no dependence cycle (any II —
    including 1 — satisfies the recurrence constraint), and ``inf``-like
    behaviour is impossible because every cycle in a legal DDG carries
    distance ≥ 1 (a zero-distance cycle would mean a dependence cycle
    inside one iteration, i.e. the original program is contradictory).
    """
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.n))
    for (src, dst), (delay, distance) in graph.dominant_edges().items():
        g.add_edge(src, dst, delay=delay, distance=distance)
    best: Optional[int] = None
    for cycle in nx.simple_cycles(g):
        delay_sum = 0
        dist_sum = 0
        for i, u in enumerate(cycle):
            v = cycle[(i + 1) % len(cycle)]
            data = g.edges[u, v]
            delay_sum += data["delay"]
            dist_sum += data["distance"]
        if dist_sum == 0:
            raise ValueError(
                "zero-distance dependence cycle: inconsistent DDG "
                f"(cycle {cycle})"
            )
        ratio = ceil(delay_sum / dist_sum)
        if best is None or ratio > best:
            best = ratio
    return best
