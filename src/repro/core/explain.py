"""Human-readable SLMS diagnostics — the §2/§8 SLC interaction surface.

The paper's source-level compiler is *interactive*: the user inspects
what SLMS did (or why it declined), sees which dependence cycle limits
the II, and edits the source in response.  This module renders that
report:

* :func:`explain` — full text report for one loop: filter verdict, MI
  listing, dependence edges with ``<distance, delay>`` labels, the II
  search outcome, decomposition and expansion decisions;
* :func:`render_ms_table` — the paper's Fig. 1 modulo-scheduling table
  as ASCII (rows = time, columns = iterations);
* :func:`ddg_to_dot` — the dependence graph in Graphviz DOT format for
  visual inspection.

``slms explain file.c`` on the command line prints all of it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.ddg import DependenceGraph
from repro.analysis.loopinfo import LoopInfo
from repro.core.mii import edge_fits
from repro.core.slms import SLMSResult
from repro.lang.ast_nodes import For, Stmt
from repro.lang.printer import to_source


def _one_line(stmt: Stmt) -> str:
    return " ".join(to_source(stmt, style="paper").split())


# ---------------------------------------------------------------------------
# The Fig. 1 table
# ---------------------------------------------------------------------------


def render_ms_table(
    mis: List[Stmt],
    ii: int,
    iterations: int = 4,
    cell_width: int = 26,
) -> str:
    """Render the modulo-scheduling table of Fig. 1.

    MI ``m`` of iteration column ``k`` sits at row ``k·II + m``; the
    repeating II-row pattern (the kernel) is marked on the right.
    """
    n = len(mis)
    if not 1 <= ii:
        raise ValueError("II must be >= 1")
    total_rows = (iterations - 1) * ii + n
    stages = -(-n // ii)
    kernel_start = (stages - 1) * ii

    labels = [_one_line(stmt) for stmt in mis]
    labels = [
        lab if len(lab) <= cell_width - 2 else lab[: cell_width - 3] + "…"
        for lab in labels
    ]

    header = "row | " + "".join(
        f"{'iter i+' + str(k):<{cell_width}}" for k in range(iterations)
    )
    lines = [header, "-" * len(header)]
    for t in range(total_rows):
        cells = []
        for k in range(iterations):
            m = t - k * ii
            if 0 <= m < n:
                cells.append(f"{labels[m]:<{cell_width}}")
            else:
                cells.append(" " * cell_width)
        marker = ""
        if kernel_start <= t < kernel_start + ii and iterations >= stages:
            marker = "  <- kernel row" if t == kernel_start else "  <- kernel"
        lines.append(f"{t:>3} | " + "".join(cells) + marker)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def ddg_to_dot(graph: DependenceGraph, mis: Optional[List[Stmt]] = None) -> str:
    """Graphviz DOT text for the MI dependence graph."""
    lines = ["digraph ddg {", "    rankdir=TB;"]
    for node in range(graph.n):
        label = f"MI{node}"
        if mis is not None and node < len(mis):
            text = _one_line(mis[node]).replace('"', "'")
            label = f"MI{node}\\n{text}"
        lines.append(f'    mi{node} [shape=box, label="{label}"];')
    styles = {"flow": "solid", "anti": "dashed", "output": "dotted"}
    for edge in graph.edges:
        style = styles.get(edge.kind, "solid")
        lines.append(
            f"    mi{edge.src} -> mi{edge.dst} "
            f'[style={style}, label="{edge.var} <{edge.distance},{edge.delay}>"];'
        )
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The full report
# ---------------------------------------------------------------------------


def explain(loop: For, result: SLMSResult) -> str:
    """Render the SLC's report for one attempted loop."""
    lines: List[str] = []
    info = LoopInfo.from_for(loop)
    header = _one_line(
        For(loop.init, loop.cond, loop.step, [], loop.loc)
    ).rstrip("{} ")
    lines.append(f"loop: {header}")

    if result.filter_verdict is not None:
        verdict = result.filter_verdict
        lines.append(
            f"§4 filter: memory-ref ratio {verdict.memory_ref_ratio:.3f} "
            f"(loads {verdict.loads}, stores {verdict.stores}, "
            f"body-scalar accesses {verdict.scalar_accesses}, "
            f"arith {verdict.arith})"
        )

    if not result.applied:
        lines.append(f"outcome: DECLINED — {result.reason}")
        return "\n".join(lines)

    mis = result.final_mis or (
        result.partition.mis if result.partition else []
    )
    if mis:
        lines.append(f"multi-instructions ({len(mis)}):")
        for idx, stmt in enumerate(mis):
            lines.append(f"    MI{idx}: {_one_line(stmt)}")
    if result.partition is not None:
        for var, names in result.partition.renamed.items():
            lines.append(
                f"    multi-def scalar {var!r} split into webs: "
                f"{', '.join(names)} + {var}"
            )

    graph = result.ddg
    if graph is not None:
        carried = graph.loop_carried()
        lines.append(
            f"dependence graph: {len(graph.edges)} edges, "
            f"{len(carried)} loop-carried"
        )
        for edge in sorted(
            carried, key=lambda e: (e.src, e.dst, e.var)
        )[:12]:
            lines.append(f"    {edge}")
        if len(carried) > 12:
            lines.append(f"    … and {len(carried) - 12} more")
        if result.ii is not None and result.ii > 1:
            # Which edge is binding at II-1 (why a smaller II fails)?
            binding = next(
                (e for e in graph.edges if not edge_fits(e, result.ii - 1)),
                None,
            )
            if binding is not None:
                lines.append(
                    f"II = {result.ii - 1} fails: {binding.kind} dependence "
                    f"MI{binding.src} -> MI{binding.dst} violates its slack"
                )

    lines.append(
        f"outcome: APPLIED — II={result.ii} (recurrence MII {result.pmii}), "
        f"{result.stages} stages, {result.decompositions} decomposition(s), "
        f"expansion={result.expansion}"
        + (f" (unroll {result.unroll})" if result.unroll > 1 else "")
    )
    if result.new_scalars:
        lines.append(f"new temporaries: {', '.join(result.new_scalars)}")

    if mis and result.ii is not None and info is not None:
        lines.append("")
        lines.append("modulo scheduling table (Fig. 1 view):")
        lines.append(render_ms_table(mis, result.ii, iterations=3))
    return "\n".join(lines)
