"""Generic iterative dataflow solver.

An analysis implements the :class:`DataflowAnalysis` protocol — a join
semilattice plus node transfer functions — and :func:`solve` iterates a
worklist to the least fixpoint.  Two hooks beyond the textbook core:

* ``refine(node, label, value)`` — applied per *edge* when propagating
  out of a branch node, so an analysis can strengthen facts with the
  branch condition (interval analysis narrows ``i`` along the ``true``
  edge of ``i < N``);
* ``widen(node, old, new)`` — applied at the CFG's loop heads once a
  head has been revisited :data:`WIDEN_AFTER` times, which bounds the
  iteration count for infinite-height lattices (intervals).

Finite-lattice analyses (reaching definitions, liveness) terminate
without widening; the hook defaults to identity-on-``new``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.dataflow.cfg import CFG, CFGNode

#: Visits of a widen point before widening kicks in.
WIDEN_AFTER = 2

#: Hard cap on node visits — a diverging transfer function is a bug in
#: the analysis, surfaced as an error instead of a hang.
MAX_VISITS_PER_NODE = 1000


class DataflowAnalysis:
    """Base protocol; concrete analyses override the lattice pieces."""

    #: ``"forward"`` or ``"backward"``.
    direction = "forward"

    def boundary(self, cfg: CFG) -> Any:
        """Value at the entry (forward) / exit (backward) node."""
        raise NotImplementedError

    def initial(self, cfg: CFG, node: CFGNode) -> Any:
        """The bottom value every other node starts from."""
        raise NotImplementedError

    def join(self, values: List[Any]) -> Any:
        raise NotImplementedError

    def transfer(self, node: CFGNode, value: Any) -> Any:
        raise NotImplementedError

    def refine(self, node: CFGNode, label: Optional[str], value: Any) -> Any:
        return value

    def widen(self, node: CFGNode, old: Any, new: Any) -> Any:
        return new

    def equal(self, a: Any, b: Any) -> bool:
        return a == b


@dataclass
class DataflowResult:
    """Fixpoint values per node: ``inputs`` before the node's transfer
    in analysis direction, ``outputs`` after."""

    inputs: Dict[int, Any] = field(default_factory=dict)
    outputs: Dict[int, Any] = field(default_factory=dict)

    def value_in(self, node_id: int) -> Any:
        return self.inputs.get(node_id)

def solve(cfg: CFG, analysis: DataflowAnalysis) -> DataflowResult:
    """Iterate ``analysis`` over ``cfg`` to its least fixpoint."""
    forward = analysis.direction == "forward"
    start = cfg.entry if forward else cfg.exit
    edges_in = cfg.preds if forward else cfg.succs
    edges_out = cfg.succs if forward else cfg.preds

    order = cfg.rpo()
    if not forward:
        order = list(reversed(order))
    position = {node_id: i for i, node_id in enumerate(order)}

    result = DataflowResult()
    for node in cfg.nodes:
        result.inputs[node.id] = analysis.initial(cfg, node)
        result.outputs[node.id] = analysis.transfer(
            node, result.inputs[node.id]
        )
    result.inputs[start] = analysis.boundary(cfg)
    result.outputs[start] = analysis.transfer(
        cfg.node(start), result.inputs[start]
    )

    visits: Dict[int, int] = {}
    worklist = sorted(
        (n.id for n in cfg.nodes), key=lambda i: position.get(i, len(order))
    )
    pending = set(worklist)
    while worklist:
        node_id = worklist.pop(0)
        pending.discard(node_id)
        node = cfg.node(node_id)
        visits[node_id] = visits.get(node_id, 0) + 1
        if visits[node_id] > MAX_VISITS_PER_NODE:
            raise RuntimeError(
                f"dataflow solver did not converge at node {node_id}"
            )

        incoming = [
            analysis.refine(cfg.node(src), label, result.outputs[src])
            for src, label in edges_in.get(node_id, ())
        ]
        if node_id == start:
            incoming.append(analysis.boundary(cfg))
        if not incoming:
            new_in = result.inputs[node_id]
        else:
            new_in = analysis.join(incoming)
        if (
            node_id in cfg.widen_points
            and visits[node_id] > WIDEN_AFTER
        ):
            new_in = analysis.widen(node, result.inputs[node_id], new_in)

        new_out = analysis.transfer(node, new_in)
        result.inputs[node_id] = new_in
        if analysis.equal(new_out, result.outputs[node_id]):
            continue
        result.outputs[node_id] = new_out
        for succ, _label in edges_out.get(node_id, ()):
            if succ not in pending:
                pending.add(succ)
                worklist.append(succ)
        worklist.sort(key=lambda i: position.get(i, len(order)))
    return result
