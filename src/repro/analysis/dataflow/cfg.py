"""Statement-level control-flow graph for the C subset.

Each executable statement becomes one node; ``If``/``For``/``While``
conditions become *branch* nodes whose outgoing edges carry a
``"true"``/``"false"`` label so analyses can refine facts per side
(interval analysis turns ``i < N`` into a bound on ``i`` along the body
edge).  ``ParGroup`` rows are flattened in their listed order — SLMS
guarantees that order is a legal serialization.

The builder never clones: ``CFGNode.stmt`` aliases the caller's AST, so
analysis results can be keyed back to source statements (and their
``loc``) directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lang.ast_nodes import (
    Assign,
    Break,
    Continue,
    Decl,
    Expr,
    ExprStmt,
    For,
    If,
    ParGroup,
    Stmt,
    While,
)
from repro.lang.errors import SourceLocation

#: Edge labels for the two sides of a branch node (plain edges are None).
TRUE, FALSE = "true", "false"


@dataclass
class CFGNode:
    """One CFG node.

    ``kind`` is ``"entry"``, ``"exit"``, ``"stmt"`` (Decl / Assign /
    ExprStmt / loop init / loop step), or ``"branch"`` (an ``If`` or
    loop condition, held in ``cond``).  The simulator's LIR type
    analysis (:mod:`repro.sim.lir_types`) builds a block-level CFG
    whose nodes have kind ``"block"``.
    """

    id: int
    kind: str
    stmt: Optional[Stmt] = None
    cond: Optional[Expr] = None

    @property
    def loc(self) -> SourceLocation:
        node = self.stmt if self.stmt is not None else self.cond
        return getattr(node, "loc", None) or SourceLocation()


@dataclass
class CFG:
    """The graph: nodes, labelled edges, and the loop-head widen set."""

    nodes: List[CFGNode] = field(default_factory=list)
    succs: Dict[int, List[Tuple[int, Optional[str]]]] = field(
        default_factory=dict
    )
    preds: Dict[int, List[Tuple[int, Optional[str]]]] = field(
        default_factory=dict
    )
    entry: int = 0
    exit: int = 0
    #: Loop-head branch nodes — the solver's widening points.
    widen_points: Set[int] = field(default_factory=set)

    def node(self, node_id: int) -> CFGNode:
        return self.nodes[node_id]

    def stmt_nodes(self) -> List[CFGNode]:
        """Every non-synthetic node, in creation (≈ source) order."""
        return [n for n in self.nodes if n.kind in ("stmt", "branch")]

    def rpo(self) -> List[int]:
        """Reverse postorder from the entry (forward iteration order)."""
        seen: Set[int] = set()
        order: List[int] = []
        # Iterative postorder DFS.
        stack: List[Tuple[int, int]] = [(self.entry, 0)]
        while stack:
            node, idx = stack.pop()
            if idx == 0:
                if node in seen:
                    continue
                seen.add(node)
            succs = self.succs.get(node, ())
            if idx < len(succs):
                stack.append((node, idx + 1))
                nxt = succs[idx][0]
                if nxt not in seen:
                    stack.append((nxt, 0))
            else:
                order.append(node)
        order.reverse()
        return order


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()

    def new(self, kind: str, stmt: Optional[Stmt] = None,
            cond: Optional[Expr] = None) -> int:
        node = CFGNode(len(self.cfg.nodes), kind, stmt, cond)
        self.cfg.nodes.append(node)
        self.cfg.succs[node.id] = []
        self.cfg.preds[node.id] = []
        return node.id

    def edge(self, src: int, dst: int, label: Optional[str] = None) -> None:
        self.cfg.succs[src].append((dst, label))
        self.cfg.preds[dst].append((src, label))

    def attach(self, frontier: Sequence[Tuple[int, Optional[str]]],
               dst: int) -> None:
        for src, label in frontier:
            self.edge(src, dst, label)

    # ``frontier`` is the set of dangling (node, label) edges waiting for
    # the next statement; lowering a statement consumes it and returns
    # the new frontier (empty after break/continue — code after them in
    # the same block is unreachable and gets no incoming edges).
    def lower_block(
        self,
        stmts: Sequence[Stmt],
        frontier: List[Tuple[int, Optional[str]]],
        breaks: Optional[List[Tuple[int, Optional[str]]]],
        continue_to: Optional[int],
    ) -> List[Tuple[int, Optional[str]]]:
        for stmt in stmts:
            frontier = self.lower_stmt(stmt, frontier, breaks, continue_to)
        return frontier

    def lower_stmt(
        self,
        stmt: Stmt,
        frontier: List[Tuple[int, Optional[str]]],
        breaks: Optional[List[Tuple[int, Optional[str]]]],
        continue_to: Optional[int],
    ) -> List[Tuple[int, Optional[str]]]:
        if isinstance(stmt, ParGroup):
            return self.lower_block(stmt.stmts, frontier, breaks, continue_to)

        if isinstance(stmt, If):
            branch = self.new("branch", stmt, stmt.cond)
            self.attach(frontier, branch)
            out = self.lower_block(
                stmt.then, [(branch, TRUE)], breaks, continue_to
            )
            if stmt.els:
                out += self.lower_block(
                    stmt.els, [(branch, FALSE)], breaks, continue_to
                )
            else:
                out.append((branch, FALSE))
            return out

        if isinstance(stmt, For):
            init = self.new("stmt", stmt.init)
            self.attach(frontier, init)
            head = self.new("branch", stmt, stmt.cond)
            self.cfg.widen_points.add(head)
            self.edge(init, head)
            step = self.new("stmt", stmt.step)
            my_breaks: List[Tuple[int, Optional[str]]] = []
            body_out = self.lower_block(
                stmt.body, [(head, TRUE)], my_breaks, step
            )
            self.attach(body_out, step)
            self.edge(step, head)
            return [(head, FALSE)] + my_breaks

        if isinstance(stmt, While):
            head = self.new("branch", stmt, stmt.cond)
            self.cfg.widen_points.add(head)
            self.attach(frontier, head)
            my_breaks = []
            body_out = self.lower_block(
                stmt.body, [(head, TRUE)], my_breaks, head
            )
            self.attach(body_out, head)
            return [(head, FALSE)] + my_breaks

        if isinstance(stmt, Break):
            node = self.new("stmt", stmt)
            self.attach(frontier, node)
            if breaks is not None:
                breaks.append((node, None))
            return []

        if isinstance(stmt, Continue):
            node = self.new("stmt", stmt)
            self.attach(frontier, node)
            if continue_to is not None:
                self.edge(node, continue_to)
            return []

        # Decl / Assign / ExprStmt — one plain node.
        node = self.new("stmt", stmt)
        self.attach(frontier, node)
        return [(node, None)]


def build_cfg(stmts: Sequence[Stmt]) -> CFG:
    """Build the CFG of a statement list (a program body or loop body)."""
    builder = _Builder()
    entry = builder.new("entry")
    frontier = builder.lower_block(stmts, [(entry, None)], None, None)
    exit_node = builder.new("exit")
    builder.attach(frontier, exit_node)
    cfg = builder.cfg
    cfg.entry, cfg.exit = entry, exit_node
    return cfg


def node_uses(node: CFGNode) -> Set[str]:
    """Scalar names read by a node (branch conditions included)."""
    from repro.lang.visitors import collect_vars, used_scalars

    if node.kind == "branch":
        return collect_vars(node.cond) if node.cond is not None else set()
    if node.stmt is None:
        return set()
    if isinstance(node.stmt, Decl):
        return (
            collect_vars(node.stmt.init) if node.stmt.init is not None
            else set()
        )
    return used_scalars(node.stmt)


def node_defs(node: CFGNode) -> Set[str]:
    """Scalar names written by a node."""
    from repro.lang.visitors import defined_scalars

    if node.kind != "stmt" or node.stmt is None:
        return set()
    if isinstance(node.stmt, Decl):
        return {node.stmt.name} if not node.stmt.dims else set()
    return defined_scalars(node.stmt)
