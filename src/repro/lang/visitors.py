"""Traversal and rewriting utilities over the AST.

:class:`NodeVisitor` / :class:`NodeTransformer` follow the familiar
``ast``-module pattern.  On top of them the module provides the small
rewriters every SLMS pass needs:

* :func:`substitute_index` — replace a loop index ``i`` with ``i + k``
  (the core of kernel/prologue/epilogue generation), folding constants
  so ``A[i + 2 - 2]`` prints as ``A[i]``;
* :func:`rename_scalar` — variable renaming for MVE and multi-def
  scalar renaming;
* def/use sets and operation counting for the dependence analysis and
  the bad-case filter.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.lang.ast_nodes import (
    ARITH_OPS,
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Decl,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    If,
    IntLit,
    Node,
    ParGroup,
    Program,
    Stmt,
    Ternary,
    UnaryOp,
    Var,
    While,
)


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and every descendant, pre-order."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(current.children())


class NodeVisitor:
    """Dispatches ``visit_<ClassName>`` methods; default recurses."""

    def visit(self, node: Node):
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node):
        for child in node.children():
            self.visit(child)


class NodeTransformer:
    """Rebuilds the tree bottom-up; ``visit_<ClassName>`` may return a
    replacement node.  The input tree is never mutated."""

    def visit(self, node: Node) -> Node:
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node) -> Node:
        if isinstance(node, (IntLit, FloatLit, Var)):
            return node.clone()
        if isinstance(node, ArrayRef):
            return ArrayRef(node.name, [self.visit(i) for i in node.indices], node.loc)
        if isinstance(node, BinOp):
            return BinOp(node.op, self.visit(node.left), self.visit(node.right), node.loc)
        if isinstance(node, UnaryOp):
            return UnaryOp(node.op, self.visit(node.operand), node.loc)
        if isinstance(node, Ternary):
            return Ternary(
                self.visit(node.cond), self.visit(node.then), self.visit(node.els), node.loc
            )
        if isinstance(node, Call):
            return Call(node.name, [self.visit(a) for a in node.args], node.loc)
        if isinstance(node, Decl):
            init = self.visit(node.init) if node.init is not None else None
            return Decl(node.type, node.name, node.dims, init, node.loc)
        if isinstance(node, Assign):
            return Assign(self.visit(node.target), self.visit(node.value), node.op, node.loc)
        if isinstance(node, ExprStmt):
            return ExprStmt(self.visit(node.expr), node.loc)
        if isinstance(node, If):
            return If(
                self.visit(node.cond),
                [self.visit(s) for s in node.then],
                [self.visit(s) for s in node.els],
                node.loc,
            )
        if isinstance(node, For):
            return For(
                self.visit(node.init) if node.init is not None else None,
                self.visit(node.cond) if node.cond is not None else None,
                self.visit(node.step) if node.step is not None else None,
                [self.visit(s) for s in node.body],
                node.loc,
            )
        if isinstance(node, While):
            return While(self.visit(node.cond), [self.visit(s) for s in node.body], node.loc)
        if isinstance(node, ParGroup):
            return ParGroup([self.visit(s) for s in node.stmts], node.loc)
        if isinstance(node, Program):
            return Program([self.visit(s) for s in node.body], node.loc)
        return node.clone()


# ---------------------------------------------------------------------------
# Collection helpers
# ---------------------------------------------------------------------------


def collect_vars(node: Node) -> Set[str]:
    """Names of every scalar variable mentioned anywhere in the subtree."""
    return {n.name for n in walk(node) if isinstance(n, Var)}


def collect_array_refs(node: Node) -> List[ArrayRef]:
    """Every array reference in the subtree, in traversal order."""
    return [n for n in walk(node) if isinstance(n, ArrayRef)]


def collect_calls(node: Node) -> List[Call]:
    """Every function call in the subtree."""
    return [n for n in walk(node) if isinstance(n, Call)]


def used_scalars(stmt: Stmt) -> Set[str]:
    """Scalar names *read* by a statement.

    For ``x = e`` the target is not a use; for ``x += e`` it is.  Scalars
    inside array subscripts count as uses.
    """
    if isinstance(stmt, Assign):
        used: Set[str] = set()
        used |= collect_vars(stmt.expanded_value())
        if isinstance(stmt.target, ArrayRef):
            for idx in stmt.target.indices:
                used |= collect_vars(idx)
        return used
    if isinstance(stmt, If):
        used = collect_vars(stmt.cond)
        for s in stmt.then:
            used |= used_scalars(s)
        for s in stmt.els:
            used |= used_scalars(s)
        return used
    if isinstance(stmt, ExprStmt):
        return collect_vars(stmt.expr)
    if isinstance(stmt, ParGroup):
        used = set()
        for s in stmt.stmts:
            used |= used_scalars(s)
        return used
    if isinstance(stmt, Decl):
        return collect_vars(stmt.init) if stmt.init is not None else set()
    # Loops and control statements: conservatively everything mentioned.
    return collect_vars(stmt)


def defined_scalars(stmt: Stmt) -> Set[str]:
    """Scalar names *written* by a statement."""
    if isinstance(stmt, Assign):
        return {stmt.target.name} if isinstance(stmt.target, Var) else set()
    if isinstance(stmt, If):
        defined: Set[str] = set()
        for s in stmt.then:
            defined |= defined_scalars(s)
        for s in stmt.els:
            defined |= defined_scalars(s)
        return defined
    if isinstance(stmt, ParGroup):
        defined = set()
        for s in stmt.stmts:
            defined |= defined_scalars(s)
        return defined
    if isinstance(stmt, Decl):
        return {stmt.name} if not stmt.dims else set()
    if isinstance(stmt, (For, While)):
        defined = set()
        for child in stmt.children():
            if isinstance(child, Stmt):
                defined |= defined_scalars(child)
        return defined
    return set()


# ---------------------------------------------------------------------------
# Rewriters
# ---------------------------------------------------------------------------


def _fold_binop(
    op: str, left: Expr, right: Expr, loc, orig: Optional[BinOp] = None
) -> Expr:
    """Fold a binary node whose children are *already folded*.

    When ``orig`` is given and no rule fires on unchanged children, the
    original node is returned instead of an identical rebuild (see the
    ``reuse`` mode of the rewriters below).
    """
    if type(left) is IntLit and type(right) is IntLit:
        if op == "+":
            return IntLit(left.value + right.value, loc)
        if op == "-":
            return IntLit(left.value - right.value, loc)
        if op == "*":
            return IntLit(left.value * right.value, loc)
    # (v + a) + b  ->  v + (a+b)
    if (
        op in ("+", "-")
        and type(right) is IntLit
        and type(left) is BinOp
        and left.op in ("+", "-")
        and type(left.right) is IntLit
    ):
        a = left.right.value if left.op == "+" else -left.right.value
        b = right.value if op == "+" else -right.value
        total = a + b
        if total == 0:
            return left.left
        if total > 0:
            return BinOp("+", left.left, IntLit(total), loc)
        return BinOp("-", left.left, IntLit(-total), loc)
    if op in ("+", "-") and type(right) is IntLit and right.value == 0:
        return left
    if op == "+" and type(left) is IntLit and left.value == 0:
        return right
    if orig is not None and left is orig.left and right is orig.right:
        return orig
    return BinOp(op, left, right, loc)


def _subst_fold(
    expr: Expr,
    var: Optional[str],
    replacement: Optional[Expr],
    reuse: bool = False,
) -> Expr:
    """Substitute ``replacement`` for every ``Var(var)`` in ``expr`` and
    constant-fold integer +/-/* (so shifted indices stay readable), in a
    single bottom-up pass; ``var`` ``None`` only folds.

    The substitution only touches ``Var`` leaves and folding is
    bottom-up, so folding substituted children before the parent builds
    the same tree as substituting first and folding after.  Untouched
    leaves are shared with the input, never mutated.

    With ``reuse`` the pass returns the *original* subtree object
    wherever nothing changed — the output then shares interior nodes
    (not just leaves) with the input — and every substituted occurrence
    is ``replacement`` itself, which the caller has already folded.
    Callers that treat both trees as read-only (the schedule validator)
    opt in to make repeated canonicalization of shared subtrees O(1);
    everyone else keeps the rebuild-always behaviour.

    Dispatch is on the exact node class: no AST node class is
    subclassed.
    """
    kind = type(expr)
    if kind is Var:
        if expr.name != var:
            return expr
        if reuse:
            return replacement  # type: ignore[return-value]
        return _subst_fold(replacement.clone(), None, None)  # type: ignore[union-attr]
    if kind is IntLit or kind is FloatLit:
        return expr
    if kind is BinOp:
        return _fold_binop(
            expr.op,
            _subst_fold(expr.left, var, replacement, reuse),
            _subst_fold(expr.right, var, replacement, reuse),
            expr.loc,
            expr if reuse else None,
        )
    if kind is ArrayRef:
        indices = [_subst_fold(i, var, replacement, reuse) for i in expr.indices]
        if reuse and all(n is o for n, o in zip(indices, expr.indices)):
            return expr
        return ArrayRef(expr.name, indices, expr.loc)
    if kind is UnaryOp:
        inner = _subst_fold(expr.operand, var, replacement, reuse)
        if expr.op == "-" and type(inner) is IntLit:
            return IntLit(-inner.value, expr.loc)
        if reuse and inner is expr.operand:
            return expr
        return UnaryOp(expr.op, inner, expr.loc)
    if kind is Ternary:
        cond = _subst_fold(expr.cond, var, replacement, reuse)
        then = _subst_fold(expr.then, var, replacement, reuse)
        els = _subst_fold(expr.els, var, replacement, reuse)
        if reuse and cond is expr.cond and then is expr.then and els is expr.els:
            return expr
        return Ternary(cond, then, els, expr.loc)
    if kind is Call:
        args = [_subst_fold(a, var, replacement, reuse) for a in expr.args]
        if reuse and all(n is o for n, o in zip(args, expr.args)):
            return expr
        return Call(expr.name, args, expr.loc)
    return expr


class _SubstFolder(NodeTransformer):
    def __init__(self, var: Optional[str], replacement: Optional[Expr], reuse: bool):
        self.var = var
        self.replacement = replacement
        self.reuse = reuse

    def visit(self, node: Node) -> Node:
        if isinstance(node, Expr):
            return _subst_fold(node, self.var, self.replacement, self.reuse)
        return self.generic_visit(node)


def _rewrite(
    node: Node, var: Optional[str], replacement: Optional[Expr], reuse: bool
) -> Node:
    if reuse and replacement is not None:
        replacement = _subst_fold(replacement, None, None, True)
    if type(node) is Assign:
        # Nearly every rewritten statement is an assignment (the
        # schedule validator rewrites one per replayed instance):
        # rebuild those directly, not through the transformer's dispatch.
        return Assign(
            _subst_fold(node.target, var, replacement, reuse),
            _subst_fold(node.value, var, replacement, reuse),
            node.op,
            node.loc,
        )
    return _SubstFolder(var, replacement, reuse).visit(node)


def fold_constants(node: Node, reuse: bool = False) -> Node:
    """Return a copy with integer constant arithmetic folded.

    ``reuse`` opts in to sharing unchanged *interior* nodes with the
    input (see :func:`_subst_fold`); only safe when the caller never
    mutates either tree.
    """
    return _rewrite(node, None, None, reuse)


def substitute_index(node: Node, var: str, offset: int) -> Node:
    """Return a copy of ``node`` with loop index ``var`` shifted by ``offset``.

    ``substitute_index(A[i-1] = A[i+1], "i", 2)`` gives ``A[i+1] = A[i+3]``.
    Constants are folded after substitution so indices stay canonical.
    """
    if offset == 0:
        return fold_constants(node)
    replacement: Expr
    if offset > 0:
        replacement = BinOp("+", Var(var), IntLit(offset))
    else:
        replacement = BinOp("-", Var(var), IntLit(-offset))
    return substitute_expr(node, var, replacement)


def substitute_expr(
    node: Node, var: str, replacement: Expr, reuse: bool = False
) -> Node:
    """Return a copy with every ``Var(var)`` replaced by ``replacement``,
    folding constants as it rebuilds (one fused pass).

    ``reuse`` opts in to sharing unchanged interior nodes, and one
    folded ``replacement``, with the input (see :func:`_subst_fold`);
    only safe for read-only callers.
    """
    return _rewrite(node, var, replacement, reuse)


class _ScalarRenamer(NodeTransformer):
    def __init__(self, mapping: Dict[str, str]):
        self.mapping = mapping

    def visit_Var(self, node: Var) -> Var:
        return Var(self.mapping.get(node.name, node.name), node.loc)


def rename_scalar(node: Node, old: str, new: str) -> Node:
    """Return a copy with scalar ``old`` renamed to ``new`` (arrays untouched)."""
    return _ScalarRenamer({old: new}).visit(node)


def rename_scalars(node: Node, mapping: Dict[str, str]) -> Node:
    """Rename several scalars at once."""
    return _ScalarRenamer(dict(mapping)).visit(node)


# ---------------------------------------------------------------------------
# Operation counting (used by the §4 bad-case filter and machine models)
# ---------------------------------------------------------------------------


def count_ops(node: Node) -> Dict[str, int]:
    """Count load/store/arithmetic operations in a subtree.

    Returns a dict with keys ``"load"``, ``"store"``, ``"arith"``,
    ``"mul"``, ``"div"``, ``"addr_arith"``, ``"call"``.  Array reads count
    as loads, array writes as stores.  Arithmetic *inside array
    subscripts* is address computation — the paper's §4 AO count excludes
    it (its swap-loop example has AO=1, the single ``*2``) — so it is
    reported separately as ``addr_arith``.
    """
    counts = {
        "load": 0,
        "store": 0,
        "arith": 0,
        "mul": 0,
        "div": 0,
        "addr_arith": 0,
        "call": 0,
    }

    def count_addr(expr: Expr) -> None:
        for n in walk(expr):
            if isinstance(n, BinOp) and n.op in ARITH_OPS:
                counts["addr_arith"] += 1

    def visit_expr(expr: Expr) -> None:
        # Manual stack walk so array subscripts route to count_addr.
        stack: List[Expr] = [expr]
        while stack:
            n = stack.pop()
            if isinstance(n, ArrayRef):
                counts["load"] += 1
                for idx in n.indices:
                    count_addr(idx)
                continue
            if isinstance(n, BinOp) and n.op in ARITH_OPS:
                counts["arith"] += 1
                if n.op == "*":
                    counts["mul"] += 1
                elif n.op in ("/", "%"):
                    counts["div"] += 1
            elif isinstance(n, Call):
                counts["call"] += 1
            stack.extend(c for c in n.children() if isinstance(c, Expr))

    def visit_stmt(stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            visit_expr(stmt.expanded_value())
            if isinstance(stmt.target, ArrayRef):
                counts["store"] += 1
                # Compound ops re-read the target: expanded_value() already
                # cloned it as a load, so only the store itself is added here.
                if stmt.op is None:
                    for idx in stmt.target.indices:
                        count_addr(idx)
        elif isinstance(stmt, If):
            visit_expr(stmt.cond)
            for s in stmt.then:
                visit_stmt(s)
            for s in stmt.els:
                visit_stmt(s)
        elif isinstance(stmt, ExprStmt):
            visit_expr(stmt.expr)
        elif isinstance(stmt, ParGroup):
            for s in stmt.stmts:
                visit_stmt(s)
        elif isinstance(stmt, (For, While)):
            if isinstance(stmt, While):
                visit_expr(stmt.cond)
            for s in stmt.body:
                visit_stmt(s)
        elif isinstance(stmt, Decl) and stmt.init is not None:
            visit_expr(stmt.init)

    if isinstance(node, Program):
        for s in node.body:
            visit_stmt(s)
    elif isinstance(node, Stmt):
        visit_stmt(node)
    else:
        visit_expr(node)  # type: ignore[arg-type]
    return counts
