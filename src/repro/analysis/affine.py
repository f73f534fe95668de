"""Affine normal form for array subscripts.

A subscript is *affine in the loop index* ``i`` when it can be written
``coeff * i + offset + Σ c_k · sym_k`` with integer ``coeff``/``offset``
and loop-invariant symbols ``sym_k`` (other scalar variables such as the
outer-loop index ``j`` or the bound ``n``).  Dependence distances between
two references cancel the symbolic parts when they match, which is how
``A[i + j]`` vs ``A[i + j - 1]`` still yields an exact distance of 1.

:func:`analyze_subscript` returns ``None`` for anything non-affine
(``A[i*i]``, ``A[B[i]]``, float arithmetic in a subscript, …); callers
treat that as "dependence unknown" and decline to pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.lang.ast_nodes import (
    ArrayRef,
    BinOp,
    Call,
    Expr,
    FloatLit,
    IntLit,
    Ternary,
    UnaryOp,
    Var,
)

SymTuple = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class AffineExpr:
    """``coeff * index + offset + Σ syms[name] * name``.

    ``syms`` is a canonical sorted tuple of ``(name, coeff)`` pairs with
    zero coefficients removed, so equality and hashing are structural.
    """

    coeff: int = 0
    offset: int = 0
    syms: SymTuple = field(default_factory=tuple)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def constant(value: int) -> "AffineExpr":
        return AffineExpr(0, value, ())

    @staticmethod
    def index(coeff: int = 1) -> "AffineExpr":
        return AffineExpr(coeff, 0, ())

    @staticmethod
    def symbol(name: str, coeff: int = 1) -> "AffineExpr":
        return AffineExpr(0, 0, ((name, coeff),))

    # -- arithmetic -----------------------------------------------------------
    def _sym_map(self) -> Mapping[str, int]:
        return dict(self.syms)

    @staticmethod
    def _normalize(mapping: Mapping[str, int]) -> SymTuple:
        return tuple(sorted((k, v) for k, v in mapping.items() if v != 0))

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        syms = dict(self._sym_map())
        for name, coeff in other.syms:
            syms[name] = syms.get(name, 0) + coeff
        return AffineExpr(
            self.coeff + other.coeff,
            self.offset + other.offset,
            self._normalize(syms),
        )

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return self + other.scale(-1)

    def scale(self, factor: int) -> "AffineExpr":
        return AffineExpr(
            self.coeff * factor,
            self.offset * factor,
            self._normalize({k: v * factor for k, v in self.syms}),
        )

    # -- queries -----------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return self.coeff == 0 and not self.syms

    def same_shape(self, other: "AffineExpr") -> bool:
        """True when the two expressions differ only in the constant term.

        This is the condition under which a dependence distance between
        subscripts is an exact integer regardless of symbol values.
        """
        return self.coeff == other.coeff and self.syms == other.syms

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.coeff:
            parts.append(f"{self.coeff}*i" if self.coeff != 1 else "i")
        for name, coeff in self.syms:
            parts.append(f"{coeff}*{name}" if coeff != 1 else name)
        if self.offset or not parts:
            parts.append(str(self.offset))
        return " + ".join(parts)


def analyze_subscript(expr: Expr, index_var: str) -> Optional[AffineExpr]:
    """Normalize ``expr`` to affine form in ``index_var``; ``None`` if not affine.

    Every scalar other than the index variable is treated as a
    loop-invariant symbol.  (If it is actually loop-variant, the scalar
    dependence analysis will already have created edges that serialize
    the statements involved, so treating it symbolically here is safe.)
    """
    if isinstance(expr, IntLit):
        return AffineExpr.constant(expr.value)
    if isinstance(expr, FloatLit):
        return None  # float subscripts are not integer-affine
    if isinstance(expr, Var):
        if expr.name == index_var:
            return AffineExpr.index()
        return AffineExpr.symbol(expr.name)
    if isinstance(expr, UnaryOp):
        inner = analyze_subscript(expr.operand, index_var)
        if inner is None:
            return None
        if expr.op == "-":
            return inner.scale(-1)
        if expr.op == "+":
            return inner
        return None  # logical not in a subscript: give up
    if isinstance(expr, BinOp):
        left = analyze_subscript(expr.left, index_var)
        right = analyze_subscript(expr.right, index_var)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            if left.is_constant:
                return right.scale(left.offset)
            if right.is_constant:
                return left.scale(right.offset)
            return None  # i*j, i*i: nonlinear
        if expr.op == "/":
            # Exact division by a constant that divides every coefficient
            # stays affine (A[(2*i)/2]); anything else is nonlinear.
            if right.is_constant and right.offset != 0:
                d = right.offset
                if (
                    left.coeff % d == 0
                    and left.offset % d == 0
                    and all(c % d == 0 for _, c in left.syms)
                ):
                    return AffineExpr(
                        left.coeff // d,
                        left.offset // d,
                        tuple((n, c // d) for n, c in left.syms),
                    )
            return None
        return None  # %, comparisons, logicals: not affine
    if isinstance(expr, (ArrayRef, Call, Ternary)):
        return None
    return None
