"""Direct interpreter for the C subset — the project's semantics oracle.

Every SLMS/loop transformation in this repository is verified by running
the original and the transformed program through this interpreter on
identical initial state and requiring *bit-identical* final memory (see
:func:`state_equal`).  The interpreter therefore implements a precise,
deterministic semantics:

* ``int`` variables hold Python ints; ``/`` and ``%`` between ints use
  C semantics (truncation toward zero, remainder with the dividend's
  sign).
* ``float`` variables hold IEEE-754 doubles (Python floats), matching
  the LIR interpreter so cross-checks are exact.
* Arrays are bounds-checked numpy arrays (``int64``/``float64``).
* ``&&``/``||`` short-circuit; comparisons yield ``0``/``1``.
* Opaque calls dispatch to a caller-supplied function table; a small set
  of pure math builtins (``min``/``max``/``abs``/``sqrt``/…) is always
  available.
* A step budget guards against non-terminating loops in generated tests.

This tree-walker is the source IR's reference executor; its one fast
path is the compiled oracle in :mod:`repro.sim.interp_compile`, which
falls back here for anything outside its compilable subset.  The fuzz
oracle runs every randomized store through :func:`run_program_batched`,
one tree walk per store.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.lang.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Break,
    Call,
    Continue,
    Decl,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    If,
    IntLit,
    ParGroup,
    Program,
    Stmt,
    Ternary,
    UnaryOp,
    Var,
    While,
)


class InterpError(Exception):
    """Raised on runtime errors: OOB access, div-by-zero, budget exhausted."""


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


def _c_div(a: int, b: int) -> int:
    """C integer division: truncation toward zero."""
    if b == 0:
        raise InterpError("integer division by zero")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _c_mod(a: int, b: int) -> int:
    """C remainder: sign follows the dividend, ``a == (a/b)*b + a%b``."""
    if b == 0:
        raise InterpError("integer modulo by zero")
    return a - _c_div(a, b) * b


_BUILTINS: Dict[str, Callable[..., Any]] = {
    "abs": abs,
    "min": min,
    "max": max,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "floor": math.floor,
    "ceil": math.ceil,
    "pow": pow,
}


class Interpreter:
    """Executes a :class:`~repro.lang.ast_nodes.Program`.

    Parameters
    ----------
    env:
        Initial variable bindings.  Scalars are ints/floats; arrays are
        numpy arrays (copied, so the caller's arrays are never mutated).
    functions:
        Extra call targets, merged over the math builtins.
    max_steps:
        Statement-execution budget; :class:`InterpError` when exhausted.
    """

    def __init__(
        self,
        env: Optional[Mapping[str, Any]] = None,
        functions: Optional[Mapping[str, Callable[..., Any]]] = None,
        max_steps: int = 2_000_000,
    ):
        self.scalars: Dict[str, Any] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        self.types: Dict[str, str] = {}
        self.functions: Dict[str, Callable[..., Any]] = dict(_BUILTINS)
        if functions:
            self.functions.update(functions)
        self.max_steps = max_steps
        self.steps = 0
        if env:
            for name, value in env.items():
                if isinstance(value, np.ndarray):
                    array = np.array(value)  # defensive copy
                    self.arrays[name] = array
                    self.types[name] = (
                        "int" if np.issubdtype(array.dtype, np.integer) else "float"
                    )
                elif isinstance(value, (bool, int, np.integer)):
                    self.scalars[name] = int(value)
                    self.types[name] = "int"
                else:
                    self.scalars[name] = float(value)
                    self.types[name] = "float"

    # -- state access -----------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """A snapshot of all scalars and arrays (arrays are copies)."""
        out: Dict[str, Any] = dict(self.scalars)
        for name, array in self.arrays.items():
            out[name] = array.copy()
        return out

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpError(f"step budget exceeded ({self.max_steps})")

    # -- declarations -------------------------------------------------------
    def _declare(self, decl: Decl) -> None:
        if decl.dims:
            dtype = np.int64 if decl.type == "int" else np.float64
            if decl.name not in self.arrays:
                self.arrays[decl.name] = np.zeros(decl.dims, dtype=dtype)
            self.types[decl.name] = decl.type
        else:
            self.types[decl.name] = decl.type
            if decl.init is not None:
                self._assign_scalar(decl.name, self.eval(decl.init))
            elif decl.name not in self.scalars:
                self.scalars[decl.name] = 0 if decl.type == "int" else 0.0

    def _assign_scalar(self, name: str, value: Any) -> None:
        typ = self.types.get(name)
        if typ == "int":
            self.scalars[name] = int(value)
        elif typ == "float":
            self.scalars[name] = float(value)
        else:
            # Undeclared: dynamic typing, int stays int, float stays float.
            self.scalars[name] = (
                int(value) if isinstance(value, (bool, int, np.integer)) else float(value)
            )

    # -- expressions -----------------------------------------------------------
    def eval(self, expr: Expr) -> Any:
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, FloatLit):
            return expr.value
        if isinstance(expr, Var):
            try:
                return self.scalars[expr.name]
            except KeyError:
                raise InterpError(f"read of unbound variable {expr.name!r}") from None
        if isinstance(expr, ArrayRef):
            return self._load(expr)
        if isinstance(expr, BinOp):
            return self._binop(expr)
        if isinstance(expr, UnaryOp):
            if expr.op == "!":
                return 0 if self._truthy(expr.operand) else 1
            value = self.eval(expr.operand)
            return -value if expr.op == "-" else value
        if isinstance(expr, Ternary):
            return self.eval(expr.then) if self._truthy(expr.cond) else self.eval(expr.els)
        if isinstance(expr, Call):
            fn = self.functions.get(expr.name)
            if fn is None:
                raise InterpError(f"call to unknown function {expr.name!r}")
            return fn(*(self.eval(a) for a in expr.args))
        raise InterpError(f"cannot evaluate {type(expr).__name__}")

    def _truthy(self, expr: Expr) -> bool:
        return self.eval(expr) != 0

    def _binop(self, expr: BinOp) -> Any:
        op = expr.op
        if op == "&&":
            return 1 if (self._truthy(expr.left) and self._truthy(expr.right)) else 0
        if op == "||":
            return 1 if (self._truthy(expr.left) or self._truthy(expr.right)) else 0
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if op == "<":
            return 1 if left < right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == ">=":
            return 1 if left >= right else 0
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        both_int = isinstance(left, (bool, int, np.integer)) and isinstance(
            right, (bool, int, np.integer)
        )
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if both_int:
                return _c_div(int(left), int(right))
            if float(right) == 0.0:
                raise InterpError("float division by zero")
            return left / right
        if op == "%":
            if both_int:
                return _c_mod(int(left), int(right))
            raise InterpError("% requires integer operands")
        raise InterpError(f"unknown operator {op!r}")

    # -- array access -------------------------------------------------------------
    def _resolve(self, ref: ArrayRef) -> tuple[np.ndarray, tuple[int, ...]]:
        array = self.arrays.get(ref.name)
        if array is None:
            raise InterpError(f"reference to undeclared array {ref.name!r}")
        if len(ref.indices) != array.ndim:
            raise InterpError(
                f"array {ref.name!r} has {array.ndim} dims, indexed with "
                f"{len(ref.indices)}"
            )
        idx = tuple(int(self.eval(e)) for e in ref.indices)
        for axis, (i, size) in enumerate(zip(idx, array.shape)):
            if not 0 <= i < size:
                raise InterpError(
                    f"index {i} out of bounds for axis {axis} of {ref.name!r} "
                    f"(size {size})"
                )
        return array, idx

    def _load(self, ref: ArrayRef) -> Any:
        array, idx = self._resolve(ref)
        value = array[idx]
        return int(value) if np.issubdtype(array.dtype, np.integer) else float(value)

    def _store(self, ref: ArrayRef, value: Any) -> None:
        array, idx = self._resolve(ref)
        array[idx] = value

    # -- statements ----------------------------------------------------------------
    def exec_stmt(self, stmt: Stmt) -> None:
        self._tick()
        if isinstance(stmt, Decl):
            self._declare(stmt)
        elif isinstance(stmt, Assign):
            value = self.eval(stmt.expanded_value())
            if isinstance(stmt.target, Var):
                self._assign_scalar(stmt.target.name, value)
            else:
                self._store(stmt.target, value)
        elif isinstance(stmt, ExprStmt):
            self.eval(stmt.expr)
        elif isinstance(stmt, If):
            branch = stmt.then if self._truthy(stmt.cond) else stmt.els
            self.exec_block(branch)
        elif isinstance(stmt, While):
            while self._truthy(stmt.cond):
                self._tick()
                try:
                    self.exec_block(stmt.body)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(stmt, For):
            if stmt.init is not None:
                self.exec_stmt(stmt.init)
            while stmt.cond is None or self._truthy(stmt.cond):
                self._tick()
                try:
                    self.exec_block(stmt.body)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if stmt.step is not None:
                    self.exec_stmt(stmt.step)
        elif isinstance(stmt, ParGroup):
            # SLMS guarantees the listed order is a legal serialization.
            self.exec_block(stmt.stmts)
        elif isinstance(stmt, Break):
            raise _BreakSignal()
        elif isinstance(stmt, Continue):
            raise _ContinueSignal()
        else:
            raise InterpError(f"cannot execute {type(stmt).__name__}")

    def exec_block(self, stmts) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def run(self, program: Program) -> Dict[str, Any]:
        """Execute the program and return the final state snapshot."""
        self.exec_block(program.body)
        return self.state()


def run_program(
    program: Program,
    env: Optional[Mapping[str, Any]] = None,
    functions: Optional[Mapping[str, Callable[..., Any]]] = None,
    max_steps: int = 2_000_000,
) -> Dict[str, Any]:
    """One-shot: interpret ``program`` from ``env``, return final state."""
    return Interpreter(env=env, functions=functions, max_steps=max_steps).run(program)


def run_program_batched(
    program: Program,
    envs: List[Mapping[str, Any]],
    functions: Optional[Mapping[str, Callable[..., Any]]] = None,
    max_steps: int = 2_000_000,
) -> List[Union[Dict[str, Any], InterpError]]:
    """Interpret ``program`` once per initial store in ``envs``.

    Returns one outcome per env, in order: the final state dict, or the
    :class:`InterpError` that env's run raises — exactly what per-env
    :func:`run_program` produces.  Non-:class:`InterpError` exceptions
    propagate just as they would from :func:`run_program`.
    """
    outcomes: List[Union[Dict[str, Any], InterpError]] = []
    for env in envs:
        interp = Interpreter(env=env, functions=functions, max_steps=max_steps)
        try:
            outcomes.append(interp.run(program))
        except InterpError as exc:
            outcomes.append(exc)
    return outcomes


def state_equal(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    ignore: Optional[set] = None,
    arrays_only: bool = False,
) -> bool:
    """Compare two interpreter states bit-exactly.

    ``ignore`` names variables excluded from the comparison (SLMS
    introduces fresh temporaries — ``reg1`` etc. — that exist on only one
    side).  With ``arrays_only`` set, scalar bindings are skipped, which
    is the right contract for transformations that are allowed to leave
    different values in dead temporaries but must agree on memory.
    """
    ignore = ignore or set()
    keys_a = {k for k in a if k not in ignore}
    keys_b = {k for k in b if k not in ignore}
    if arrays_only:
        keys_a = {k for k in keys_a if isinstance(a[k], np.ndarray)}
        keys_b = {k for k in keys_b if isinstance(b[k], np.ndarray)}
    if keys_a != keys_b:
        return False
    for key in keys_a:
        va, vb = a[key], b[key]
        if isinstance(va, np.ndarray) != isinstance(vb, np.ndarray):
            return False
        if isinstance(va, np.ndarray):
            if va.shape != vb.shape or va.dtype != vb.dtype:
                return False
            # Bit-exact comparison; NaN == NaN counts as equal.
            if not np.array_equal(va, vb, equal_nan=True):
                return False
        else:
            if isinstance(va, float) and isinstance(vb, float):
                if math.isnan(va) and math.isnan(vb):
                    continue
            if va != vb:
                return False
    return True
