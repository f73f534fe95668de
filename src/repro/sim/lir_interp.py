"""Functional LIR interpreter.

Executes a :class:`~repro.backend.lir.Module` with exact semantics
(C integer division, IEEE doubles, bounds-checked arrays) so backend
passes can be validated against the source-level interpreter: codegen,
register allocation and scheduling must all leave final memory
bit-identical.

An :class:`Observer` receives block-execution and memory-access events;
the cycle simulator's reference accounting
(:class:`repro.sim.executor._DynamicTimingObserver`) plugs in there
without duplicating the semantics.

Performance: every instruction is pre-decoded into a bound closure at
:class:`LIRInterpreter` construction — operand slots, immediates, array
buffers and binop/unop callables are resolved exactly once, so the step
loop is a plain ``for fn in ops: fn()`` with no per-instruction string
dispatch.  The ``on_instr`` / ``on_mem`` observer hooks are only wired
into the closures when the observer actually overrides them, so a
plain functional run pays no Python call per instruction.  The
simulator's fast path (:mod:`repro.sim.codegen_exec`) subclasses this
interpreter and replaces each block's closures with one generated
function.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.backend.lir import Block, Instr, Module
from repro.sim.interp import InterpError, _c_div, _c_mod


class Observer:
    """Execution event hooks; default implementation ignores everything."""

    def on_block(self, block_name: str, module: Module) -> None:
        """A basic block is about to execute."""

    def on_mem(self, array: str, flat_index: int, is_store: bool) -> None:
        """A load/store touches ``array[flat_index]``."""

    def on_instr(self, instr: Instr) -> None:
        """An instruction executed (for op-mix accounting).

        Only delivered when the observer *overrides* this method;
        overriding costs a Python call per executed instruction.
        """


_BINOPS: Dict[str, Callable[[Any, Any], Any]] = {
    "add": lambda a, b: int(a) + int(b),
    "sub": lambda a, b: int(a) - int(b),
    "mul": lambda a, b: int(a) * int(b),
    "div": lambda a, b: _c_div(int(a), int(b)),
    "mod": lambda a, b: _c_mod(int(a), int(b)),
    "fadd": lambda a, b: float(a) + float(b),
    "fsub": lambda a, b: float(a) - float(b),
    "fmul": lambda a, b: float(a) * float(b),
    "lt": lambda a, b: 1 if a < b else 0,
    "le": lambda a, b: 1 if a <= b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
    "ge": lambda a, b: 1 if a >= b else 0,
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "and": lambda a, b: 1 if (a != 0 and b != 0) else 0,
    "or": lambda a, b: 1 if (a != 0 or b != 0) else 0,
    "vmin": min,
    "vmax": max,
    "powr": lambda a, b: float(a) ** float(b),
}

_UNOPS: Dict[str, Callable[[Any], Any]] = {
    "neg": lambda a: -int(a),
    "fneg": lambda a: -float(a),
    "not": lambda a: 0 if a != 0 else 1,
    "vabs": abs,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "floorr": math.floor,
    "ceilr": math.ceil,
}


class LIRInterpreter:
    """Interprets a module; see :func:`run_module` for the one-shot API."""

    def __init__(
        self,
        module: Module,
        env: Optional[Mapping[str, Any]] = None,
        functions: Optional[Mapping[str, Callable[..., Any]]] = None,
        observer: Optional[Observer] = None,
        max_steps: int = 50_000_000,
    ):
        self.module = module
        self.regs: Dict[str, Any] = {}
        self.memory: Dict[str, np.ndarray] = {}
        self.functions = dict(functions or {})
        self.observer = observer or Observer()
        self.max_steps = max_steps
        self.steps = 0

        self.spill: Dict[int, Any] = {}

        env = env or {}
        for name, (dims, typ) in module.arrays.items():
            dtype = np.int64 if typ == "int" else np.float64
            size = int(np.prod(dims))
            if name in env and isinstance(env[name], np.ndarray):
                flat = np.array(env[name], dtype=dtype).reshape(-1)
                if flat.size != size:
                    raise InterpError(
                        f"array {name!r} env size {flat.size} != declared {size}"
                    )
                self.memory[name] = flat.copy()
            else:
                self.memory[name] = np.zeros(size, dtype=dtype)
        for name, value in env.items():
            if isinstance(value, np.ndarray):
                continue
            if name in module.scalar_slots:
                self.spill[module.scalar_slots[name]] = (
                    int(value)
                    if module.scalar_types.get(name) == "int"
                    else value
                )
                continue
            reg = module.scalar_regs.get(name)
            if reg is not None:
                self.regs[reg] = (
                    int(value)
                    if module.scalar_types.get(name) == "int"
                    else value
                )

        # Pre-decode: one closure per instruction, bound to the final
        # register file / arrays, grouped per block in fallthrough order.
        wants_instr = type(self.observer).on_instr is not Observer.on_instr
        wants_mem = type(self.observer).on_mem is not Observer.on_mem
        self._program: List[List[Callable[[], Optional[str]]]] = [
            self._compile_block(module.blocks[name], wants_instr, wants_mem)
            for name in module.order
        ]
        self._block_index: Dict[str, int] = {
            name: idx for idx, name in enumerate(module.order)
        }
        # Step budget charged per block entry (full static length — dead
        # instructions after an unconditional ``br`` still count, exactly
        # as the ``steps += len(ops)`` accounting always has).  Kept as a
        # separate list so subclasses that fuse a block into a single
        # callable (see :mod:`repro.sim.codegen_exec`) charge the same
        # budget as the closure path.
        self._block_steps: List[int] = [
            len(module.blocks[name].instrs) for name in module.order
        ]

    # ------------------------------------------------------------------
    def _get(self, reg: str) -> Any:
        # Uninitialized registers read as 0 (declared scalars default to
        # zero in the source semantics).
        return self.regs.get(reg, 0)

    def _set(self, reg: str, value: Any) -> None:
        self.regs[reg] = value

    # ------------------------------------------------------------------
    def _compile_block(
        self, block: Block, wants_instr: bool, wants_mem: bool
    ) -> List[Callable[[], Optional[str]]]:
        ops = [self._bind(instr, wants_mem) for instr in block.instrs]
        if wants_instr:
            on_instr = self.observer.on_instr

            def wrap(fn, instr):
                def stepped() -> Optional[str]:
                    on_instr(instr)
                    return fn()

                return stepped

            ops = [wrap(fn, instr) for fn, instr in zip(ops, block.instrs)]
        return ops

    def _bind(
        self, instr: Instr, wants_mem: bool
    ) -> Callable[[], Optional[str]]:
        """Pre-decode one instruction into a zero-argument closure.

        The closure returns the branch target label when control
        transfers, else ``None``.  All operand lookups are resolved here,
        once, rather than per executed instruction.
        """
        op = instr.op
        regs = self.regs
        dst = instr.dst
        srcs = instr.srcs

        if op == "movi":
            imm = instr.imm

            def movi() -> None:
                regs[dst] = imm

            return movi
        if op == "mov":
            src = srcs[0]

            def mov() -> None:
                regs[dst] = regs.get(src, 0)

            return mov
        if op == "trunc":
            src = srcs[0]

            # C float->int conversion truncates toward zero.
            def trunc() -> None:
                regs[dst] = int(regs.get(src, 0))

            return trunc
        if op == "ld":
            if instr.array == "__spill":
                spill = self.spill
                disp = instr.disp
                if wants_mem:
                    on_mem = self.observer.on_mem

                    def ld_spill_obs() -> None:
                        on_mem("__spill", disp, False)
                        regs[dst] = spill.get(disp, 0)

                    return ld_spill_obs

                def ld_spill() -> None:
                    regs[dst] = spill.get(disp, 0)

                return ld_spill
            return self._bind_ld(instr, wants_mem)
        if op == "st":
            if instr.array == "__spill":
                spill = self.spill
                disp = instr.disp
                val = srcs[0]
                if wants_mem:
                    on_mem = self.observer.on_mem

                    def st_spill_obs() -> None:
                        on_mem("__spill", disp, True)
                        spill[disp] = regs.get(val, 0)

                    return st_spill_obs

                def st_spill() -> None:
                    spill[disp] = regs.get(val, 0)

                return st_spill
            return self._bind_st(instr, wants_mem)
        if op == "fma":
            a, b, c = srcs

            # Matches the unfused pair bit-for-bit: Python rounds a*b to
            # double before adding (no single-rounding fusion).
            def fma() -> None:
                regs[dst] = float(regs.get(a, 0)) * float(
                    regs.get(b, 0)
                ) + float(regs.get(c, 0))

            return fma
        if op == "select":
            cond, a, b = srcs

            def select() -> None:
                regs[dst] = (
                    regs.get(a, 0) if regs.get(cond, 0) != 0 else regs.get(b, 0)
                )

            return select
        if op == "br":
            label = instr.label

            def br() -> Optional[str]:
                return label

            return br
        if op == "brf":
            label = instr.label
            src = srcs[0]

            def brf() -> Optional[str]:
                return label if regs.get(src, 0) == 0 else None

            return brf
        if op == "brt":
            label = instr.label
            src = srcs[0]

            def brt() -> Optional[str]:
                return label if regs.get(src, 0) != 0 else None

            return brt
        if op == "call":
            functions = self.functions
            fname = instr.name or ""

            def call() -> None:
                fn = functions.get(fname)
                if fn is None:
                    raise InterpError(f"call to unknown function {fname!r}")
                result = fn(*(regs.get(s, 0) for s in srcs))
                if dst is not None:
                    regs[dst] = result

            return call
        if op == "fdiv":
            a, b = srcs

            def fdiv() -> None:
                denom = float(regs.get(b, 0))
                if denom == 0.0:
                    raise InterpError("float division by zero")
                regs[dst] = float(regs.get(a, 0)) / denom

            return fdiv
        fn2 = _BINOPS.get(op)
        if fn2 is not None:
            a, b = srcs

            def binop() -> None:
                regs[dst] = fn2(regs.get(a, 0), regs.get(b, 0))

            return binop
        fn1 = _UNOPS.get(op)
        if fn1 is not None:
            src = srcs[0]

            def unop() -> None:
                regs[dst] = fn1(regs.get(src, 0))

            return unop

        # Unknown ops stay lazy: they only raise if actually executed,
        # matching the pre-decode-free interpreter's behavior.
        def unknown() -> None:
            raise InterpError(f"unknown LIR op {op!r}")

        return unknown

    def _bind_ld(
        self, instr: Instr, wants_mem: bool
    ) -> Callable[[], Optional[str]]:
        regs = self.regs
        dst = instr.dst
        array = self.memory[instr.array]  # type: ignore[index]
        array_name = instr.array
        disp = instr.disp
        size = array.size
        is_int = bool(np.issubdtype(array.dtype, np.integer))
        idx_reg = instr.srcs[0] if instr.srcs else None
        on_mem = self.observer.on_mem if wants_mem else None

        def ld() -> None:
            flat = (
                disp + int(regs.get(idx_reg, 0)) if idx_reg is not None else disp
            )
            if not 0 <= flat < size:
                raise InterpError(
                    f"ld out of bounds: {array_name}[{flat}] (size {size})"
                )
            if on_mem is not None:
                on_mem(array_name, flat, False)
            value = array[flat]
            regs[dst] = int(value) if is_int else float(value)

        return ld

    def _bind_st(
        self, instr: Instr, wants_mem: bool
    ) -> Callable[[], Optional[str]]:
        regs = self.regs
        array = self.memory[instr.array]  # type: ignore[index]
        array_name = instr.array
        disp = instr.disp
        size = array.size
        val_reg = instr.srcs[0]
        idx_reg = instr.srcs[1] if len(instr.srcs) > 1 else None
        on_mem = self.observer.on_mem if wants_mem else None

        def st() -> None:
            flat = (
                disp + int(regs.get(idx_reg, 0)) if idx_reg is not None else disp
            )
            if not 0 <= flat < size:
                raise InterpError(
                    f"st out of bounds: {array_name}[{flat}] (size {size})"
                )
            if on_mem is not None:
                on_mem(array_name, flat, True)
            array[flat] = regs.get(val_reg, 0)

        return st

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Execute from the entry block; returns the final state."""
        program = self._program
        block_index = self._block_index
        block_steps = self._block_steps
        order = self.module.order
        module = self.module
        on_block = self.observer.on_block
        max_steps = self.max_steps
        steps = self.steps
        idx = 0
        n = len(program)
        try:
            while 0 <= idx < n:
                on_block(order[idx], module)
                ops = program[idx]
                steps += block_steps[idx]
                if steps > max_steps:
                    raise InterpError("LIR step budget exceeded")
                jump: Optional[str] = None
                for fn in ops:
                    jump = fn()
                    if jump is not None:
                        break
                if jump is None:
                    idx += 1
                else:
                    target = block_index.get(jump)
                    if target is None:
                        raise InterpError(f"branch to unknown block {jump!r}")
                    idx = target
        finally:
            self.steps = steps
        return self.state()

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Final state in source-level terms (scalars + shaped arrays)."""
        out: Dict[str, Any] = {}
        for name, (dims, _typ) in self.module.arrays.items():
            out[name] = self.memory[name].reshape(dims).copy()
        for name, reg in self.module.scalar_regs.items():
            if name in self.module.scalar_slots:
                value = self.spill.get(self.module.scalar_slots[name], 0)
            else:
                value = self._get(reg)
            if self.module.scalar_types.get(name) == "int":
                out[name] = int(value)
            else:
                out[name] = float(value)
        return out


def run_module(
    module: Module,
    env: Optional[Mapping[str, Any]] = None,
    functions: Optional[Mapping[str, Callable[..., Any]]] = None,
    observer: Optional[Observer] = None,
    max_steps: int = 50_000_000,
) -> Dict[str, Any]:
    """One-shot: interpret ``module`` from ``env``, return final state."""
    return LIRInterpreter(
        module, env=env, functions=functions, observer=observer, max_steps=max_steps
    ).run()
