"""Functional LIR interpreter: the reference executor for the backend IR.

Executes a :class:`~repro.backend.lir.Module` with exact semantics
(C integer division, IEEE doubles, bounds-checked arrays) so backend
passes can be validated against the source-level interpreter: codegen,
register allocation and scheduling must all leave final memory
bit-identical.

:class:`LIRInterpreter` decodes and runs one instruction at a time and
reports every block entry, instruction and memory access to an
:class:`Observer`; the cycle simulator's reference accounting
(:class:`repro.sim.executor._DynamicTimingObserver`) plugs in there
without duplicating the semantics.  The simulator's fast path
(:mod:`repro.sim.codegen_exec`) is pinned to this pair.  It shares
:func:`seed_state` and :func:`final_state` with it (how ``env`` seeds
memory, registers and spill slots, and how the source-level state is
read back), and it runs its cold blocks through this interpreter's own
:meth:`LIRInterpreter.step`, over the fast path's state (the ``state``
argument), so the LIR semantics are stated once.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.backend.lir import Instr, Module
from repro.sim.interp import InterpError, _c_div, _c_mod


class Observer:
    """Execution event hooks; default implementation ignores everything."""

    def on_block(self, block_name: str, module: Module) -> None:
        """A basic block is about to execute."""

    def on_mem(self, array: str, flat_index: int, is_store: bool) -> None:
        """A load/store touches ``array[flat_index]``."""

    def on_instr(self, instr: Instr) -> None:
        """An instruction is about to execute (for op-mix accounting)."""


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


# Flat array memory, registers and spill slots of one run.
_State = Tuple[Dict[str, np.ndarray], Dict[str, Any], Dict[int, Any]]


def seed_state(module: Module, env: Optional[Mapping[str, Any]]) -> _State:
    """Flat array memory, registers and spill slots at entry.

    Arrays start as the ``env`` array of the same name (copied, and
    size-checked) or as zeros; scalars in ``env`` seed their spill slot
    if the allocator spilled them, else their register.
    """
    memory: Dict[str, np.ndarray] = {}
    regs: Dict[str, Any] = {}
    spill: Dict[int, Any] = {}
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
            memory[name] = flat
        else:
            memory[name] = np.zeros(size, dtype=dtype)
    for name, value in env.items():
        if isinstance(value, np.ndarray):
            continue
        slot = module.scalar_slots.get(name)
        reg = module.scalar_regs.get(name)
        if slot is None and reg is None:
            continue
        if module.scalar_types.get(name) == "int":
            value = int(value)
        if slot is not None:
            spill[slot] = value
        else:
            regs[reg] = value
    return memory, regs, spill


def final_state(
    module: Module,
    memory: Mapping[str, np.ndarray],
    regs: Mapping[str, Any],
    spill: Mapping[int, Any],
) -> Dict[str, Any]:
    """Final state in source-level terms (scalars + shaped arrays)."""
    out: Dict[str, Any] = {}
    for name, (dims, _typ) in module.arrays.items():
        out[name] = memory[name].reshape(dims).copy()
    for name, reg in module.scalar_regs.items():
        if name in module.scalar_slots:
            value = spill.get(module.scalar_slots[name], 0)
        else:
            value = regs.get(reg, 0)
        if module.scalar_types.get(name) == "int":
            out[name] = int(value)
        else:
            out[name] = float(value)
    return out


class LIRInterpreter:
    """Interprets a module; see :func:`run_module` for the one-shot API.

    Registers and spill slots never written read as 0 (declared
    scalars default to zero in the source semantics).  ``state``, a
    ``(memory, registers, spill)`` triple, makes the interpreter work
    on those dicts in place instead of seeding its own from ``env``.
    """

    def __init__(
        self,
        module: Module,
        env: Optional[Mapping[str, Any]] = None,
        functions: Optional[Mapping[str, Callable[..., Any]]] = None,
        observer: Optional[Observer] = None,
        max_steps: int = 50_000_000,
        state: Optional[_State] = None,
    ):
        self.module = module
        self.functions = dict(functions or {})
        self.observer = observer or Observer()
        self.max_steps = max_steps
        self.steps = 0
        self.memory, self.regs, self.spill = (
            seed_state(module, env) if state is None else state
        )

    def run(self) -> Dict[str, Any]:
        """Execute from the entry block; returns the final state."""
        module = self.module
        observer = self.observer
        order = module.order
        index = {name: idx for idx, name in enumerate(order)}
        idx = 0
        while idx < len(order):
            name = order[idx]
            instrs = module.blocks[name].instrs
            observer.on_block(name, module)
            # The budget is charged per block entry at the block's full
            # static length: dead instructions after a ``br`` count too.
            self.steps += len(instrs)
            if self.steps > self.max_steps:
                raise InterpError("LIR step budget exceeded")
            jump = self.step(instrs)
            if jump is None:
                idx += 1
            elif jump in index:
                idx = index[jump]
            else:
                raise InterpError(f"branch to unknown block {jump!r}")
        return final_state(module, self.memory, self.regs, self.spill)

    def step(self, instrs: Sequence[Instr]) -> Optional[str]:
        """Run one block's ``instrs`` in order, each reported to the
        observer first, until one transfers control; returns its target
        label, or ``None`` to fall through."""
        on_instr = self.observer.on_instr
        for instr in instrs:
            on_instr(instr)
            jump = self._execute(instr)
            if jump is not None:
                return jump
        return None

    def _execute(self, instr: Instr) -> Optional[str]:
        """Run one instruction; returns the branch target label when
        control transfers, else ``None``.  An unknown op raises only
        when it runs."""
        op = instr.op
        regs = self.regs
        srcs = instr.srcs
        if op in _BINOPS:
            a, b = srcs
            regs[instr.dst] = _BINOPS[op](regs.get(a, 0), regs.get(b, 0))
        elif op in _UNOPS:
            regs[instr.dst] = _UNOPS[op](regs.get(srcs[0], 0))
        elif op == "movi":
            regs[instr.dst] = instr.imm
        elif op == "mov":
            regs[instr.dst] = regs.get(srcs[0], 0)
        elif op == "trunc":
            # C float->int conversion truncates toward zero.
            regs[instr.dst] = int(regs.get(srcs[0], 0))
        elif op == "ld" or op == "st":
            self._access(instr, op == "st")
        elif op == "fma":
            a, b, c = srcs
            # Matches the unfused pair bit-for-bit: Python rounds a*b to
            # double before adding (no single-rounding fusion).
            regs[instr.dst] = float(regs.get(a, 0)) * float(
                regs.get(b, 0)
            ) + float(regs.get(c, 0))
        elif op == "select":
            cond, a, b = srcs
            regs[instr.dst] = (
                regs.get(a, 0) if regs.get(cond, 0) != 0 else regs.get(b, 0)
            )
        elif op == "br":
            return instr.label
        elif op == "brf":
            return instr.label if regs.get(srcs[0], 0) == 0 else None
        elif op == "brt":
            return instr.label if regs.get(srcs[0], 0) != 0 else None
        elif op == "call":
            fname = instr.name or ""
            fn = self.functions.get(fname)
            if fn is None:
                raise InterpError(f"call to unknown function {fname!r}")
            result = fn(*(regs.get(s, 0) for s in srcs))
            if instr.dst is not None:
                regs[instr.dst] = result
        elif op == "fdiv":
            a, b = srcs
            denom = float(regs.get(b, 0))
            if denom == 0.0:
                raise InterpError("float division by zero")
            regs[instr.dst] = float(regs.get(a, 0)) / denom
        else:
            raise InterpError(f"unknown LIR op {op!r}")
        return None

    def _access(self, instr: Instr, is_store: bool) -> None:
        """Run one ``ld``/``st``.  The observer sees an array access
        after its bounds check; spill slots have no bounds."""
        regs = self.regs
        name = instr.array
        if name == "__spill":
            self.observer.on_mem(name, instr.disp, is_store)
            if is_store:
                self.spill[instr.disp] = regs.get(instr.srcs[0], 0)
            else:
                regs[instr.dst] = self.spill.get(instr.disp, 0)
            return
        array = self.memory[name]  # type: ignore[index]
        # ``ld dst, [idx]`` / ``st val, [idx]``: the index is optional.
        index = instr.srcs[1:] if is_store else instr.srcs
        flat = instr.disp
        if index:
            flat += int(regs.get(index[0], 0))
        if not 0 <= flat < array.size:
            raise InterpError(
                f"{instr.op} out of bounds: {name}[{flat}] "
                f"(size {array.size})"
            )
        self.observer.on_mem(name, flat, is_store)
        if is_store:
            array[flat] = regs.get(instr.srcs[0], 0)
        else:
            value = array[flat]
            regs[instr.dst] = (
                int(value)
                if np.issubdtype(array.dtype, np.integer)
                else float(value)
            )


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
