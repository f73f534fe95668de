"""Exec-compiled LIR blocks: the simulator's code-generation fast path.

The reference interpreter (:mod:`repro.sim.lir_interp`) dispatches
every instruction as it runs and reports every block, instruction and
memory access to an observer.  Because every block's executed prefix
is invariant (a conditional branch ends its block — IR check V217; see
:func:`repro.sim.executor._profile_blocks`), the whole block can
instead be generated as *one* Python function: instruction
semantics, the direct-mapped cache probe and the step and miss
accounting are inlined into straight-line source that is ``compile``'d
once per distinct block shape and ``exec``'d once per block instance.

Innermost loops get a second level of fusion: a conditional block
whose fallthrough body ends in an unconditional branch straight back
to it (the classic ``for``-loop shape the backend emits) is compiled
into a *loop superblock* — one function containing a ``while`` that
runs the entire loop, keeping registers in Python locals across
iterations and charging the step budget and execution count per
iteration exactly as the per-block dispatch loop would have.

Execution is tiered.  ``compile`` costs far more than running a
block once, and a small module (a fuzz case runs a few hundred LIR
instructions) runs most of its blocks only a few times.  So every
block starts *cold*: an entry runs it through the reference's own
step (:meth:`~repro.sim.lir_interp.LIRInterpreter.step`, over this
run's memory, registers and spill slots), with a probe observer that
counts misses in the same tags list and miss cell as the generated
code.  A block turns *hot* once it has run :data:`HOT_BUDGET`
instructions cold, and a self-loop as soon as it takes its first
back-edge; from then on its generated function takes every entry.
The dispatch loop, the step budget and the per-block counts are the
same for both tiers, so the tier a block runs in never shows in the
state, the metrics or an error.

This is the simulator's only execution path
(:func:`repro.sim.executor.execute`).  Its generated code shares no
code with the reference but how ``env`` seeds the run and how the
final state is read back (``lir_interp.seed_state``/``final_state``).
Strict equivalence with the reference — the LIR interpreter driven by
the per-instruction observer — is load-bearing, since experiment
digests are pinned byte-identical, so the generated code mirrors the
reference semantics operation for operation:

* the arithmetic is that of ``lir_interp._BINOPS``/``_UNOPS``, except
  that an ``int(x)``/``float(x)`` operand coercion is left out where
  :mod:`repro.sim.lir_types` proves ``x`` already has that exact type
  (there the coercion is the identity); coercions of unproven operands
  — joins of int and float paths, ``env`` values of the other type,
  ``powr`` results, call results — stay, so they raise or convert
  exactly as in the reference.  A loop superblock's body is typed from
  the fixpoint at its head, which holds on every iteration;
* registers live in locals, preloaded with ``R.get(name, 0)`` only
  when their first use is a read, and written back before every return
  point; a mid-block exception loses uncommitted locals, which is
  unobservable because callers discard state and metrics on error.
  The type fixpoint is seeded from the registers and spill slots
  ``env`` gave the run, not from whatever the cold blocks left in
  them when the first block compiles;
* the cache probe inlines :class:`~repro.sim.cache.DirectMappedCache`
  (``line = addr // line_bytes; slot = line % num_lines``) against a
  shared tags list, and addresses inline the
  :class:`~repro.sim.cache.AddressMap` layout, spill region included;
  the probe counts only misses;
* bounds checks raise :class:`~repro.sim.interp.InterpError` with the
  reference interpreter's exact messages (through :func:`_oob`), and
  run before the probe, which runs before the access;
* the step budget is charged per block entry (full static block
  length) and checked before the block body runs, inside the fused
  loop too;
* every metric but the miss count — cycles, instructions, op mix,
  block executions, memory accesses, cache hits and energy — is
  derived after the run from per-block execution counts kept in
  first-execution order, so even dict insertion order matches the
  reference (:meth:`ExecCompiledInterpreter.metrics`).  The derived
  energy equals the reference's per-event float sum exactly because
  :class:`~repro.machines.model.PowerProfile` rejects any coefficient
  that is not an integral number of picojoules: every term and partial
  sum is then an integer-valued double far below 2**53.

Numeric constants — displacements, sizes, base addresses, cache
geometry, immediates, step budgets — are embedded in the source as
literals (LOAD_CONST in the fused loops, no unpack preamble); only
values without an exact literal spelling ride the per-instance
constants tuple ``K``.  Register names are not in the source: a
block's registers are the locals ``r0, r1, …`` in first-touch order,
and their names ride the per-instance names tuple ``N``, read only at
block entry and exit.  Blocks that differ only in register naming, or
run on machines that differ only in energy coefficients, therefore
share one source and one ``_CODE_CACHE`` code object.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.backend.lir import Block, Module
from repro.machines.model import MachineModel
from repro.sim.cache import AddressMap
from repro.sim.executor import ExecutionMetrics, _profile_blocks
from repro.sim.interp import InterpError, _c_div, _c_mod
from repro.sim.lir_interp import (
    LIRInterpreter,
    Observer,
    final_state,
    seed_state,
)
from repro.sim.lir_types import TypeMap, block_entry_types, step

# A block runs through the reference's own step (cold) until it has run
# this many instructions, and is exec-compiled (hot) from then on: most
# blocks of a small module run too few instructions to repay
# ``compile``.  A self-loop turns hot at its first back-edge instead.
HOT_BUDGET = 256

# Source text → compiled code object.  Keyed on the full generated
# source, so a hit is exact by construction; bounded as a backstop
# against pathological block diversity (fuzzing).
_CODE_CACHE: Dict[str, Any] = {}
_CODE_CACHE_LIMIT = 4096


def _oob(word: str, name: str, flat: int, size: int) -> None:
    """Raise the reference's out-of-bounds error for ``word`` (``ld`` or
    ``st``) at ``name[flat]``."""
    raise InterpError(f"{word} out of bounds: {name}[{flat}] (size {size})")


# Exec-time globals for generated factories.  ``int``/``float`` etc.
# come from builtins; only the non-builtin helpers need to be provided.
_EXEC_GLOBALS = {
    "InterpError": InterpError,
    "_c_div": _c_div,
    "_c_mod": _c_mod,
    "_oob": _oob,
    "math": math,
}

# Helper local name → expression binding it in the factory preamble.
_HELPERS = {
    "_int": "int",
    "_float": "float",
    "_min": "min",
    "_max": "max",
    "_abs": "abs",
    "_sqrt": "math.sqrt",
    "_exp": "math.exp",
    "_log": "math.log",
    "_sin": "math.sin",
    "_cos": "math.cos",
    "_floor": "math.floor",
    "_ceil": "math.ceil",
    "_cdiv": "_c_div",
    "_cmod": "_c_mod",
}

# Expression templates: the arithmetic of ``lir_interp._BINOPS`` /
# ``_UNOPS`` with operands as locals.  The middle field names the
# coercion the reference applies to every operand (``int``/``float``,
# or None); the generated code applies it only where
# :mod:`repro.sim.lir_types` does not prove the operand already has
# that type, since there it is the identity.
_BIN_EXPR: Dict[str, Tuple[str, Optional[type], Tuple[str, ...]]] = {
    "add": ("{a} + {b}", int, ()),
    "sub": ("{a} - {b}", int, ()),
    "mul": ("{a} * {b}", int, ()),
    "div": ("_cdiv({a}, {b})", int, ("_cdiv",)),
    "mod": ("_cmod({a}, {b})", int, ("_cmod",)),
    "fadd": ("{a} + {b}", float, ()),
    "fsub": ("{a} - {b}", float, ()),
    "fmul": ("{a} * {b}", float, ()),
    "lt": ("1 if {a} < {b} else 0", None, ()),
    "le": ("1 if {a} <= {b} else 0", None, ()),
    "gt": ("1 if {a} > {b} else 0", None, ()),
    "ge": ("1 if {a} >= {b} else 0", None, ()),
    "eq": ("1 if {a} == {b} else 0", None, ()),
    "ne": ("1 if {a} != {b} else 0", None, ()),
    "and": ("1 if ({a} != 0 and {b} != 0) else 0", None, ()),
    "or": ("1 if ({a} != 0 or {b} != 0) else 0", None, ()),
    "vmin": ("_min({a}, {b})", None, ("_min",)),
    "vmax": ("_max({a}, {b})", None, ("_max",)),
    "powr": ("{a} ** {b}", float, ()),
}

_UN_EXPR: Dict[str, Tuple[str, Optional[type], Tuple[str, ...]]] = {
    "neg": ("-{a}", int, ()),
    "fneg": ("-{a}", float, ()),
    "not": ("0 if {a} != 0 else 1", None, ()),
    "vabs": ("_abs({a})", None, ("_abs",)),
    "sqrt": ("_sqrt({a})", None, ("_sqrt",)),
    "exp": ("_exp({a})", None, ("_exp",)),
    "log": ("_log({a})", None, ("_log",)),
    "sin": ("_sin({a})", None, ("_sin",)),
    "cos": ("_cos({a})", None, ("_cos",)),
    "floorr": ("_floor({a})", None, ("_floor",)),
    "ceilr": ("_ceil({a})", None, ("_ceil",)),
}

_BUDGET_MSG = "LIR step budget exceeded"

# One generated block: its factory source, the constants tuple ``K`` and
# the register names tuple ``N`` that the factory is called with.
_Generated = Tuple[str, Tuple[Any, ...], Tuple[str, ...]]


def _first_branch(block: Block) -> Optional[int]:
    """Position of the first control-transfer instruction, or None."""
    for pos, instr in enumerate(block.instrs):
        if instr.op in ("br", "brf", "brt"):
            return pos
    return None


def _self_loops(module: Module) -> set:
    """Names of blocks that are fusable bottom-test self-loops.

    The backend emits innermost loops as a single rotated block ending
    in ``brt``/``brf`` back to itself: the whole iteration is one
    straight-line body with the continue test at the bottom.  Such a
    block can run its entire trip count inside one generated function.
    Outer loops of a nest never take this shape (their body spans
    several blocks), so fusion applies exactly where the iteration
    count concentrates.  Entries from other blocks are unaffected —
    they dispatch into the fused function, which handles every
    back-edge internally and returns on fallthrough.
    """
    loops = set()
    for name, block in module.blocks.items():
        if not block.instrs:
            continue
        last = len(block.instrs) - 1
        instr = block.instrs[last]
        if (
            instr.op in ("brf", "brt")
            and instr.label == name
            and _first_branch(block) == last
        ):
            loops.add(name)
    return loops


class _BlockCodegen:
    """Generates the fused source, constants tuple and register names
    tuple for one block (or a cond+body loop superblock)."""

    def __init__(
        self,
        block: Block,
        module: Module,
        machine: MachineModel,
        amap: AddressMap,
        types: Optional[TypeMap],
    ):
        self.block = block
        self.module = module
        self.amap = amap
        # Operand types at the current emission point, advanced one
        # instruction at a time from the block's entry types; None
        # (an unreachable block) proves nothing.
        self.types = types
        self.K: List[Any] = []
        self.body: List[str] = []
        self.helpers: List[str] = []  # first-use order
        # Register name → i: the block holds it in local ``r{i}`` and
        # reads its name as ``n{i}`` from the per-instance names tuple.
        self.regmap: Dict[str, int] = {}
        self.arrmap: Dict[str, str] = {}
        self.written: List[str] = []  # register names, first-write order
        # Registers whose first touch is a read need an ``R.get``
        # preload; ones defined before any read start life as plain
        # locals (their pre-block value is dead).
        self.preloaded: List[str] = []
        self.has_probe = False
        cache = machine.cache
        self.word = cache.word_bytes
        self.line = cache.line_bytes
        self.nlines = cache.num_lines

    # -- symbol helpers -------------------------------------------------
    def k(self, value: Any) -> str:
        """Spell a constant in the generated source.

        Plain ints and finite floats are inlined as literals: their
        ``repr`` round-trips exactly, LOAD_CONST beats the closure-cell
        load inside fused loops, and the ``kN = K[N]`` preamble was a
        measurable slice of what the sweep spends in ``compile``.  The
        price is sharing: literals still fork the source per array
        layout and cache geometry (lifting them too would merge a full
        sweep's 1,440 distinct block sources into 643).  Negative
        values are parenthesized so they drop into any expression
        context.  Everything else — non-finite floats have no literal
        spelling, bools must stay distinct from ints — still rides the
        per-instance ``K`` tuple.
        """
        if type(value) is int or (
            type(value) is float and math.isfinite(value)
        ):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        self.K.append(value)
        return f"k{len(self.K) - 1}"

    def helper(self, name: str) -> None:
        if name not in self.helpers:
            self.helpers.append(name)

    def reg(self, name: str) -> str:
        i = self.regmap.get(name)
        if i is None:
            i = self.regmap[name] = len(self.regmap)
            self.preloaded.append(name)
        return f"r{i}"

    def wreg(self, name: str) -> str:
        i = self.regmap.get(name)
        if i is None:
            i = self.regmap[name] = len(self.regmap)
        if name not in self.written:
            self.written.append(name)
        return f"r{i}"

    def operand(self, name: str, kind: Optional[type]) -> str:
        """Register ``name`` as an operand the reference coerces with
        ``kind`` (``int``/``float``; None: no coercion): the bare local
        where its type is proven, else the local wrapped in the
        coercion."""
        local = self.reg(name)
        if kind is None or (
            self.types is not None and self.types.get(name, int) is kind
        ):
            return local
        helper = "_int" if kind is int else "_float"
        self.helper(helper)
        return f"{helper}({local})"

    def arr(self, name: str) -> str:
        local = self.arrmap.get(name)
        if local is None:
            local = f"A{len(self.arrmap)}"
            self.arrmap[name] = local
        return local

    # -- accounting fragments -------------------------------------------
    def emit_probe(self, line_expr: str, slot_expr: str) -> None:
        """Inline DirectMappedCache.access, counting only the misses."""
        self.has_probe = True
        self.body.append(
            f"if T[{slot_expr}] != {line_expr}: "
            f"T[{slot_expr}] = {line_expr}; m = m + 1"
        )

    def emit_const_probe(self, flat: int, array: str) -> None:
        addr = self.amap.bases[array] + flat * self.word
        line = addr // self.line
        slot = line % self.nlines
        self.emit_probe(self.k(line), self.k(slot))

    def emit_var_probe(self, array: str) -> None:
        """Probe for a runtime flat index held in ``_i``.

        ``_i`` is bounds-checked non-negative and the base is
        non-negative, so when the geometry is a power of two the
        div/mod collapse to shift/mask (value-identical for
        non-negative ints).  Power-of-two geometry is emitted as
        literals — it forks the source per cache shape, but the
        code-object cache still dedups within a machine and the
        strength-reduced probe is what the innermost loops run.
        """
        kb = self.k(self.amap.bases[array])
        word, line, nlines = self.word, self.line, self.nlines
        if word & (word - 1) == 0 and line & (line - 1) == 0:
            wshift = word.bit_length() - 1
            lshift = line.bit_length() - 1
            self.body.append(f"_l = ({kb} + (_i << {wshift})) >> {lshift}")
        else:
            kw = self.k(word)
            kl = self.k(line)
            self.body.append(f"_l = ({kb} + _i * {kw}) // {kl}")
        if nlines & (nlines - 1) == 0:
            self.body.append(f"_s = _l & {nlines - 1}")
        else:
            kn = self.k(nlines)
            self.body.append(f"_s = _l % {kn}")
        self.emit_probe("_l", "_s")

    # -- memory instructions --------------------------------------------
    def emit_ld_st(self, instr) -> None:
        is_store = instr.op == "st"
        name = instr.array
        disp = instr.disp
        rv = None
        if is_store:
            rv = self.reg(instr.srcs[0])
            idx_reg = instr.srcs[1] if len(instr.srcs) > 1 else None
        else:
            idx_reg = instr.srcs[0] if instr.srcs else None

        if name == "__spill":
            # Spill accesses skip bounds checks but do probe the cache
            # (the spill region sits past the arrays in address space).
            self.emit_const_probe(disp, "__spill")
            kd = self.k(disp)
            if is_store:
                self.body.append(f"S[{kd}] = {rv}")
            else:
                self.body.append(f"{self.wreg(instr.dst)} = S.get({kd}, 0)")
            return

        dims, _typ = self.module.arrays[name]
        size = 1
        for d in dims:
            size *= d
        a = self.arr(name)
        oob = f"_oob({instr.op!r}, {name!r}, "

        if idx_reg is None:
            if not 0 <= disp < size:
                self.body.append(f"{oob}{self.k(disp)}, {self.k(size)})")
                return
            self.emit_const_probe(disp, name)
            kf = self.k(disp)
            if is_store:
                self.body.append(f"{a}[{kf}] = {rv}")
            else:
                self.body.append(f"{self.wreg(instr.dst)} = {a}.item({kf})")
            return

        kd = self.k(disp)
        ks = self.k(size)
        self.body += [
            f"_i = {kd} + {self.operand(idx_reg, int)}",
            f"if not 0 <= _i < {ks}: {oob}_i, {ks})",
        ]
        self.emit_var_probe(name)
        if is_store:
            self.body.append(f"{a}[_i] = {rv}")
        else:
            self.body.append(f"{self.wreg(instr.dst)} = {a}.item(_i)")

    # -- straight-line emission ------------------------------------------
    def emit_body(self, block: Block) -> Tuple[List[str], Optional[tuple]]:
        """Emit ``block``'s executed prefix; returns (statements,
        terminator) where terminator is ``("br", label)`` or
        ``(op, label, cond_local)`` or ``None`` (fallthrough)."""
        self.body = []
        terminator: Optional[tuple] = None
        for instr in block.instrs:
            op = instr.op
            if op == "br":
                terminator = ("br", instr.label)
                break
            if op in ("brf", "brt"):
                # V217 (checked by _profile_blocks) makes these
                # block-final.
                terminator = (op, instr.label, self.reg(instr.srcs[0]))
                break
            self.emit_instr(instr)
            if self.types is not None:
                step(self.types, instr, self.module.arrays)
        return self.body, terminator

    def emit_instr(self, instr) -> None:
        op = instr.op
        body = self.body
        if op == "movi":
            body.append(f"{self.wreg(instr.dst)} = {self.k(instr.imm)}")
            return
        if op == "mov":
            src = self.reg(instr.srcs[0])
            body.append(f"{self.wreg(instr.dst)} = {src}")
            return
        if op == "trunc":
            src = self.operand(instr.srcs[0], int)
            body.append(f"{self.wreg(instr.dst)} = {src}")
            return
        if op in ("ld", "st"):
            self.emit_ld_st(instr)
            return
        if op == "fma":
            a, b, c = (self.operand(s, float) for s in instr.srcs)
            body.append(f"{self.wreg(instr.dst)} = {a} * {b} + {c}")
            return
        if op == "select":
            cond, a, b = (self.reg(s) for s in instr.srcs)
            body.append(
                f"{self.wreg(instr.dst)} = {a} if {cond} != 0 else {b}"
            )
            return
        if op == "call":
            fname = instr.name or ""
            msg = f"call to unknown function {fname!r}"
            args = ", ".join(self.reg(s) for s in instr.srcs)
            body += [
                f"_f = F.get({fname!r})",
                "if _f is None:",
                f" raise InterpError({msg!r})",
            ]
            if instr.dst is not None:
                body.append(f"{self.wreg(instr.dst)} = _f({args})")
            else:
                body.append(f"_f({args})")
            return
        if op == "fdiv":
            a, b = (self.operand(s, float) for s in instr.srcs)
            body += [
                f"_d = {b}",
                "if _d == 0.0:",
                " raise InterpError('float division by zero')",
                f"{self.wreg(instr.dst)} = {a} / _d",
            ]
            return
        template = _BIN_EXPR.get(op)
        if template is not None:
            expr, kind, helpers = template
            for h in helpers:
                self.helper(h)
            a, b = (self.operand(s, kind) for s in instr.srcs)
            body.append(
                f"{self.wreg(instr.dst)} = " + expr.format(a=a, b=b)
            )
            return
        template = _UN_EXPR.get(op)
        if template is not None:
            expr, kind, helpers = template
            for h in helpers:
                self.helper(h)
            a = self.operand(instr.srcs[0], kind)
            body.append(f"{self.wreg(instr.dst)} = " + expr.format(a=a))
            return
        # Unknown ops raise lazily iff executed, like the reference.
        body.append(f"raise InterpError({f'unknown LIR op {op!r}'!r})")

    # -- assembly ---------------------------------------------------------
    def _assemble(self, inner: List[str]) -> _Generated:
        """The factory's source around the block body ``inner``, and
        the constants and register names tuples to call it with.

        Generated code indents one space per level, emitters included:
        ``compile`` time is proportional to source bytes, and wider
        indentation would be a double-digit percentage of them.
        """
        lines = ["def _make(R, S, mem, F, T, M, ST, CN, K, N):"]
        for name in self.helpers:
            lines.append(f" {name} = {_HELPERS[name]}")
        for name, local in self.arrmap.items():
            lines.append(f" {local} = mem[{name!r}]")
        for i in range(len(self.K)):
            lines.append(f" k{i} = K[{i}]")
        if self.regmap:
            names = "".join(f"n{i}, " for i in range(len(self.regmap)))
            lines.append(f" {names}= N")
        if self.preloaded:
            lines.append(" Rg = R.get")
        lines.append(" def _block():")
        for name in self.preloaded:
            i = self.regmap[name]
            lines.append(f"  r{i} = Rg(n{i}, 0)")
        lines += ["  " + s for s in inner]
        lines.append(" return _block")
        source = "\n".join(lines) + "\n"
        return source, tuple(self.K), tuple(self.regmap)

    def _writebacks(self) -> List[str]:
        return [f"R[n{i}] = r{i}" for i in map(self.regmap.get, self.written)]

    def generate(self) -> _Generated:
        """Single-block fused function."""
        stmts, terminator = self.emit_body(self.block)
        inner: List[str] = ["m = 0"] if self.has_probe else []
        inner += stmts
        if self.has_probe:
            inner.append("M[0] = M[0] + m")
        inner += self._writebacks()
        if terminator is None:
            inner.append("return None")
        elif terminator[0] == "br":
            inner.append(f"return {terminator[1]!r}")
        else:
            cmp = "==" if terminator[0] == "brf" else "!="
            inner += [
                f"if {terminator[2]} {cmp} 0:",
                f" return {terminator[1]!r}",
                "return None",
            ]
        return self._assemble(inner)

    def generate_self_loop(
        self, block_idx: int, max_steps: int
    ) -> _Generated:
        """Loop superblock for a bottom-test self-loop.

        The caller's dispatch loop charges the first entry (steps,
        budget, counts); every back-edge re-entry is charged here, in
        the same order the per-block loop would: charge+check, count,
        block body.  Registers stay in Python locals across iterations;
        the register file is only read on entry and written on exit.
        """
        block = self.block
        stmts, term = self.emit_body(block)
        assert term is not None and term[0] in ("brf", "brt")
        assert term[1] == block.name
        # The branch back to self is taken on falsy (brf) / truthy
        # (brt); the loop exits via fallthrough when it is NOT taken.
        cmp = "!=" if term[0] == "brf" else "=="
        ks = self.k(len(block.instrs))
        ki = self.k(block_idx)
        kmax = self.k(max_steps)

        inner: List[str] = ["m = 0"] if self.has_probe else []
        # Steps and the per-block count accumulate in locals across
        # iterations; the shared cells are only read on entry and
        # written on exit — and, for steps, at the budget raise, where
        # the failing iteration is charged but (as in the dispatch
        # loop) not counted.
        inner += ["_st = ST[0]", "_cn = 0"]
        inner.append("while True:")
        loop: List[str] = []
        loop += stmts
        loop += [f"if {term[2]} {cmp} 0:", " break"]
        loop += [
            f"_st = _st + {ks}",
            f"if _st > {kmax}:",
            " ST[0] = _st",
            f" CN[{ki}] = CN[{ki}] + _cn",
            f" raise InterpError({_BUDGET_MSG!r})",
            "_cn = _cn + 1",
        ]
        inner += [" " + s for s in loop]
        inner += ["ST[0] = _st", f"CN[{ki}] = CN[{ki}] + _cn"]
        if self.has_probe:
            inner.append("M[0] = M[0] + m")
        inner += self._writebacks()
        inner.append("return None")
        return self._assemble(inner)


class _ColdProbe(Observer):
    """The cold tier's cache probe: the generated blocks' miss count,
    kept in the same tags list and miss cell."""

    def __init__(
        self, amap: AddressMap, machine: MachineModel,
        tags: List[int], misses: List[int],
    ):
        self.address = amap.address
        self.line = machine.cache.line_bytes
        self.nlines = machine.cache.num_lines
        self.tags = tags
        self.misses = misses

    def on_mem(self, array: str, flat_index: int, is_store: bool) -> None:
        line = self.address(array, flat_index) // self.line
        slot = line % self.nlines
        if self.tags[slot] != line:
            self.tags[slot] = line
            self.misses[0] += 1


class ExecCompiledInterpreter:
    """Runs a module as exec-compiled fused block functions, each
    compiled once its block turns hot.

    Produces the final state via :meth:`run` and the accounting via
    :meth:`metrics`, both strictly equal to running
    :class:`~repro.sim.lir_interp.LIRInterpreter` under
    ``executor._DynamicTimingObserver``.  Raises ``ValueError`` (V217)
    for a module whose blocks' executed mix is path-dependent.  The
    blocks are specialized to the operand types of a run that starts
    from the registers and spill slots ``env`` seeds, so call
    :meth:`run` once.
    """

    def __init__(
        self,
        module: Module,
        machine: MachineModel,
        env: Optional[Mapping[str, Any]] = None,
        functions: Optional[Mapping[str, Callable[..., Any]]] = None,
        max_steps: int = 50_000_000,
    ):
        self.module = module
        self.machine = machine
        self.functions = dict(functions or {})
        self.max_steps = max_steps
        self.steps = 0
        self._profiles = _profile_blocks(module, machine)
        self._amap = AddressMap(
            module.arrays,
            word_bytes=machine.cache.word_bytes,
            line_bytes=machine.cache.line_bytes,
        )
        # Tags as a dense list with a -1 sentinel: line numbers are
        # always >= 0, so this is observationally the empty tags dict.
        self._tags: List[int] = [-1] * machine.cache.num_lines
        self._misses: List[int] = [0]
        self._steps_cell: List[int] = [0]
        self._exec_counts: List[int] = [0] * len(module.order)
        self._touched: List[int] = []
        self._self_loops = _self_loops(module)
        self.memory, self.regs, self.spill = seed_state(module, env)
        # The first compile types the blocks from the initial registers
        # and spill slots, which the cold blocks may have changed by then.
        self._seed = (dict(self.regs), dict(self.spill))
        self._entry_types: Optional[Dict[str, Optional[TypeMap]]] = None
        self._reference = LIRInterpreter(
            module,
            functions=self.functions,
            observer=_ColdProbe(
                self._amap, machine, self._tags, self._misses
            ),
            state=(self.memory, self.regs, self.spill),
        )
        self._block_index: Dict[str, int] = {
            name: idx for idx, name in enumerate(module.order)
        }
        # Step budget charged per block entry at the full static length,
        # dead instructions after an unconditional ``br`` included.
        self._block_steps: List[int] = [
            len(module.blocks[name].instrs) for name in module.order
        ]
        # Per block: the instructions it has run cold (see ``_cold``),
        # and its fused function once it is hot.
        self._heat: List[int] = [0] * len(module.order)
        self._fused: List[Optional[Callable[[], Optional[str]]]] = [
            None
        ] * len(module.order)

    def _cold(self, idx: int) -> Optional[str]:
        """Run block ``idx`` once through the reference's own step while
        it is cold; once hot, compile it and let its fused function take
        this and every later entry.

        A block turns hot when it has run :data:`HOT_BUDGET`
        instructions cold, or when it is a self-loop that has just
        taken its back-edge: its remaining iterations then run in the
        loop superblock.
        """
        name = self.module.order[idx]
        heat = self._heat[idx]
        if heat >= HOT_BUDGET:
            fused = self._fused[idx] = self._compile(self.module.blocks[name])
            return fused()
        jump = self._reference.step(self.module.blocks[name].instrs)
        if jump == name and name in self._self_loops:
            self._heat[idx] = HOT_BUDGET
        else:
            self._heat[idx] = heat + self._profiles[name].instructions
        return jump

    def _block_source(self, block: Block) -> _Generated:
        """Generated source, constants tuple and register names tuple
        for ``block``."""
        if self._entry_types is None:
            self._entry_types = block_entry_types(self.module, *self._seed)
        types = self._entry_types[block.name]
        gen = _BlockCodegen(
            block, self.module, self.machine, self._amap,
            None if types is None else dict(types),
        )
        if block.name in self._self_loops:
            return gen.generate_self_loop(
                self._block_index[block.name], self.max_steps
            )
        return gen.generate()

    def _compile(self, block: Block) -> Callable[[], Optional[str]]:
        """``block``'s fused function, bound to this run's state."""
        source, K, names = self._block_source(block)
        code = _CODE_CACHE.get(source)
        if code is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
                _CODE_CACHE.clear()
            code = compile(source, "<slms-codegen>", "exec")
            _CODE_CACHE[source] = code
        namespace = dict(_EXEC_GLOBALS)
        exec(code, namespace)
        return namespace["_make"](
            self.regs, self.spill, self.memory, self.functions,
            self._tags, self._misses, self._steps_cell, self._exec_counts,
            K, names,
        )

    def run(self) -> Dict[str, Any]:
        """Execute from the entry block; returns the final state."""
        fused = self._fused
        cold = self._cold
        block_index = self._block_index
        block_steps = self._block_steps
        counts = self._exec_counts
        touched = self._touched
        max_steps = self.max_steps
        steps_cell = self._steps_cell
        steps_cell[0] = self.steps
        idx = 0
        n = len(fused)
        try:
            while 0 <= idx < n:
                steps = steps_cell[0] + block_steps[idx]
                steps_cell[0] = steps
                if steps > max_steps:
                    raise InterpError(_BUDGET_MSG)
                if not counts[idx]:
                    touched.append(idx)
                counts[idx] += 1
                hot = fused[idx]
                jump = cold(idx) if hot is None else hot()
                if jump is None:
                    idx += 1
                else:
                    target = block_index.get(jump)
                    if target is None:
                        raise InterpError(
                            f"branch to unknown block {jump!r}"
                        )
                    idx = target
        finally:
            self.steps = steps_cell[0]
        return final_state(self.module, self.memory, self.regs, self.spill)

    def metrics(self) -> ExecutionMetrics:
        """Assemble ExecutionMetrics equal to the reference observer's.

        Every total but the miss count is linear in per-block execution
        counts: memory accesses are the executed ``mem`` ops, hits are
        the accesses that did not miss, and energy is each block's
        profiled energy per execution plus the fill and stall energy
        per miss.  Dict insertion order is reconstructed from
        first-execution order.
        """
        misses = self._misses[0]
        penalty = self.machine.cache.miss_penalty
        power = self.machine.power
        cycles = misses * penalty
        energy = misses * (
            power.energy_cache_miss + penalty * power.energy_per_cycle
        )
        instructions = 0
        op_counts: Dict[str, int] = {}
        block_executions: Dict[str, int] = {}
        order = self.module.order
        for idx in self._touched:
            name = order[idx]
            profile = self._profiles[name]
            count = self._exec_counts[idx]
            block_executions[name] = count
            cycles += profile.cost * count
            instructions += profile.instructions * count
            energy += profile.energy * count
            for cls, per_exec in profile.op_items:
                op_counts[cls] = op_counts.get(cls, 0) + per_exec * count
        accesses = op_counts.get("mem", 0)
        return ExecutionMetrics(
            cycles=cycles,
            instructions=instructions,
            mem_accesses=accesses,
            cache_hits=accesses - misses,
            cache_misses=misses,
            energy_pj=float(energy),
            op_counts=op_counts,
            block_executions=block_executions,
        )
