"""Pin the simulator's fast path to its one reference.

:func:`repro.sim.executor.execute` always runs the exec-compiled block
functions (:mod:`repro.sim.codegen_exec`) over static per-block
profiles.  The reference is the plain
:class:`~repro.sim.lir_interp.LIRInterpreter` driven by the
per-instruction ``_DynamicTimingObserver``, which shares no code with
the block profiles.  Every workload, on every machine, must produce
*bit-identical* final state and metrics on both.  Equality here is
strict — exact ints, exact float ``repr`` for energy, and identical
dict insertion order for ``op_counts``/``block_executions`` — because
the sweep digest gate depends on all of it.

The generated blocks leave out ``int()``/``float()`` coercions where
:mod:`repro.sim.lir_types` proves the operand's type.  Hand-built
modules and a fixed fuzz sample pin the cases where a coercion must
stay, down to the raw register file.

A cache whose geometry is not a power of two pins the probe's
``//``/``%`` branch, which no preset reaches.  The generated source
holds neither register names nor energies, so blocks of one shape
share a code object; the last tests pin that.

The fast path runs a block through the reference's own step until the
block turns hot (``codegen_exec.HOT_BUDGET``).  The equivalence,
type-soundness, error-path, step-budget and fuzz-sample tests therefore
run twice (the ``hot_budget`` fixture): with a budget of 0, so every
block is compiled at its first entry and the generated code is pinned
against the reference, and at the default budget, where most blocks of
a small module stay cold.
"""

import ast
import copy
import dataclasses

import numpy as np
import pytest

from repro.backend.compiler import FinalCompiler
from repro.backend.lir import Instr, Module
from repro.core.pipeline import slms
from repro.fuzz.generator import PROFILES, case_seeds, generate_case
from repro.fuzz.oracle import make_env
from repro.harness.experiment import transform_kernel
from repro.harness.sweep import DEFAULT_PAIRS
from repro.lang.parser import parse_program
from repro.machines import machine_by_name
from repro.machines.model import CacheConfig, PowerProfile
from repro.sim import codegen_exec
from repro.sim.codegen_exec import ExecCompiledInterpreter, _self_loops
from repro.sim.executor import (
    ExecutionResult,
    _DynamicTimingObserver,
    _executed_prefix,
    execute,
)
from repro.sim.lir_interp import InterpError, LIRInterpreter, Observer
from repro.verify.ir_check import check_module
from repro.workloads import all_workloads, get_workload

WORKLOADS = all_workloads()


@pytest.fixture(params=[0, None], ids=["all-hot", "tiered"])
def hot_budget(request, monkeypatch):
    """Run the test with every block compiled at its first entry, then
    at the default hot budget."""
    if request.param is not None:
        monkeypatch.setattr(codegen_exec, "HOT_BUDGET", request.param)


def _compile_spy(monkeypatch):
    """Record ``(block name, steps charged so far)`` for every block
    an ExecCompiledInterpreter compiles."""
    compiled = []
    compile_block = ExecCompiledInterpreter._compile

    def spy(self, block):
        compiled.append((block.name, self._steps_cell[0]))
        return compile_block(self, block)

    monkeypatch.setattr(ExecCompiledInterpreter, "_compile", spy)
    return compiled


def _compile(workload_name: str, machine_name: str = "itanium2",
             compiler: str = "gcc_O3"):
    machine = machine_by_name(machine_name)
    wl = get_workload(workload_name)
    compiled = FinalCompiler(machine, compiler).compile(wl.full_program())
    return compiled, machine


def _reference(module, machine, env=None, max_steps=50_000_000):
    """Run the per-instruction reference: LIR interpreter plus
    observer."""
    observer = _DynamicTimingObserver(module, machine)
    interp = LIRInterpreter(
        module, env=env, observer=observer, max_steps=max_steps
    )
    state = interp.run()
    return ExecutionResult(state=state, metrics=observer.metrics)


def _assert_states_identical(a, b):
    assert list(a.keys()) == list(b.keys())
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, np.ndarray):
            assert isinstance(vb, np.ndarray)
            assert va.dtype == vb.dtype and va.shape == vb.shape
            assert va.tobytes() == vb.tobytes(), key
        else:
            assert repr(va) == repr(vb), key


def _assert_metrics_identical(ma, mb):
    da, db = ma.to_dict(), mb.to_dict()
    assert repr(da["energy_pj"]) == repr(db["energy_pj"])
    assert list(da["op_counts"].items()) == list(db["op_counts"].items())
    assert list(da["block_executions"].items()) == list(
        db["block_executions"].items()
    )
    assert da == db


def _assert_matches_reference(module, machine):
    fast = execute(module, machine)
    reference = _reference(module, machine)
    _assert_states_identical(fast.state, reference.state)
    _assert_metrics_identical(fast.metrics, reference.metrics)


def _typed_items(values):
    return sorted((key, repr(value)) for key, value in values.items())


def _assert_same_run(module, env=None, machine=None, functions=None):
    """``execute`` equals the reference bit for bit, or raises the same
    error (type and message).  A run that completes must also leave the
    same raw register file and spill slots, where a wrongly dropped
    ``int()``/``float()`` shows up as an ``int`` vs ``float`` repr even
    when the source-level state would convert it away.  Returns the
    reference's exception, if any."""
    machine = machine or machine_by_name("itanium2")
    observer = _DynamicTimingObserver(module, machine)
    ref = LIRInterpreter(
        module, env=env, functions=functions, observer=observer
    )
    try:
        ref_state = ref.run()
    except Exception as exc:
        with pytest.raises(Exception) as err:
            execute(module, machine, env=env, functions=functions)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
        return exc
    fast = execute(module, machine, env=env, functions=functions)
    _assert_states_identical(fast.state, ref_state)
    _assert_metrics_identical(fast.metrics, observer.metrics)
    interp = ExecCompiledInterpreter(
        module, machine, env=env, functions=functions
    )
    interp.run()
    assert _typed_items(interp.regs) == _typed_items(ref.regs)
    assert _typed_items(interp.spill) == _typed_items(ref.spill)
    return None


@pytest.mark.usefixtures("hot_budget")
class TestEquivalenceAllWorkloads:
    @pytest.mark.parametrize("workload", [wl.name for wl in WORKLOADS])
    @pytest.mark.parametrize("compiler", ["icc_O3", "gcc_O3"])
    def test_execute_matches_reference(self, compiler, workload):
        """icc_O3 exercises list scheduling, IMS-pipelined blocks and
        predicated selects; gcc_O3 the plain list-scheduled path.  Every
        compiled module must also pass the LIR checks (V212-V217)."""
        compiled, machine = _compile(workload, compiler=compiler)
        assert check_module(compiled.module, machine) == []
        _assert_matches_reference(compiled.module, machine)

    @pytest.mark.parametrize(
        "machine_name,compiler",
        [
            ("pentium", "gcc_O3"),
            ("power4", "xlc_O3"),
            ("arm7tdmi", "arm_gcc"),
        ],
    )
    def test_execute_matches_reference_across_machines(
        self, machine_name, compiler
    ):
        for workload in ("mxm", "daxpy", "kernel21"):
            compiled, machine = _compile(workload, machine_name, compiler)
            _assert_matches_reference(compiled.module, machine)

    def test_execute_matches_reference_unscheduled(self):
        """-O0 code paths (no schedule, cost = instruction count)."""
        compiled, machine = _compile(
            WORKLOADS[0].name, "arm7tdmi", "gcc_O0"
        )
        _assert_matches_reference(compiled.module, machine)


@pytest.mark.usefixtures("hot_budget")
class TestSelfLoopFusion:
    def test_fused_loops_detected(self):
        # mxm's innermost loops are bottom-test self-loops; the codegen
        # must fuse them (that's where the fast path's speedup lives).
        compiled, _ = _compile("mxm")
        assert _self_loops(compiled.module), "no self-loops found in mxm"

    def test_fused_loop_counts_every_entry(self):
        compiled, machine = _compile("mxm")
        fast = execute(compiled.module, machine)
        reference = _reference(compiled.module, machine)
        # Per-iteration block_executions must survive fusion exactly.
        assert (
            fast.metrics.block_executions
            == reference.metrics.block_executions
        )


@pytest.mark.usefixtures("hot_budget")
class TestStepBudgetParity:
    @pytest.mark.parametrize("max_steps", [10, 137, 1003, 50_000])
    def test_budget_error_and_steps_match(self, max_steps):
        compiled, machine = _compile("mxm")
        module = compiled.module
        fast = ExecCompiledInterpreter(module, machine, max_steps=max_steps)
        with pytest.raises(InterpError) as fast_err:
            fast.run()  # mxm needs far more steps
        reference = LIRInterpreter(
            module,
            observer=_DynamicTimingObserver(module, machine),
            max_steps=max_steps,
        )
        with pytest.raises(InterpError) as ref_err:
            reference.run()
        assert str(fast_err.value) == str(ref_err.value)
        # The interpreter-visible step counter agrees at the moment of
        # the raise, not just the error text.
        assert fast.steps == reference.steps
        with pytest.raises(InterpError) as exec_err:
            execute(module, machine, max_steps=max_steps)
        assert str(exec_err.value) == str(ref_err.value)

    @pytest.mark.parametrize("when", ["before", "at", "after"])
    def test_budget_runs_out_around_a_loop_switch(self, when, monkeypatch):
        """The budget runs out on the entry that would compile mxm's
        first hot self-loop, on the superblock's first back-edge, or
        three iterations into the superblock."""
        compiled, machine = _compile("mxm")
        module = compiled.module
        spy = _compile_spy(monkeypatch)
        ExecCompiledInterpreter(module, machine).run()
        loop, switch = next(
            (name, steps) for name, steps in spy
            if name in _self_loops(module)
        )
        length = len(module.blocks[loop].instrs)
        max_steps = {
            "before": switch - 1, "at": switch, "after": switch + 3 * length,
        }[when]
        spy.clear()
        fast = ExecCompiledInterpreter(module, machine, max_steps=max_steps)
        with pytest.raises(InterpError) as fast_err:
            fast.run()
        assert (loop in dict(spy)) == (when != "before")
        reference = LIRInterpreter(module, max_steps=max_steps)
        with pytest.raises(InterpError) as ref_err:
            reference.run()
        assert str(fast_err.value) == str(ref_err.value)
        assert fast.steps == reference.steps


class TestTiers:
    """At the default budget, a block runs through the reference's step
    until it turns hot, and compiles then."""

    def test_straight_line_block_entered_once_is_never_compiled(
        self, monkeypatch
    ):
        compiled, machine = _compile("mxm")
        module = compiled.module
        spy = _compile_spy(monkeypatch)
        interp = ExecCompiledInterpreter(module, machine)
        interp.run()
        once = {
            name
            for name, count in interp.metrics().block_executions.items()
            if count == 1 and name not in _self_loops(module)
        }
        assert once and not once & {name for name, _ in spy}

    def test_self_loop_turns_hot_mid_loop(self, monkeypatch):
        """The first iteration runs cold, the back-edge turns the loop
        hot, and the superblock runs the other 99: state, registers,
        metrics, steps and per-block counts match the reference."""
        module = _module(
            {
                "entry": [
                    _movi("i", 0), _movi("n", 100), _movi("one", 1),
                    _movi("x", 0.25), _spill_st("x", 3),
                ],
                "loop": [
                    Instr("ld", dst="a", srcs=("i",), array="A"),
                    _spill_ld("s", 3),
                    _op("fadd", "s", "s", "a"),
                    _spill_st("s", 3),
                    Instr("st", srcs=("s", "i"), array="A", disp=1),
                    _op("add", "i", "i", "one"),
                    _op("lt", "c", "i", "n"),
                    Instr("brt", srcs=("c",), label="loop"),
                ],
                "exit": [_spill_ld("y", 3)],
            },
            scalars=[("y", "y", "float")],
            arrays={"A": ((101,), "float")},
        )
        env = {"A": np.linspace(0.0, 1.0, 101)}
        machine = machine_by_name("itanium2")
        spy = _compile_spy(monkeypatch)
        fast = ExecCompiledInterpreter(module, machine, env=env)
        state = fast.run()
        assert spy == [("loop", 5 + 2 * 8)]  # at the loop's second entry
        observer = _DynamicTimingObserver(module, machine)
        reference = LIRInterpreter(module, env=env, observer=observer)
        _assert_states_identical(state, reference.run())
        _assert_metrics_identical(fast.metrics(), observer.metrics)
        assert fast.metrics().block_executions["loop"] == 100
        assert fast.steps == reference.steps
        assert _typed_items(fast.regs) == _typed_items(reference.regs)
        assert _typed_items(fast.spill) == _typed_items(reference.spill)


class TestExecutedPrefix:
    def test_dead_code_after_unconditional_br(self):
        module = Module()
        block = module.new_block("entry")
        block.emit(Instr("movi", dst="r0", imm=1))
        block.emit(Instr("br", label="exit"))
        block.emit(Instr("movi", dst="r1", imm=2))  # dead
        module.new_block("exit")
        prefix = _executed_prefix(module.blocks["entry"])
        assert [i.op for i in prefix] == ["movi", "br"]

    def test_terminal_conditional_is_static(self):
        module = Module()
        block = module.new_block("entry")
        block.emit(Instr("movi", dst="r0", imm=1))
        block.emit(Instr("brf", srcs=("r0",), label="exit"))
        module.new_block("exit")
        prefix = _executed_prefix(module.blocks["entry"])
        assert len(prefix) == 2


class TestObserverCompat:
    def test_on_instr_still_fires_when_overridden(self):
        """An observer that overrides on_instr gets one event per
        executed instruction."""

        class Counting(Observer):
            def __init__(self):
                self.instrs = 0
                self.blocks = 0

            def on_block(self, name, module):
                self.blocks += 1

            def on_instr(self, instr):
                self.instrs += 1

        module = Module()
        block = module.new_block("entry")
        block.emit(Instr("movi", dst="r0", imm=5))
        block.emit(Instr("add", dst="r1", srcs=("r0", "r0")))
        observer = Counting()
        LIRInterpreter(module, observer=observer).run()
        assert observer.instrs == 2
        assert observer.blocks == 1


# -- operand-type specialization ------------------------------------------


def _module(blocks, scalars=(), arrays=None, slots=None):
    """A hand-built module: ``blocks`` maps block name → instructions in
    fallthrough order; ``scalars`` are (name, register, type) triples."""
    module = Module()
    for name, instrs in blocks.items():
        module.new_block(name).instrs.extend(instrs)
    for name, reg, typ in scalars:
        module.scalar_regs[name] = reg
        module.scalar_types[name] = typ
    module.arrays.update(arrays or {})
    module.scalar_slots.update(slots or {})
    return module


def _movi(dst, imm):
    return Instr("movi", dst=dst, imm=imm)


def _op(op, dst, *srcs):
    return Instr(op, dst=dst, srcs=srcs)


def _br(label):
    return Instr("br", label=label)


def _brf(cond, label):
    return Instr("brf", srcs=(cond,), label=label)


def _spill_st(src, slot):
    return Instr("st", srcs=(src,), array="__spill", disp=slot)


def _spill_ld(dst, slot):
    return Instr("ld", dst=dst, array="__spill", disp=slot)


def _sources(module, env=None, machine=None):
    """Generated source per block, for a run seeded from ``env``."""
    interp = ExecCompiledInterpreter(
        module, machine or machine_by_name("itanium2"), env=env
    )
    return {
        name: interp._block_source(module.blocks[name])[0]
        for name in module.order
    }


def _loop_body(source):
    """The ``while True:`` body of a loop superblock's source."""
    lines = source.splitlines()
    head = next(
        i for i, line in enumerate(lines) if line.strip() == "while True:"
    )
    depth = len(lines[head]) - len(lines[head].lstrip(" "))
    body = []
    for line in lines[head + 1:]:
        if len(line) - len(line.lstrip(" ")) <= depth:
            break
        body.append(line)
    return "\n".join(body)


@pytest.mark.usefixtures("hot_budget")
class TestTypeSpecializationSoundness:
    """Modules where an ``int()``/``float()`` coercion must survive
    because the operand's type is not proven.  Each op reads its
    operand with both types across the parametrizations, so an analysis
    that dropped the coercion changes a register's value or type (or
    the error raised)."""

    @pytest.mark.parametrize("c", [0, 1])
    @pytest.mark.parametrize("imms", [(3, 2.5), (2.5, 3)], ids=str)
    def test_register_int_on_one_path_float_on_the_other(self, c, imms):
        module = _module(
            {
                "entry": [_brf("c", "other")],
                "then": [_movi("r1", imms[0]), _br("join")],
                "other": [_movi("r1", imms[1])],
                "join": [
                    _op("mul", "r2", "r1", "r1"),
                    _op("fadd", "r3", "r1", "r1"),
                    _op("trunc", "r4", "r1"),
                ],
            },
            scalars=[("c", "c", "int")],
        )
        assert _assert_same_run(module, env={"c": c}) is None
        sources = _sources(module, {"c": c})
        assert "_int(" in sources["join"] and "_float(" in sources["join"]
        # Each path's own constant is proven; only the join is not.
        assert "_int(" not in sources["then"] + sources["other"]

    @pytest.mark.parametrize(
        "x", [3, True, np.float64(1.5), 2.5], ids=repr
    )
    def test_float_scalar_seeded_from_env(self, x):
        """A float scalar's register and spill slot hold the ``env``
        value as given, so a Python int (or a bool, or a numpy float)
        stays unproven; only an exact ``float`` drops the coercion."""
        module = _module(
            {
                "entry": [
                    _op("fadd", "f1", "x", "x"),
                    _op("fmul", "f2", "x", "x"),
                    _op("fma", "f3", "x", "x", "x"),
                    _op("fdiv", "f4", "x", "x"),
                    _op("fneg", "f5", "x"),
                    _spill_ld("f6", 0),
                    _op("fsub", "f7", "f6", "x"),
                ],
            },
            scalars=[("x", "x", "float"), ("y", "y", "float")],
            slots={"y": 0},
        )
        env = {"x": x, "y": x}
        assert _assert_same_run(module, env=env) is None
        proven = type(x) is float
        assert ("_float(" not in _sources(module, env)["entry"]) == proven

    @pytest.mark.parametrize("base", [-8.0, 8.0])
    def test_powr_result_may_be_complex(self, base):
        module = _module(
            {
                "entry": [
                    _movi("f1", base),
                    _movi("f2", 0.5),
                    _op("powr", "f3", "f1", "f2"),
                    _op("fadd", "f4", "f3", "f2"),
                ],
            }
        )
        exc = _assert_same_run(module)
        # (-8.0) ** 0.5 is complex, and float() of it raises.
        assert isinstance(exc, TypeError) == (base < 0)

    @pytest.mark.parametrize("c", [0, 1])
    @pytest.mark.parametrize("int_path", ["store", "unwritten"])
    def test_spill_slot_int_on_one_path_float_on_the_other(
        self, c, int_path
    ):
        then = [_movi("r1", 3)]
        if int_path == "store":
            then.append(_spill_st("r1", 2))
        module = _module(
            {
                "entry": [_brf("c", "other")],
                "then": then + [_br("join")],
                "other": [_movi("r2", 2.5), _spill_st("r2", 2)],
                "join": [
                    _spill_ld("r3", 2),
                    _op("mul", "r4", "r3", "r3"),
                    _op("fadd", "r5", "r3", "r3"),
                ],
            },
            scalars=[("c", "c", "int")],
        )
        assert _assert_same_run(module, env={"c": c}) is None

    def test_self_loop_carried_register_turns_float(self):
        """``acc`` enters the loop as int 1 and leaves the first
        iteration as float 1.5: the superblock runs every iteration
        from the fixpoint type at its head, which is unknown."""
        module = _module(
            {
                "entry": [
                    _movi("acc", 1),
                    _movi("i", 0),
                    _movi("one", 1),
                    _movi("n", 3),
                    _movi("half", 0.5),
                ],
                "loop": [
                    _op("mul", "t", "acc", "acc"),
                    _op("fadd", "acc", "acc", "half"),
                    _op("add", "i", "i", "one"),
                    _op("lt", "c", "i", "n"),
                    Instr("brt", srcs=("c",), label="loop"),
                ],
            }
        )
        assert _self_loops(module) == {"loop"}
        assert _assert_same_run(module) is None
        body = _loop_body(_sources(module)["loop"])
        assert body.count("_int(") == 2  # mul of acc; i's add is proven
        assert body.count("_float(") == 1  # acc, not half

    @pytest.mark.parametrize("k", [0, 1])
    def test_select_vmin_vmax_vabs_over_mixed_types(self, k):
        picks = [
            _op("vmin", "m1", "a", "b"),  # -2.5, the second operand
            _op("vmax", "m2", "b", "a"),  # 3, the second operand
            _op("select", "s", "k", "a", "b"),
            _op("vabs", "v1", "m1"),
            _op("vabs", "v2", "s"),
        ]
        uses = [
            _op(op, f"{op}_{pick.dst}", pick.dst, pick.dst)
            for pick in picks
            for op in ("mul", "fadd")
        ]
        module = _module(
            {"entry": [_movi("a", 3), _movi("b", -2.5)] + picks + uses},
            scalars=[("k", "k", "int")],
        )
        assert _assert_same_run(module, env={"k": k}) is None

    def test_float_immediate_feeding_integer_ops(self):
        module = _module(
            {
                "entry": [
                    _movi("x", 2.5),
                    _movi("y", 1.5),
                    _op("mul", "p", "x", "x"),
                    _op("add", "q", "x", "y"),
                    _op("div", "d", "x", "y"),
                    _op("mod", "r", "x", "y"),
                    _op("neg", "n", "x"),
                    _op("trunc", "t", "y"),
                    Instr("ld", dst="e", srcs=("y",), array="A"),
                    Instr("st", srcs=("x", "y"), array="A", disp=1),
                ],
            },
            arrays={"A": ((4,), "int")},
        )
        assert _assert_same_run(module) is None

    @pytest.mark.parametrize(
        "instrs,message",
        [
            (
                [_movi("x", 5.5), Instr("ld", dst="e", srcs=("x",),
                                        array="A")],
                "ld out of bounds: A[5] (size 4)",
            ),
            (
                [_movi("one", 1), _movi("z", 0.5),
                 _op("div", "q", "one", "z")],
                "integer division by zero",
            ),
        ],
        ids=["index", "divisor"],
    )
    def test_float_immediate_errors_like_the_reference(
        self, instrs, message
    ):
        module = _module({"entry": instrs}, arrays={"A": ((4,), "float")})
        exc = _assert_same_run(module)
        assert isinstance(exc, InterpError) and str(exc) == message

    def test_call_result_is_unknown(self):
        module = _module(
            {
                "entry": [
                    _movi("x", 3),
                    Instr("call", dst="y", srcs=("x",), name="half"),
                    _op("mul", "z", "y", "y"),
                    _op("fadd", "w", "x", "y"),
                ],
            }
        )
        functions = {"half": lambda v: v / 2}
        assert _assert_same_run(module, functions=functions) is None

    def test_unreachable_block_keeps_every_coercion(self):
        module = _module(
            {
                "entry": [_movi("x", 1), _br("end")],
                "dead": [_op("add", "y", "x", "x")],
                "end": [_op("add", "z", "x", "x")],
            }
        )
        assert _assert_same_run(module) is None
        sources = _sources(module)
        assert "_int(" in sources["dead"]
        assert "_int(" not in sources["end"]


def _outcome(run):
    """``(exception type, message)`` of ``run()``, or None if it returns."""
    try:
        run()
    except Exception as exc:
        return type(exc), str(exc)
    return None


_A4 = {"A": ((4,), "float")}

# (module, env, expected outcome of both executors).
_ERROR_CASES = {
    "st-computed-index": (
        _module(
            {
                "entry": [
                    _movi("i", 2), _movi("three", 3),
                    _op("add", "j", "i", "three"), _movi("v", 1.5),
                    Instr("st", srcs=("v", "j"), array="A"),
                ],
            },
            arrays=_A4,
        ),
        None,
        (InterpError, "st out of bounds: A[5] (size 4)"),
    ),
    "ld-constant-address": (
        _module({"entry": [Instr("ld", dst="x", array="A", disp=7)]},
                arrays=_A4),
        None,
        (InterpError, "ld out of bounds: A[7] (size 4)"),
    ),
    "fdiv-by-zero": (
        _module({"entry": [_movi("a", 1.0), _movi("z", 0.0),
                           _op("fdiv", "q", "a", "z")]}),
        None,
        (InterpError, "float division by zero"),
    ),
    "div-by-zero": (
        _module({"entry": [_movi("a", 7), _movi("z", 0),
                           _op("div", "q", "a", "z")]}),
        None,
        (InterpError, "integer division by zero"),
    ),
    "unknown-function": (
        _module({"entry": [_movi("x", 1), Instr(
            "call", dst="y", srcs=("x",), name="nosuch")]}),
        None,
        (InterpError, "call to unknown function 'nosuch'"),
    ),
    "unknown-block": (
        _module({"entry": [_movi("x", 1), _br("nowhere")]}),
        None,
        (InterpError, "branch to unknown block 'nowhere'"),
    ),
    "unknown-op": (
        _module({"entry": [_movi("x", 1), _op("frob", "y", "x")]}),
        None,
        (InterpError, "unknown LIR op 'frob'"),
    ),
    "unknown-op-dead-after-br": (
        _module({"entry": [_br("end"), _op("frob", "y", "x")],
                 "end": [_movi("x", 1)]}),
        None,
        None,
    ),
    "env-array-size": (
        _module({"entry": [_movi("x", 1)]}, arrays=_A4),
        {"A": np.zeros(5)},
        (InterpError, "array 'A' env size 5 != declared 4"),
    ),
    "undeclared-array": (
        _module({"entry": [Instr("ld", dst="x", array="B")]}, arrays=_A4),
        None,
        (KeyError, "'B'"),
    ),
}


@pytest.mark.usefixtures("hot_budget")
class TestErrorPathsMatchTheReference:
    @pytest.mark.parametrize("case", list(_ERROR_CASES))
    def test_same_exception_type_and_message(self, case):
        module, env, expected = _ERROR_CASES[case]
        machine = machine_by_name("itanium2")
        reference = _outcome(lambda: LIRInterpreter(module, env=env).run())
        fast = _outcome(lambda: execute(module, machine, env=env))
        assert reference == fast == expected


# A fixed sample of fuzz programs, every profile in turn: int/float
# mixes, spills and env-seeded stores the corpus does not have.
_FUZZ_SAMPLE = [
    (sorted(PROFILES)[i % len(PROFILES)], seed)
    for i, seed in enumerate(case_seeds(2026, 28))
]


@pytest.mark.usefixtures("hot_budget")
class TestFuzzSampleMatchesReference:
    @pytest.mark.parametrize(
        "profile,seed", _FUZZ_SAMPLE,
        ids=[f"{p}-{s}" for p, s in _FUZZ_SAMPLE],
    )
    def test_every_paper_pair(self, profile, seed):
        case = generate_case(seed, profile)
        program = parse_program(case.source)
        variants = [program]
        outcome = slms(program)
        if outcome.any_applied:
            variants.append(outcome.program)
        env = make_env(case)
        for machine_name, compiler in DEFAULT_PAIRS:
            machine = machine_by_name(machine_name)
            for variant in variants:
                compiled = FinalCompiler(machine, compiler).compile(
                    variant.clone()
                )
                _assert_same_run(compiled.module, env=env, machine=machine)


class TestLoopSuperblocksAreTyped:
    @pytest.mark.parametrize("machine_name,compiler", DEFAULT_PAIRS)
    def test_no_int_coercion_inside_corpus_loops(
        self, machine_name, compiler
    ):
        """Every integer operand inside a corpus loop superblock is
        proven int.  An op added without a type rule makes its result
        unknown and puts ``_int(`` back into the hot loops."""
        machine = machine_by_name(machine_name)
        for wl in WORKLOADS:
            for program in (wl.full_program(), transform_kernel(wl)[0]):
                module = FinalCompiler(machine, compiler).compile(
                    program
                ).module
                interp = ExecCompiledInterpreter(module, machine)
                for name in _self_loops(module):
                    source = interp._block_source(module.blocks[name])[0]
                    assert "_int(" not in _loop_body(source), (
                        wl.name, name
                    )


# -- cache geometry that is not a power of two ------------------------------

# 48-byte lines, 50 of them: the probe computes line and slot with
# ``//`` and ``%`` instead of shift and mask.  No preset has this shape.
_ODD_CACHE_MACHINE = dataclasses.replace(
    machine_by_name("itanium2"),
    cache=CacheConfig(size_bytes=2400, line_bytes=48),
)


@pytest.mark.usefixtures("hot_budget")
class TestNonPowerOfTwoCache:
    @pytest.mark.parametrize("compiler", ["gcc_O3", "icc_O3"])
    @pytest.mark.parametrize(
        "workload", ["daxpy", "kernel1", "kernel7", "btrix"]
    )
    def test_corpus_base_and_slms(self, workload, compiler):
        machine = _ODD_CACHE_MACHINE
        wl = get_workload(workload)
        for program in (wl.full_program(), transform_kernel(wl)[0]):
            module = FinalCompiler(machine, compiler).compile(program).module
            source = "".join(_sources(module, machine=machine).values())
            assert "// 48" in source and "% 50" in source
            assert _assert_same_run(module, machine=machine) is None

    def test_spill_and_array_traffic(self):
        """Spill slots and two arrays whose strided accesses keep
        evicting each other's lines, in a fused loop."""
        module = _module(
            {
                "entry": [
                    _movi("i", 0),
                    _movi("n", 90),
                    _movi("one", 1),
                    _movi("three", 3),
                    _movi("x", 0.5),
                    _spill_st("x", 0),
                ],
                "loop": [
                    _op("mul", "j", "i", "three"),
                    Instr("ld", dst="a", srcs=("j",), array="A", disp=5),
                    Instr("ld", dst="b", srcs=("i",), array="B"),
                    _spill_ld("s", 0),
                    _op("fadd", "s", "s", "a"),
                    _op("fmul", "s", "s", "b"),
                    _spill_st("s", 0),
                    _spill_st("i", 7),
                    Instr("st", srcs=("s", "j"), array="A", disp=1),
                    _op("add", "i", "i", "one"),
                    _op("lt", "c", "i", "n"),
                    Instr("brt", srcs=("c",), label="loop"),
                ],
                "exit": [_spill_ld("y", 0), _spill_ld("k", 7)],
            },
            scalars=[("y", "y", "float"), ("k", "k", "int")],
            arrays={"A": ((300,), "float"), "B": ((97,), "float")},
        )
        env = {
            "A": np.linspace(0.0, 1.0, 300),
            "B": np.linspace(1.0, 2.0, 97),
        }
        assert _self_loops(module) == {"loop"}
        assert _assert_same_run(
            module, env=env, machine=_ODD_CACHE_MACHINE
        ) is None


# -- one code object per block shape ----------------------------------------


def _registers(module):
    names = set(module.scalar_regs.values())
    for block in module.blocks.values():
        for instr in block.instrs:
            names.update(instr.srcs)
            if instr.dst is not None:
                names.add(instr.dst)
    return names


def _renamed(module):
    """A copy of ``module`` with every register consistently renamed,
    in reverse name order."""
    registers = sorted(_registers(module))
    rename = {
        reg: f"q{len(registers) - i}" for i, reg in enumerate(registers)
    }
    copied = copy.deepcopy(module)
    for block in copied.blocks.values():
        for instr in block.instrs:
            instr.srcs = tuple(rename[reg] for reg in instr.srcs)
            if instr.dst is not None:
                instr.dst = rename[instr.dst]
    copied.scalar_regs = {
        name: rename[reg] for name, reg in copied.scalar_regs.items()
    }
    return copied


class TestOneCodeObjectPerShape:
    @pytest.mark.parametrize("workload", ["kernel1", "btrix"])
    def test_register_renaming_shares_source_and_code(
        self, workload, monkeypatch
    ):
        compiled, machine = _compile(workload, compiler="icc_O3")
        module = compiled.module
        renamed = _renamed(module)
        assert not _registers(module) & _registers(renamed)
        sources = _sources(module)
        assert _sources(renamed) == sources
        # Every block compiles at its first entry; running the renamed
        # module then compiles nothing new.
        monkeypatch.setattr(codegen_exec, "HOT_BUDGET", 0)
        monkeypatch.setattr(codegen_exec, "_CODE_CACHE", {})
        interp = ExecCompiledInterpreter(module, machine)
        interp.run()
        ran = interp.metrics().block_executions
        assert len(codegen_exec._CODE_CACHE) == len(
            {sources[name] for name in ran}
        )
        ExecCompiledInterpreter(renamed, machine).run()
        assert len(codegen_exec._CODE_CACHE) == len(
            {sources[name] for name in ran}
        )
        # The names tuple carries the renaming into the register file.
        assert _assert_same_run(renamed) is None
        _assert_states_identical(
            execute(renamed, machine).state, execute(module, machine).state
        )

    def test_energy_coefficients_stay_out_of_the_source(self):
        compiled, machine = _compile("kernel1", compiler="icc_O3")
        module = compiled.module
        repowered = dataclasses.replace(
            machine,
            power=PowerProfile(
                energy_per_op={"alu": 7.0, "mem": 3.0, "fmul": 11.0},
                energy_per_cycle=5.0,
                energy_cache_miss=900.0,
            ),
        )
        assert _sources(module, machine=repowered) == _sources(module)
        assert _assert_same_run(module, machine=repowered) is None
        assert (
            execute(module, repowered).metrics.energy_pj
            != execute(module, machine).metrics.energy_pj
        )

    @pytest.mark.parametrize("machine_name,compiler", DEFAULT_PAIRS)
    def test_no_register_name_or_fstring_in_corpus_sources(
        self, machine_name, compiler
    ):
        machine = machine_by_name(machine_name)
        for wl in WORKLOADS:
            for program in (wl.full_program(), transform_kernel(wl)[0]):
                module = FinalCompiler(machine, compiler).compile(
                    program
                ).module
                registers = _registers(module)
                for name, source in _sources(module, machine=machine).items():
                    nodes = list(ast.walk(ast.parse(source)))
                    assert not any(
                        isinstance(node, ast.JoinedStr) for node in nodes
                    ), (wl.name, name)
                    strings = {
                        node.value
                        for node in nodes
                        if isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                    }
                    assert not strings & registers, (wl.name, name)
