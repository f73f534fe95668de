"""Pin the simulator's fast path to its one reference.

:func:`repro.sim.executor.execute` always runs the exec-compiled block
functions (:mod:`repro.sim.codegen_exec`) over static per-block
profiles.  The reference is the closure
:class:`~repro.sim.lir_interp.LIRInterpreter` driven by the
per-instruction ``_DynamicTimingObserver``, which shares no code with
the block profiles.  Every workload, on every machine, must produce
*bit-identical* final state and metrics on both.  Equality here is
strict — exact ints, exact float ``repr`` for energy, and identical
dict insertion order for ``op_counts``/``block_executions`` — because
the sweep digest gate depends on all of it.
"""

import numpy as np
import pytest

from repro.backend.compiler import FinalCompiler
from repro.backend.lir import Instr, Module
from repro.machines import machine_by_name
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


def _compile(workload_name: str, machine_name: str = "itanium2",
             compiler: str = "gcc_O3"):
    machine = machine_by_name(machine_name)
    wl = get_workload(workload_name)
    compiled = FinalCompiler(machine, compiler).compile(wl.full_program())
    return compiled, machine


def _reference(module, machine, max_steps=50_000_000):
    """Run the per-instruction reference: closure interpreter plus
    observer."""
    observer = _DynamicTimingObserver(module, machine)
    interp = LIRInterpreter(module, observer=observer, max_steps=max_steps)
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
        """Observers that override on_instr keep per-instruction events
        (the closure interpreter only skips the callback for
        non-overriders)."""

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
