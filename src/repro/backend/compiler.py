"""The final compiler: configurable pass pipeline + presets.

``FinalCompiler(machine, config)`` lowers a source program through
codegen → register allocation → list scheduling → (optionally)
machine-level modulo scheduling, returning a :class:`CompiledProgram`
ready for the cycle simulator.

Presets map to the paper's compilers:

=============  ==========================================================
``gcc_O0``     no scheduling at all (one op per cycle) — the "weak
               compiler without -O3" side of Fig. 16
``gcc_O3``     list scheduling only.  The paper found GCC's Swing MS
               ineffective ("scheduling optimizations such as MVE and
               unrolling were not performed"), so the GCC model runs no
               machine-level MS — the Figs. 14/15/17 baseline
``icc_O3``     list scheduling + IMS + predication (EPIC) — Figs. 18/19
``icc_O0``     ICC with optimization disabled (Fig. 16's gap)
``xlc_O3``     list scheduling + IMS, no predication — Fig. 20
``arm_gcc``    list scheduling on a single-issue core — Figs. 21/22
=============  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.backend.codegen import compile_to_lir
from repro.backend.ims import IMSReport, run_ims
from repro.backend.listsched import schedule_module, sequential_lengths
from repro.backend.lir import Module
from repro.backend.regalloc import AllocationResult, allocate
from repro.backend.rotate import rotate_loops
from repro.lang.ast_nodes import Program
from repro.lang.parser import parse_program_cached
from repro.machines.model import MachineModel


@dataclass(frozen=True)
class CompilerConfig:
    """Which passes the final compiler runs."""

    name: str
    list_schedule: bool = True
    ims: bool = False
    predication: bool = False
    regalloc: bool = True
    # Bottom-test loop rotation; off models a compiler that schedules
    # straight-line code but leaves loop control naive.
    rotate: bool = True
    # Fuse float multiply-add into one op (Itanium/POWER4 FMA pipes).
    fma: bool = False


COMPILER_PRESETS: Dict[str, CompilerConfig] = {
    "gcc_O0": CompilerConfig(name="gcc_O0", list_schedule=False),
    "gcc_O3": CompilerConfig(name="gcc_O3", list_schedule=True),
    "icc_O0": CompilerConfig(name="icc_O0", list_schedule=True, rotate=False),
    "icc_O3": CompilerConfig(
        name="icc_O3", list_schedule=True, ims=True, predication=True,
        fma=True,
    ),
    "xlc_O3": CompilerConfig(
        name="xlc_O3", list_schedule=True, ims=True, fma=True
    ),
    "arm_gcc": CompilerConfig(name="arm_gcc", list_schedule=True),
}


@dataclass
class CompiledProgram:
    """Output of the final compiler, ready to execute."""

    module: Module
    machine: MachineModel
    config: CompilerConfig
    alloc: Optional[AllocationResult] = None
    ims_reports: List[IMSReport] = field(default_factory=list)

    @property
    def ims_applied(self) -> bool:
        return any(r.success for r in self.ims_reports)


class FinalCompiler:
    """Compile source programs for a machine at a given preset."""

    def __init__(self, machine: MachineModel, config: CompilerConfig | str):
        self.machine = machine
        if isinstance(config, str):
            config = COMPILER_PRESETS[config]
        self.config = config

    def compile(self, program: Program | str) -> CompiledProgram:
        from repro.obs import get_tracer

        tracer = get_tracer()
        if isinstance(program, str):
            program = parse_program_cached(program)
        with tracer.span(
            "backend.compile",
            machine=self.machine.name,
            preset=self.config.name,
        ):
            return self._compile(program, tracer)

    def _compile(self, program: Program, tracer) -> CompiledProgram:
        module = compile_to_lir(
            program,
            use_predication=self.config.predication,
            use_fma=self.config.fma,
        )
        ims_reports: List[IMSReport] = []
        if self.config.list_schedule:
            if self.config.rotate:
                rotate_loops(module)
            # Schedule (and modulo-schedule) on virtual registers — the
            # compiler's view before allocation, free of the false
            # WAW/WAR chains register reuse would inject.
            schedule_module(module, self.machine)
            if self.config.ims:
                ims_reports = run_ims(module, self.machine)
                if tracer.enabled:
                    for report in ims_reports:
                        tracer.event(
                            "backend.ims",
                            loop=report.loop,
                            success=report.success,
                            ii=report.ii,
                            reason=report.reason or "",
                        )
        alloc = None
        if self.config.regalloc:
            alloc = allocate(module, self.machine.num_registers)
            # Spill code invalidates the affected blocks' schedules (and
            # any modulo schedule): rebuild them on the physical code so
            # spill serialization is priced in.
            for name in alloc.touched_blocks:
                block = module.blocks[name]
                if block.ims_ii is not None:
                    block.ims_ii = None
                    for report in ims_reports:
                        if report.loop == name and report.success:
                            report.success = False
                            report.ii = None
                            report.reason = (
                                "register pressure: spill code invalidated "
                                "the modulo schedule"
                            )
                if self.config.list_schedule:
                    from repro.backend.listsched import schedule_block

                    schedule_block(block, self.machine)
        if not self.config.list_schedule:
            sequential_lengths(module, self.machine)
        return CompiledProgram(
            module=module,
            machine=self.machine,
            config=self.config,
            alloc=alloc,
            ims_reports=ims_reports,
        )


def compile_and_run(
    program: Program | str,
    machine: MachineModel,
    config: CompilerConfig | str,
    env: Optional[Mapping[str, Any]] = None,
):
    """Convenience: compile then execute; returns (CompiledProgram,
    ExecutionResult)."""
    from repro.sim.executor import execute

    compiled = FinalCompiler(machine, config).compile(program)
    result = execute(compiled.module, machine, env=env)
    return compiled, result
