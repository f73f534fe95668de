"""Cycle-level execution of compiled programs.

Runs a compiled module while charging time and energy as blocks
execute:

* each basic-block execution costs its list-scheduled length in cycles
  (``-O0`` code costs one cycle per instruction);
* a block that machine-level modulo scheduling pipelined costs its
  ``ims_ii`` per execution instead (the steady-state kernel rate);
* every memory access probes the direct-mapped L1; misses add the
  machine's penalty (this is where SLMS's extra array references — §4's
  bad cases — actually cost);
* energy accumulates per executed operation class, per cycle, and per
  miss, in the Sim-Panalyzer style used for the ARM figures.

Accounting is *static per block*: a block's executed instruction mix is
invariant across executions (a conditional branch always ends its
block — IR check V217), so its instruction count, op-class mix and
per-op energy are precomputed once and charged per block execution.
Memory/cache events stay dynamic — they depend on the addresses
actually touched.  :func:`execute` runs the exec-compiled fast path
(:mod:`repro.sim.codegen_exec`), which compiles a block only once it
is hot and steps cold blocks with the reference's own per-instruction
step; either way it charges blocks through these profiles.  The plain
per-instruction :class:`~repro.sim.lir_interp.LIRInterpreter` driven
by :class:`_DynamicTimingObserver`, which charges every instruction as
it runs, is the reference that tests pin the fast path against.

The functional result is returned alongside the metrics so every
benchmark doubles as a correctness check against the source
interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.backend.lir import Block, Instr, Module
from repro.machines.model import MachineModel
from repro.sim.cache import AddressMap, DirectMappedCache
from repro.sim.lir_interp import Observer


@dataclass
class ExecutionMetrics:
    """What one simulated run cost."""

    cycles: int = 0
    instructions: int = 0
    mem_accesses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    energy_pj: float = 0.0
    op_counts: Dict[str, int] = field(default_factory=dict)
    block_executions: Dict[str, int] = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        return (
            self.cache_misses / self.mem_accesses if self.mem_accesses else 0.0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "mem_accesses": self.mem_accesses,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "energy_pj": self.energy_pj,
            "op_counts": dict(self.op_counts),
            "block_executions": dict(self.block_executions),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ExecutionMetrics":
        return ExecutionMetrics(
            cycles=int(data["cycles"]),
            instructions=int(data["instructions"]),
            mem_accesses=int(data["mem_accesses"]),
            cache_hits=int(data["cache_hits"]),
            cache_misses=int(data["cache_misses"]),
            energy_pj=float(data["energy_pj"]),
            op_counts={k: int(v) for k, v in data["op_counts"].items()},
            block_executions={
                k: int(v) for k, v in data["block_executions"].items()
            },
        )


def _block_cost(block: Block) -> int:
    """Cycles one execution of ``block`` costs (before cache misses)."""
    if block.ims_ii is not None:
        return block.ims_ii
    if block.schedule is not None:
        return block.schedule_length
    return len(block.instrs)  # unscheduled: sequential issue


def _executed_prefix(block: Block) -> List[Instr]:
    """The instructions every execution of ``block`` runs.

    Control only leaves a block through a branch, and anything after an
    unconditional ``br`` is dead.  Raises ``ValueError`` when a
    conditional branch has instructions after it (IR check V217): the
    executed mix would then depend on the path taken.
    """
    pos = block.midblock_branch()
    if pos is not None:
        raise ValueError(
            f"V217: block {block.name!r} has a conditional branch at "
            f"[{pos}] before its last instruction; the simulator needs "
            "every block's executed instruction mix to be invariant"
        )
    executed: List[Instr] = []
    for instr in block.instrs:
        executed.append(instr)
        if instr.op == "br":
            break
    return executed


@dataclass
class _BlockProfile:
    """Static per-execution charge for one block."""

    cost: int
    instructions: int
    op_items: Tuple[Tuple[str, int], ...]
    energy: float  # op energy + cost × energy-per-cycle


def _profile_blocks(
    module: Module, machine: MachineModel
) -> Dict[str, _BlockProfile]:
    """Per-block static profiles; ``ValueError`` (V217) if any block's
    executed instruction mix is path-dependent."""
    profiles: Dict[str, _BlockProfile] = {}
    for name, block in module.blocks.items():
        executed = _executed_prefix(block)
        cost = _block_cost(block)
        op_counts: Dict[str, int] = {}
        op_energy = 0.0
        for instr in executed:
            cls = instr.op_class()
            op_counts[cls] = op_counts.get(cls, 0) + 1
            op_energy += machine.power.op_energy(cls)
        profiles[name] = _BlockProfile(
            cost=cost,
            instructions=len(executed),
            op_items=tuple(op_counts.items()),
            energy=op_energy + cost * machine.power.energy_per_cycle,
        )
    return profiles


class _DynamicTimingObserver(Observer):
    """Per-instruction accounting: the reference implementation.

    Driven by :class:`~repro.sim.lir_interp.LIRInterpreter`, it
    charges every block, instruction and memory access as it happens.
    :func:`execute` never selects it; tests pin the exec-compiled fast
    path against it.  It shares no code with :func:`_profile_blocks`,
    so it also catches a wrong block profile.
    """

    def __init__(self, module: Module, machine: MachineModel):
        self.machine = machine
        self.metrics = ExecutionMetrics()
        self.cache = DirectMappedCache(machine.cache)
        self.addresses = AddressMap(
            module.arrays,
            word_bytes=machine.cache.word_bytes,
            line_bytes=machine.cache.line_bytes,
        )

    def on_block(self, block_name: str, module: Module) -> None:
        cost = _block_cost(module.blocks[block_name])
        self.metrics.cycles += cost
        self.metrics.energy_pj += cost * self.machine.power.energy_per_cycle
        counts = self.metrics.block_executions
        counts[block_name] = counts.get(block_name, 0) + 1

    def on_instr(self, instr: Instr) -> None:
        self.metrics.instructions += 1
        cls = instr.op_class()
        self.metrics.op_counts[cls] = self.metrics.op_counts.get(cls, 0) + 1
        self.metrics.energy_pj += self.machine.power.op_energy(cls)

    def on_mem(self, array: str, flat_index: int, is_store: bool) -> None:
        self.metrics.mem_accesses += 1
        address = self.addresses.address(array, flat_index)
        if self.cache.access(address):
            self.metrics.cache_hits += 1
        else:
            self.metrics.cache_misses += 1
            penalty = self.machine.cache.miss_penalty
            self.metrics.cycles += penalty
            # Stall cycles burn clock/leakage power too.
            self.metrics.energy_pj += (
                self.machine.power.energy_cache_miss
                + penalty * self.machine.power.energy_per_cycle
            )


@dataclass
class ExecutionResult:
    state: Dict[str, Any]
    metrics: ExecutionMetrics


def execute(
    module: Module,
    machine: MachineModel,
    env: Optional[Mapping[str, Any]] = None,
    functions: Optional[Mapping[str, Any]] = None,
    max_steps: int = 50_000_000,
) -> ExecutionResult:
    """Functionally execute ``module`` while accounting cycles/energy.

    Runs the tiered exec-compiled fast path
    (:class:`~repro.sim.codegen_exec.ExecCompiledInterpreter`) over
    static per-block profiles.  Raises ``ValueError`` naming V217 when
    a block's executed instruction mix is path-dependent.
    """
    from repro.obs import get_metrics, get_tracer
    from repro.sim.codegen_exec import ExecCompiledInterpreter

    tracer = get_tracer()
    with tracer.span("sim.execute", machine=machine.name) as span:
        interp = ExecCompiledInterpreter(
            module, machine, env=env, functions=functions, max_steps=max_steps
        )
        state = interp.run()
        metrics = interp.metrics()
        if tracer.enabled:
            span.set(
                cycles=metrics.cycles,
                instructions=metrics.instructions,
                cache_misses=metrics.cache_misses,
            )
    # Feed the ambient registry: one batch of counter bumps per simulated
    # run — deliberately outside the interpreter loop, so the LIR fast
    # path carries zero observability cost.
    registry = get_metrics()
    registry.counter("sim.runs").inc()
    registry.counter("sim.cycles").inc(metrics.cycles)
    registry.counter("sim.instructions").inc(metrics.instructions)
    registry.counter("sim.mem_accesses").inc(metrics.mem_accesses)
    registry.counter("sim.cache_hits").inc(metrics.cache_hits)
    registry.counter("sim.cache_misses").inc(metrics.cache_misses)
    registry.counter("sim.stall_cycles").inc(
        metrics.cache_misses * machine.cache.miss_penalty
    )
    registry.counter("sim.energy_pj").inc(metrics.energy_pj)
    registry.histogram("sim.cycles_per_run").observe(metrics.cycles)
    return ExecutionResult(state=state, metrics=metrics)
