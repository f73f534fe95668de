"""Machine model dataclasses.

A :class:`MachineModel` is everything the backend and the cycle
simulator need to know about a CPU: how many operations issue per cycle,
how many of each functional-unit class exist, operation latencies, the
architected register count (register allocation spills beyond it), an L1
data-cache configuration, and optionally a per-operation energy profile
(used for the ARM power experiments).

Operation classes used throughout the backend:

``alu``   integer/compare/move/address arithmetic
``fadd``  floating add/sub
``fmul``  floating multiply (also fma)
``div``   any divide/mod/sqrt
``mem``   load/store (shared port pool)
``branch`` control transfer
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Mapping

OP_CLASSES = ("alu", "fadd", "fmul", "div", "mem", "branch")


@dataclass(frozen=True)
class CacheConfig:
    """Direct-mapped L1 data cache."""

    size_bytes: int = 16 * 1024
    line_bytes: int = 64
    miss_penalty: int = 12
    word_bytes: int = 8

    @property
    def num_lines(self) -> int:
        return max(1, self.size_bytes // self.line_bytes)


@dataclass(frozen=True)
class PowerProfile:
    """Per-event energy in picojoules (Sim-Panalyzer-style accounting).

    Every coefficient must be a finite, integral number of picojoules.
    The simulator's fast path multiplies per-block energies by execution
    counts where the reference adds per event; with integer-valued
    doubles below 2**53 both sums are exact, so they agree to the last
    bit.
    """

    energy_per_op: Mapping[str, float] = field(
        default_factory=lambda: {
            "alu": 120.0,
            "fadd": 400.0,
            "fmul": 600.0,
            "div": 900.0,
            "mem": 250.0,
            "branch": 90.0,
        }
    )
    energy_per_cycle: float = 60.0  # clock tree + leakage per cycle
    energy_cache_miss: float = 2800.0  # line fill from memory

    def __post_init__(self) -> None:
        coefficients = [
            (f"energy_per_op[{cls!r}]", value)
            for cls, value in self.energy_per_op.items()
        ]
        coefficients += [
            ("energy_per_cycle", self.energy_per_cycle),
            ("energy_cache_miss", self.energy_cache_miss),
        ]
        for name, value in coefficients:
            if not (
                isinstance(value, numbers.Real) and float(value).is_integer()
            ):
                raise ValueError(
                    f"PowerProfile.{name} must be a finite, integral "
                    f"number of picojoules, got {value!r}"
                )

    def op_energy(self, op_class: str) -> float:
        return self.energy_per_op.get(op_class, 100.0)


@dataclass(frozen=True)
class MachineModel:
    """A CPU for the final compiler and the cycle simulator.

    ``units`` caps how many operations of each class issue per cycle;
    ``issue_width`` caps the total.  ``latencies`` are producer→consumer
    delays in cycles (1 = result available next cycle).
    """

    name: str
    issue_width: int
    units: Mapping[str, int]
    latencies: Mapping[str, int]
    num_registers: int
    cache: CacheConfig = field(default_factory=CacheConfig)
    power: PowerProfile = field(default_factory=PowerProfile)
    # Compilers restrict machine-level MS to small loops (§7 point 1).
    ims_max_ops: int = 50

    def unit_count(self, op_class: str) -> int:
        return self.units.get(op_class, 1)

    def latency(self, op_class: str) -> int:
        return self.latencies.get(op_class, 1)

    def validate(self) -> None:
        for cls in self.units:
            if cls not in OP_CLASSES:
                raise ValueError(f"unknown op class {cls!r}")
        for cls in self.latencies:
            if cls not in OP_CLASSES:
                raise ValueError(f"unknown op class {cls!r}")
        if self.issue_width < 1 or self.num_registers < 4:
            raise ValueError("degenerate machine model")


def res_mii_for_counts(machine: MachineModel, counts: Mapping[str, int]) -> int:
    """Resource-constrained MII for a per-iteration op-class census.

    ``max over classes ⌈uses/units⌉``, plus the total-issue bound
    ``⌈Σ uses / issue_width⌉``.  Branches ride the loop back-edge slot
    and are excluded.  Shared by the machine-level ``backend/ims.py``
    (counting LIR instructions) and the source-level
    ``core/schedulers`` resMII (counting MI operations).
    """
    best = 1
    total = 0
    for cls, count in counts.items():
        if cls == "branch" or count <= 0:
            continue
        total += count
        best = max(best, -(-count // max(1, machine.unit_count(cls))))
    return max(best, -(-total // max(1, machine.issue_width)))
