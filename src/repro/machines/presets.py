"""The four evaluation CPUs, parameterized from their public
microarchitecture descriptions.

Absolute numbers are approximations — the reproduction targets the
*shape* of the paper's results, which these models drive: Itanium II is
wide with deep FP latency (SLMS exposes ILP to fill bundles), Pentium is
narrow with 8 registers (MVE-induced spilling hurts, Fig. 17 / kernel
10), POWER4 is a middle ground with strong FP (Fig. 20), and ARM7TDMI is
scalar so SLMS's parallelism only hides memory latency (Figs. 21–22).
"""

from __future__ import annotations

from typing import Dict

from repro.machines.model import CacheConfig, MachineModel, PowerProfile


def itanium2() -> MachineModel:
    """Itanium II: 2 bundles/cycle ≈ 6 issue, 2 FP (fma) units, 4 mem
    ports, 128 registers, 4-cycle FP latency."""
    return MachineModel(
        name="itanium2",
        issue_width=6,
        units={"alu": 6, "fadd": 2, "fmul": 2, "div": 1, "mem": 4, "branch": 3},
        latencies={"alu": 1, "fadd": 4, "fmul": 4, "div": 24, "mem": 2, "branch": 1},
        num_registers=96,
        cache=CacheConfig(size_bytes=16 * 1024, line_bytes=64, miss_penalty=7),
    )


def pentium() -> MachineModel:
    """Pentium-class superscalar: narrow issue, one memory port, and the
    x86 architected register famine (8)."""
    return MachineModel(
        name="pentium",
        issue_width=3,
        units={"alu": 2, "fadd": 1, "fmul": 1, "div": 1, "mem": 1, "branch": 1},
        latencies={"alu": 1, "fadd": 3, "fmul": 5, "div": 30, "mem": 1, "branch": 1},
        num_registers=8,
        cache=CacheConfig(size_bytes=8 * 1024, line_bytes=32, miss_penalty=10),
    )


def power4() -> MachineModel:
    """POWER4: 5-wide, two FMA pipes with 6-cycle latency, 32 registers."""
    return MachineModel(
        name="power4",
        issue_width=5,
        units={"alu": 2, "fadd": 2, "fmul": 2, "div": 1, "mem": 2, "branch": 1},
        latencies={"alu": 1, "fadd": 6, "fmul": 6, "div": 30, "mem": 2, "branch": 1},
        num_registers=32,
        cache=CacheConfig(size_bytes=32 * 1024, line_bytes=128, miss_penalty=12),
    )


def arm7tdmi() -> MachineModel:
    """ARM7TDMI: single-issue scalar, no FP hardware (soft-float modeled
    as long-latency ops), 3-stage pipeline, small cache, power profile
    tuned for the Sim-Panalyzer-style energy accounting."""
    return MachineModel(
        name="arm7tdmi",
        issue_width=1,
        units={"alu": 1, "fadd": 1, "fmul": 1, "div": 1, "mem": 1, "branch": 1},
        latencies={"alu": 1, "fadd": 8, "fmul": 10, "div": 40, "mem": 2, "branch": 2},
        num_registers=14,  # r0-r12 + lr usable for data
        cache=CacheConfig(size_bytes=4 * 1024, line_bytes=16, miss_penalty=20),
        power=PowerProfile(
            energy_per_op={
                "alu": 80.0,
                "fadd": 350.0,
                "fmul": 450.0,
                "div": 800.0,
                "mem": 180.0,
                "branch": 70.0,
            },
            energy_per_cycle=45.0,
            energy_cache_miss=2200.0,
        ),
    )


def machine_by_name(name: str) -> MachineModel:
    """Look up a preset by name."""
    try:
        return ALL_MACHINES[name]()
    except KeyError:
        raise ValueError(
            f"unknown machine {name!r}; choose from "
            + ", ".join(sorted(ALL_MACHINES))
        ) from None


ALL_MACHINES: Dict[str, object] = {
    "itanium2": itanium2,
    "pentium": pentium,
    "power4": power4,
    "arm7tdmi": arm7tdmi,
}
