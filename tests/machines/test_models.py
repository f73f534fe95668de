"""Machine model and preset tests."""

import dataclasses
import re

import pytest

from repro.machines import (
    ALL_MACHINES,
    arm7tdmi,
    itanium2,
    machine_by_name,
    pentium,
    power4,
)
from repro.machines.model import CacheConfig, MachineModel, PowerProfile


class TestPresets:
    def test_all_presets_validate(self):
        for factory in (itanium2, pentium, power4, arm7tdmi):
            factory().validate()

    def test_lookup_by_name(self):
        for name in ALL_MACHINES:
            assert machine_by_name(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            machine_by_name("cray1")

    def test_relative_widths(self):
        assert itanium2().issue_width > power4().issue_width >= pentium().issue_width
        assert arm7tdmi().issue_width == 1

    def test_register_famine_ordering(self):
        assert pentium().num_registers < arm7tdmi().num_registers
        assert arm7tdmi().num_registers < power4().num_registers
        assert power4().num_registers < itanium2().num_registers

    def test_arm_soft_float_latencies(self):
        arm = arm7tdmi()
        assert arm.latency("fadd") > itanium2().latency("fadd")

    def test_unit_counts_defaults(self):
        model = itanium2()
        assert model.unit_count("mem") == 4
        assert model.unit_count("branch") >= 1


class TestModelValidation:
    def test_unknown_unit_class_rejected(self):
        model = MachineModel(
            name="bad",
            issue_width=2,
            units={"teleport": 1},
            latencies={},
            num_registers=16,
        )
        with pytest.raises(ValueError):
            model.validate()

    def test_degenerate_rejected(self):
        model = MachineModel(
            name="bad",
            issue_width=0,
            units={},
            latencies={},
            num_registers=16,
        )
        with pytest.raises(ValueError):
            model.validate()

    def test_latency_default(self):
        model = itanium2()
        assert model.latency("branch") == 1


class TestCacheConfig:
    def test_num_lines(self):
        config = CacheConfig(size_bytes=1024, line_bytes=64)
        assert config.num_lines == 16

    def test_tiny_cache_floor(self):
        config = CacheConfig(size_bytes=16, line_bytes=64)
        assert config.num_lines == 1


class TestPowerProfile:
    def test_op_energy_lookup(self):
        profile = PowerProfile()
        assert profile.op_energy("fmul") > profile.op_energy("alu")

    def test_unknown_class_default(self):
        assert PowerProfile().op_energy("mystery") > 0

    def test_arm_profile_cheaper_ops(self):
        assert (
            arm7tdmi().power.op_energy("alu")
            < itanium2().power.op_energy("alu")
        )

    @pytest.mark.parametrize("name", sorted(ALL_MACHINES))
    def test_presets_pass_the_coefficient_check(self, name):
        power = machine_by_name(name).power
        assert dataclasses.replace(power) == power  # re-runs the check

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"energy_per_cycle": 60.5}, "energy_per_cycle"),
            ({"energy_cache_miss": float("inf")}, "energy_cache_miss"),
            ({"energy_per_op": {"alu": 120.0, "mem": 0.25}},
             "energy_per_op['mem']"),
            ({"energy_per_op": {"fadd": float("nan")}},
             "energy_per_op['fadd']"),
        ],
        ids=["fraction", "infinite", "op-fraction", "op-nan"],
    )
    def test_non_integral_coefficient_rejected(self, kwargs, field):
        """The fast path's derived energy equals the reference's
        per-event sum only for integral picojoules."""
        with pytest.raises(ValueError, match=re.escape(f"{field} must")):
            PowerProfile(**kwargs)
