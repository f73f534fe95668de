"""The IMS memo: one modulo schedule per distinct loop body.

``run_ims`` replays a memoized outcome for a body it has scheduled
before.  Every test here compares against schedules computed with the
memo empty, so a replay must be indistinguishable from a fresh run.
"""

from dataclasses import fields, replace

import pytest

from repro.backend import ims
from repro.backend.compiler import FinalCompiler, compiler_by_name
from repro.backend.lir import Block, Instr, IVInfo, LoopDesc, Module
from repro.harness.expcache import module_fingerprint
from repro.harness.experiment import transform_kernel
from repro.machines import itanium2
from repro.machines.presets import machine_by_name
from repro.workloads import all_workloads

PAIRS = (("itanium2", "icc_O3"), ("power4", "xlc_O3"))


@pytest.fixture(scope="module")
def corpus_programs():
    """(label, program) for every workload's setup, base and SLMS
    programs: the three programs an experiment compiles."""
    programs = []
    for workload in all_workloads():
        slms_prog, _ = transform_kernel(workload)
        programs += [
            (f"{workload.name}/setup", workload.setup_program()),
            (f"{workload.name}/base", workload.full_program()),
            (f"{workload.name}/slms", slms_prog),
        ]
    return programs


@pytest.fixture()
def memo(monkeypatch):
    """A private, initially empty memo for the test."""
    outcomes = {}
    monkeypatch.setattr(ims, "_OUTCOMES", outcomes)
    return outcomes


@pytest.fixture()
def scheduled(monkeypatch):
    """Counts the loop bodies IMS actually schedules (memo misses)."""
    calls = []
    original = ims._schedule_loop

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ims, "_schedule_loop", counting)
    return calls


def _compile(machine, compiler, program):
    compiled = FinalCompiler(machine, compiler).compile(program)
    return compiled.ims_reports, module_fingerprint(compiled.module)


@pytest.mark.parametrize("pair", PAIRS, ids="/".join)
def test_warm_memo_replays_cold_schedules(
    pair, corpus_programs, memo, scheduled
):
    machine = machine_by_name(pair[0])
    cold = {}
    for label, program in corpus_programs:
        memo.clear()
        cold[label] = _compile(machine, pair[1], program)
    assert sum(len(reports) for reports, _ in cold.values()) == len(scheduled)

    # First warm pass: the memo fills as a sweep's would, so the setup's
    # loops already hit inside it; the second pass hits on every loop.
    memo.clear()
    del scheduled[:]
    for label, program in corpus_programs:
        assert _compile(machine, pair[1], program) == cold[label], label
    distinct = len(scheduled)
    assert distinct == len(memo)
    assert distinct < sum(len(reports) for reports, _ in cold.values())
    del scheduled[:]
    for label, program in corpus_programs:
        assert _compile(machine, pair[1], program) == cold[label], label
    assert scheduled == []


# A loop whose modulo schedule (II 15, MaxLive 10) fits a 10-register
# itanium2, but whose invariants do not: allocation spills inside the
# body, and the final compiler withdraws the schedule in place.
SPILLED = """
float A[64], B[64], C[64];
float a = 1.5, b = 2.5, c = 0.5, d = 3.0, e = 4.0;
for (i = 0; i < 64; i++) { A[i] = B[i] * a + C[i] * b + c; }
d = d + a + b + c + e;
"""


def test_spill_invalidation_never_reaches_the_memo(memo, scheduled):
    machine = replace(itanium2(), num_registers=10)
    # The same pre-allocation body without register allocation: its
    # schedule stands, so it reads the memo's unmutated outcome.
    unallocated = replace(
        compiler_by_name("xlc_O3"), name="xlc_O3_noregalloc", regalloc=False
    )
    kept = _compile(machine, unallocated, SPILLED)
    assert [r.success for r in kept[0]] == [True]

    memo.clear()
    first = _compile(machine, "xlc_O3", SPILLED)
    second = _compile(machine, "xlc_O3", SPILLED)
    assert [r.reason for r in first[0]] == [
        "register pressure: spill code invalidated the modulo schedule"
    ]
    assert second == first
    assert _compile(machine, unallocated, SPILLED) == kept
    # One schedule served all three compiles after the clear.
    assert len(scheduled) == 2
    assert [r.success for r in memo.values()] == [True]


def test_memo_past_its_bound_changes_no_result(
    corpus_programs, memo, monkeypatch
):
    machine = machine_by_name("power4")
    cold = {}
    for label, program in corpus_programs:
        memo.clear()
        cold[label] = _compile(machine, "xlc_O3", program)
    memo.clear()
    monkeypatch.setattr(ims, "_OUTCOMES_LIMIT", 3)
    for label, program in corpus_programs:
        assert _compile(machine, "xlc_O3", program) == cold[label], label
        assert len(memo) <= 3


class TestBodyKey:
    BODY = [
        Instr(op="ld", dst="v1", srcs=("v0",), array="A", disp=1,
              iv=IVInfo("v0", 1, 1)),
        Instr(op="fmul", dst="v2", srcs=("v1", "v1")),
        Instr(op="st", srcs=("v2", "v0"), array="B",
              iv=IVInfo("v0", 1, 0)),
    ]

    def test_encoding_covers_every_instr_field(self):
        base = Instr(op="ld", dst="v1", srcs=("v0",), imm=1, array="A",
                     disp=1, label="L", name="f", iv=IVInfo("v0", 1, 1))
        changed = {
            "op": "st", "dst": "v9", "srcs": ("v8",), "imm": 1.0,
            "array": "B", "disp": 2, "label": "M", "name": "g",
            "iv": IVInfo("v0", 1, 2),
        }
        assert set(changed) == {f.name for f in fields(Instr)}
        for name, value in changed.items():
            other = replace(base, **{name: value})
            assert other.encoding() != base.encoding(), name

    def test_distinct_inputs_schedule_separately(self, memo, scheduled):
        def module(body, step=1, length=6):
            block = Block("bb1", list(body), schedule=[[0]],
                          schedule_length=length)
            return Module(blocks={"bb1": block}, order=["bb1"],
                          loops=[LoopDesc("bb0", "bb1", "v0", step)])

        machine = itanium2()
        reports = ims.run_ims(module(self.BODY), machine)
        assert reports[0].success and len(scheduled) == 1
        ims.run_ims(module(self.BODY), machine)
        assert len(scheduled) == 1
        for other, kwargs in (
            (module(self.BODY, step=2), {}),
            (module(self.BODY, length=7), {}),
            (module(self.BODY[:2]), {}),
            (module(self.BODY), {"max_ii_factor": 5}),
        ):
            ims.run_ims(other, machine, **kwargs)
        ims.run_ims(module(self.BODY), replace(machine, num_registers=95))
        assert len(scheduled) == 6
        again = module(self.BODY)
        again.blocks["bb2"] = again.blocks.pop("bb1")
        again.order, again.loops[0].body_block = ["bb2"], "bb2"
        replayed = ims.run_ims(again, machine)
        assert len(scheduled) == 6
        assert replayed == [replace(reports[0], loop="bb2")]
        assert replayed[0] is not memo[next(iter(memo))]
        assert again.blocks["bb2"].ims_ii == reports[0].ii
