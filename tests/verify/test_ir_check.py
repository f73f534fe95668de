"""Cross-phase IR invariant checker (V21x): clean pipelines must come
back silent, and seeded corruptions of each phase's output must be
flagged with the right code — that is what makes the checker worth
running inside ``SLMSOptions(verify=True)``."""

import pytest

from repro.backend.compiler import CompilerConfig, FinalCompiler
from repro.core.names import NamePool, all_names
from repro.core.pipeline import _collect_types, slms
from repro.core.slms import SLMSOptions, slms_for_loop
from repro.lang.ast_nodes import Assign, For, ParGroup, Var
from repro.lang.parser import parse_program
from repro.machines.presets import itanium2
from repro.sim.executor import execute
from repro.verify.ir_check import (
    _introduced_scalars,
    check_module,
    check_result,
)
from repro.workloads import all_workloads

# Two multiply-defined scalars force renamed webs and MVE rotation
# names — the introduced-scalar machinery the V211 scan tracks.
SRC = """
float a[100]; float b[100]; float t;
for (i = 0; i < 90; i += 1) {
    t = a[i] * 2.0;
    t = t + 1.0;
    b[i] = t;
}
"""


def applied_result(src=SRC, **opt):
    prog = parse_program(src)
    loop = [s for s in prog.body if isinstance(s, For)][0]
    result = slms_for_loop(
        loop, NamePool(all_names(prog)), SLMSOptions(**opt),
        _collect_types(prog),
    )
    assert result.applied, result.reason
    return result, loop


def codes(diags):
    return sorted({d.code for d in diags})


# ---------------------------------------------------------------------------
# source-level checks: clean results are silent
# ---------------------------------------------------------------------------


class TestClean:
    def test_applied_result_is_silent(self):
        result, loop = applied_result()
        assert result.partition.renamed  # the web we rely on below
        assert check_result(result, loop) == []

    def test_declined_result_is_skipped(self):
        result, loop = applied_result()
        result.applied = False
        assert check_result(result, loop) == []

    def test_verify_true_stays_silent_across_corpus(self):
        """The pipeline's own verify hook never fires V21x on real
        workloads — the checker's false-positive budget is zero."""
        bad = []
        for workload in all_workloads():
            outcome = slms(
                workload.full_program(), SLMSOptions(verify=True)
            )
            for res in outcome.loops:
                v21x = [
                    d for d in res.diagnostics
                    if d.code.startswith("V21")
                ]
                if v21x:
                    bad.append((workload.name, codes(v21x)))
        assert bad == []


# ---------------------------------------------------------------------------
# seeded mutations: every corruption is caught with the right code
# ---------------------------------------------------------------------------


class TestPartitionMutations:
    def test_dropped_store_mi(self):
        result, loop = applied_result()
        result.partition.mis = [
            m for m in result.partition.mis
            if not (isinstance(m, Assign) and "b[" in str(m))
        ]
        diags = check_result(result, loop)
        assert codes(diags) == ["V210"]
        assert any("'b'" in d.message and "missing" in d.message
                   for d in diags)

    def test_ghost_renamed_web(self):
        result, loop = applied_result()
        result.partition.renamed["ghost"] = ["ghost_w1"]
        diags = check_result(result, loop)
        assert codes(diags) == ["V210"]
        assert any("ghost" in d.message for d in diags)

    def test_non_flat_mi(self):
        result, loop = applied_result()
        result.partition.mis[0] = loop  # a For is never a valid MI
        diags = check_result(result, loop)
        assert any(
            d.code == "V210" and "not a flat statement" in d.message
            for d in diags
        )

    def test_phantom_array_store(self):
        result, loop = applied_result()
        phantom = parse_program(
            "float zz[4]; zz[0] = 1.0;"
        ).body[1]
        result.partition.mis.append(phantom)
        diags = check_result(result, loop)
        assert any(
            d.code == "V210" and "'zz'" in d.message
            and "never stores" in d.message
            for d in diags
        )


class TestKernelMutations:
    def test_deleted_prologue_defs_caught(self):
        """Strip every definition of the introduced scalars: the first
        kernel read of any of them must be reported as V211."""
        result, loop = applied_result()
        tracked = _introduced_scalars(result)
        assert tracked

        def strip(stmts):
            out = []
            for s in stmts:
                if (isinstance(s, Assign)
                        and isinstance(s.target, Var)
                        and s.target.name in tracked):
                    continue
                if isinstance(s, ParGroup):
                    s.stmts = strip(s.stmts)
                if isinstance(s, For):
                    s.body = strip(s.body)
                out.append(s)
            return out

        result.stmts = strip(result.stmts)
        for decl in result.new_decls:
            decl.init = None
        diags = check_result(result, loop)
        assert "V211" in codes(diags)
        assert any("read before any definition" in d.message
                   for d in diags)

    def test_lane_split_results_are_skipped(self):
        result, loop = applied_result()
        result.lanes = 2
        result.stmts = []  # would be a V211 storm if scanned
        partition_only = check_result(result, loop)
        assert "V211" not in codes(partition_only)


# ---------------------------------------------------------------------------
# LIR checks (V212 - V217)
# ---------------------------------------------------------------------------


def compiled_module(regalloc=True):
    machine = itanium2()
    config = CompilerConfig(name="t", regalloc=regalloc)
    compiled = FinalCompiler(machine, config).compile(parse_program(SRC))
    return compiled.module, machine


def first_instr(module, pred):
    for name in module.order:
        for instr in module.blocks[name].instrs:
            if pred(instr):
                return instr
    raise AssertionError("no matching instruction")


class TestModule:
    def test_clean_module_silent(self):
        module, machine = compiled_module()
        assert check_module(module, machine) == []

    def test_clean_virtual_module_silent(self):
        module, _ = compiled_module(regalloc=False)
        assert check_module(module) == []

    def test_unknown_opcode(self):
        module, machine = compiled_module()
        first_instr(module, lambda i: i.op == "fmul").op = "frobnicate"
        diags = check_module(module, machine)
        assert codes(diags) == ["V212"]
        assert "frobnicate" in diags[0].message

    def test_branch_to_unknown_block(self):
        module, machine = compiled_module()
        first_instr(module, lambda i: i.op in ("br", "brf", "brt")
                    ).label = "nowhere"
        diags = check_module(module, machine)
        assert any(d.code == "V212" and "nowhere" in d.message
                   for d in diags)

    def test_virtual_register_out_of_range(self):
        module, _ = compiled_module(regalloc=False)
        first_instr(module, lambda i: i.dst is not None
                    ).dst = f"v{module.n_vregs + 50}"
        diags = check_module(module)
        assert any(d.code == "V213" for d in diags)

    def test_physical_register_out_of_range(self):
        module, machine = compiled_module()
        first_instr(module, lambda i: i.dst is not None).dst = "r999"
        diags = check_module(module, machine)
        assert any(d.code == "V213" and "r999" in d.message
                   for d in diags)

    def test_undeclared_array(self):
        module, machine = compiled_module()
        first_instr(module, lambda i: i.op == "ld").array = "ghost"
        diags = check_module(module, machine)
        assert any(d.code == "V214" and "'ghost'" in d.message
                   for d in diags)

    def test_operand_shape_violation(self):
        module, machine = compiled_module()
        first_instr(module, lambda i: i.op == "fmul").srcs = ("s0",)
        diags = check_module(module, machine)
        assert any(d.code == "V215" and "source" in d.message
                   for d in diags)

    def test_movi_without_immediate(self):
        module, machine = compiled_module()
        first_instr(module, lambda i: i.op == "movi").imm = None
        diags = check_module(module, machine)
        assert any(d.code == "V215" and "immediate" in d.message
                   for d in diags)

    def test_constant_address_out_of_extent(self):
        module, machine = compiled_module()
        ld = first_instr(module, lambda i: i.op == "ld"
                         and i.array not in (None, "__spill"))
        ld.srcs = ()  # now a constant address ...
        ld.disp = 10_000  # ... far outside the extent
        diags = check_module(module, machine)
        assert any(d.code == "V216" and "outside extent" in d.message
                   for d in diags)

    def test_midblock_conditional_branch(self):
        """Moving a block-final ``brf`` up one slot makes the block's
        executed mix path-dependent: V217 flags it, and the simulator
        refuses the module instead of mis-charging it."""
        module, machine = compiled_module()
        name = next(
            n for n in module.order
            if len(module.blocks[n].instrs) >= 2
            and module.blocks[n].instrs[-1].op == "brf"
        )
        instrs = module.blocks[name].instrs
        instrs[-2], instrs[-1] = instrs[-1], instrs[-2]
        diags = check_module(module, machine)
        assert codes(diags) == ["V217"]
        assert diags[0].message.startswith(f"{name}[{len(instrs) - 2}]")
        with pytest.raises(ValueError, match="V217"):
            execute(module, machine)

    def test_missing_entry_block(self):
        module, machine = compiled_module()
        module.entry = "does_not_exist"
        diags = check_module(module, machine)
        assert any(d.code == "V212" and "entry" in d.message
                   for d in diags)
