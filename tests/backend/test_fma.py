"""FMA fusion tests (Itanium/POWER4 fused multiply-add pipes)."""


from repro.backend.codegen import compile_to_lir
from repro.backend.compiler import COMPILER_PRESETS, FinalCompiler
from repro.lang import parse_program
from repro.machines import itanium2
from repro.sim.interp import run_program, state_equal
from repro.sim.lir_interp import run_module

SRC = """
float A[32], B[32], C[32];
for (i = 0; i < 32; i++) { A[i] = 0.3 * i; B[i] = 2.0 - 0.05 * i; }
for (i = 0; i < 32; i++) C[i] = A[i] * B[i] + 1.5;
s = 0.0;
for (i = 0; i < 32; i++) s = s + A[i] * B[i];
"""


class TestFusion:
    def test_fma_ops_emitted(self):
        module = compile_to_lir(parse_program(SRC), use_fma=True)
        assert any(i.op == "fma" for i in module.all_instrs())

    def test_no_fma_without_flag(self):
        module = compile_to_lir(parse_program(SRC), use_fma=False)
        assert not any(i.op == "fma" for i in module.all_instrs())

    def test_both_orientations_fuse(self):
        # z + x*y and x*y + z.
        src = "a = 1.5; b = 2.5; c = 3.5; x = a * b + c; y = c + a * b;"
        module = compile_to_lir(parse_program(src), use_fma=True)
        fmas = [i for i in module.all_instrs() if i.op == "fma"]
        assert len(fmas) == 2

    def test_integer_add_not_fused(self):
        src = "int a = 2; int b = 3; int c = 4; int x; x = a * b + c;"
        module = compile_to_lir(parse_program(src), use_fma=True)
        assert not any(i.op == "fma" for i in module.all_instrs())

    def test_bit_exact_vs_unfused(self):
        prog = parse_program(SRC)
        expected = run_program(prog)
        fused = run_module(compile_to_lir(prog, use_fma=True))
        assert state_equal(expected, fused)

    def test_fma_reduces_op_count(self):
        prog = parse_program(SRC)
        plain = compile_to_lir(prog, use_fma=False)
        fused = compile_to_lir(prog, use_fma=True)
        assert len(fused.all_instrs()) < len(plain.all_instrs())

    def test_presets(self):
        assert COMPILER_PRESETS["icc_O3"].fma
        assert COMPILER_PRESETS["xlc_O3"].fma
        assert not COMPILER_PRESETS["gcc_O3"].fma

    def test_fma_speeds_up_fp_loops(self):
        from repro.backend.compiler import CompilerConfig
        from repro.sim.executor import execute

        machine = itanium2()
        with_fma = CompilerConfig(name="f", list_schedule=True, fma=True)
        without = CompilerConfig(name="n", list_schedule=True, fma=False)
        prog = parse_program(SRC)
        cy = {}
        for tag, config in (("fma", with_fma), ("plain", without)):
            compiled = FinalCompiler(machine, config).compile(prog)
            cy[tag] = execute(compiled.module, machine).metrics.cycles
        assert cy["fma"] <= cy["plain"]

    def test_paper_92_kernel8_bundles(self):
        """The §9.2 claim lands on the paper's numbers with FMA: 23→16."""
        from repro.harness.figures import run_figure

        result = run_figure("text_bundles")
        before = result.series["bundles_before"]["kernel8"]
        after = result.series["bundles_after"]["kernel8"]
        assert 21 <= before <= 25   # paper: 23
        assert 14 <= after <= 18    # paper: 16
