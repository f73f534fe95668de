"""Harness tests: experiment methodology and figure plumbing."""

import pytest

from repro.backend.compiler import FinalCompiler, compile_and_run
from repro.core.slms import SLMSOptions
from repro.harness import experiment
from repro.harness.expcache import PhaseCache
from repro.harness.experiment import run_experiment, transform_kernel
from repro.harness.faults import TaskFailedError
from repro.harness.figures import FIGURES, run_figure
from repro.harness.report import render_figure
from repro.machines import itanium2, pentium
from repro.sim.executor import execute
from repro.sim.interp import run_program, state_equal
from repro.workloads import get_workload
from repro.workloads.base import Workload

FAST = Workload(
    name="fast",
    suite="test",
    setup=(
        "float A[64], B[64];\n"
        "for (i = 0; i < 64; i++) { A[i] = i * 0.5; B[i] = 1.0; }\n"
    ),
    kernel=(
        "for (i = 0; i < 48; i++) { B[i] = A[i] * 2.0 + B[i]; "
        "A[i] = B[i] * 0.5; }\n"
    ),
)


class TestTransformKernel:
    def test_setup_untouched(self):
        program, reports = transform_kernel(get_workload("daxpy"))
        # The setup's init loop must appear verbatim (no SLMS there).
        from repro.lang import to_source

        text = to_source(program)
        assert "dx[i] = 0.01 * i + 0.3;" in text

    def test_kernel_transformed(self):
        _, reports = transform_kernel(get_workload("daxpy"))
        assert any(r.applied for r in reports)

    def test_semantics_preserved(self):
        wl = get_workload("kernel7")
        program, reports = transform_kernel(wl)
        base = run_program(wl.full_program())
        out = run_program(program)
        ignore = {n for r in reports for n in r.new_scalars}
        assert state_equal(base, out, ignore=ignore)

    def test_temp_types_follow_arrays(self):
        # Decomposition temp for an int array must be int-typed.
        wl = Workload(
            name="inty",
            suite="test",
            setup=(
                "int IA[32]; int acc = 0;\n"
                "for (i = 0; i < 32; i++) IA[i] = 3 * i + 1;\n"
            ),
            kernel="for (i = 0; i < 30; i++) { acc = acc + IA[i] / 2; }\n",
        )
        program, reports = transform_kernel(
            wl, SLMSOptions(enable_filter=False)
        )
        base = run_program(wl.full_program())
        out = run_program(program)
        ignore = {n for r in reports for n in r.new_scalars}
        assert state_equal(base, out, ignore=ignore)


class TestRunExperiment:
    def test_result_fields(self):
        res = run_experiment(FAST, itanium2(), "gcc_O3")
        assert res.base_cycles > 0
        assert res.slms_cycles > 0
        assert res.speedup == res.base_cycles / res.slms_cycles
        assert res.machine == "itanium2"
        assert res.compiler == "gcc_O3"

    def test_verification_enabled_by_default(self):
        # Must not raise — the verification path runs.
        run_experiment(FAST, pentium(), "gcc_O0")

    def test_string_machine_and_compiler(self):
        res = run_experiment(FAST, "itanium2", "gcc_O3")
        assert res.machine == "itanium2"

    def test_decline_reported(self):
        copies = Workload(
            name="copies",
            suite="test",
            setup="float A[64], B[64];\n",
            kernel="for (i = 0; i < 48; i++) { A[i] = B[i]; }\n",
        )
        res = run_experiment(copies, itanium2(), "gcc_O3")
        assert not res.slms_applied
        assert "memory-ref" in res.slms_reason
        # Declined means identical code: speedup exactly 1.
        assert res.base_cycles == res.slms_cycles

    def test_energy_reported(self):
        res = run_experiment(FAST, "arm7tdmi", "arm_gcc")
        assert res.base_energy > 0 and res.slms_energy > 0


class TestFigures:
    def test_registry_complete(self):
        assert set(FIGURES) == {
            "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
            "fig20", "fig21", "fig22", "text_bundles",
        }

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            run_figure("fig99")

    def test_quick_fig14_shape(self):
        result = run_figure("fig14", quick=True)
        assert "slms_speedup" in result.series
        assert len(result.series["slms_speedup"]) == 6  # 3 + 3 quick

    def test_quick_fig16_series(self):
        result = run_figure("fig16", quick=True)
        assert set(result.series) == {
            "slms_at_O0_speedup", "O3_speedup", "gap_closed_fraction",
        }

    def test_quick_fig21_percentages(self):
        result = run_figure("fig21", quick=True)
        for value in result.series["power_improvement_pct"].values():
            assert -100.0 < value < 100.0

    def test_text_bundles(self):
        result = run_figure("text_bundles")
        before = result.series["bundles_before"]
        after = result.series["bundles_after"]
        assert set(before) == {"kernel8", "fma_loop"}
        # The §9.2 claim: SLMS reduces bundles per iteration.
        assert after["kernel8"] <= before["kernel8"]

    def test_text_bundles_obeys_the_engine_settings(self, tmp_path,
                                                    monkeypatch):
        cache_dir = tmp_path / "figure-cache"
        monkeypatch.setenv("SLMS_CACHE_DIR", str(cache_dir))
        run_figure("text_bundles", use_cache=False)
        assert not cache_dir.exists()

        cold = run_figure("text_bundles", workers=1)
        warm = run_figure("text_bundles", workers=1)
        assert warm.series == cold.series
        full = PhaseCache(cache_dir).stats()["tiers"]["full"]
        assert full["entries"] == 2
        assert full["lifetime"]["misses"] == 2
        assert full["lifetime"]["hits"] == 2

    def test_failed_cell_raises(self, monkeypatch):
        monkeypatch.setenv("SLMS_FAULTS", "fail:1")
        with pytest.raises(TaskFailedError) as raised:
            run_figure("fig14", quick=True, workers=1, use_cache=False)
        assert [f.task for f in raised.value.failures] == [
            "kernel2@itanium2/gcc_O3"
        ]

    def test_render_figure(self):
        result = run_figure("fig14", quick=True)
        text = render_figure(result)
        assert "fig14" in text
        assert "geomean" in text


class TestOneSetupRun:
    """§9: one compile and one simulation of the setup program price
    both variants' kernels."""

    def test_uncached_experiment_compiles_and_runs_three_programs(
        self, monkeypatch
    ):
        compiled, executed = [], []
        compile_program = FinalCompiler.compile

        def counting_compile(self, program):
            compiled.append(program)
            return compile_program(self, program)

        def counting_execute(module, machine, **kwargs):
            executed.append(module)
            return execute(module, machine, **kwargs)

        monkeypatch.setattr(FinalCompiler, "compile", counting_compile)
        monkeypatch.setattr(experiment, "execute", counting_execute)
        run_experiment(FAST, itanium2(), "icc_O3")
        assert (len(compiled), len(executed)) == (3, 3)

    def test_cold_cached_experiment_looks_up_each_program_once(
        self, tmp_path
    ):
        result = run_experiment(
            FAST, itanium2(), "icc_O3", phase_cache=PhaseCache(tmp_path)
        )
        assert result.cache_tiers["compile"] == {"hits": 0, "misses": 3}
        assert result.cache_tiers["simulate"] == {"hits": 0, "misses": 3}

    def test_kernel_cost_is_full_minus_setup(self):
        machine = itanium2()
        result = run_experiment(FAST, machine, "icc_O3")
        _, setup = compile_and_run(FAST.setup_program(), machine, "icc_O3")
        _, full = compile_and_run(FAST.full_program(), machine, "icc_O3")
        assert result.base_cycles == full.metrics.cycles - setup.metrics.cycles
        assert result.base_energy == (
            full.metrics.energy_pj - setup.metrics.energy_pj
        )
