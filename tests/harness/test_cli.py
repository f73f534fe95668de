"""CLI smoke tests."""

import pytest

from repro.cli import main


@pytest.fixture()
def loop_file(tmp_path):
    path = tmp_path / "loop.c"
    path.write_text(
        """
        float A[64], B[64];
        float s = 0.0, t;
        for (i = 0; i < 64; i++) { A[i] = i; B[i] = 2.0; }
        for (i = 0; i < 64; i++) { t = A[i] * B[i]; s = s + t; }
        """
    )
    return str(path)


class TestTransform:
    def test_basic(self, loop_file, capsys):
        assert main(["transform", loop_file]) == 0
        out = capsys.readouterr().out
        assert "for (i = 0; i < 62; i += 2)" in out

    def test_paper_style(self, loop_file, capsys):
        main(["transform", loop_file, "--paper"])
        assert "||" in capsys.readouterr().out

    def test_report(self, loop_file, capsys):
        main(["transform", loop_file, "--report"])
        err = capsys.readouterr().err
        assert "applied II=1" in err

    def test_expansion_none(self, loop_file, capsys):
        main(["transform", loop_file, "--expansion", "none"])
        out = capsys.readouterr().out
        assert "i += 2" not in out  # no MVE unrolling

    def test_output_is_reparseable(self, loop_file, capsys):
        from repro.lang import parse_program

        main(["transform", loop_file])
        parse_program(capsys.readouterr().out)


class TestBench:
    def test_bench_daxpy(self, capsys):
        assert main(["bench", "daxpy", "--machine", "itanium2",
                     "--compiler", "gcc_O3"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "daxpy" in out

    def test_bench_arm(self, capsys):
        main(["bench", "dscal", "--machine", "arm7tdmi",
              "--compiler", "arm_gcc"])
        assert "nJ" in capsys.readouterr().out


class TestFigure:
    def test_quick_figure(self, capsys):
        assert main(["figure", "text_bundles", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "kernel8" in out


class TestSweep:
    def test_sweep_table_and_stats(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SLMS_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["sweep", "daxpy", "--pairs", "itanium2/gcc_O3",
                     "--workers", "1"]) == 0
        captured = capsys.readouterr()
        assert "daxpy" in captured.out
        assert "itanium2/gcc_O3" in captured.out
        assert "1 experiments" in captured.err

    def test_sweep_csv_export_and_warm_cache(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setenv("SLMS_CACHE_DIR", str(tmp_path / "cache"))
        csv_path = tmp_path / "matrix.csv"
        args = ["sweep", "daxpy", "--pairs", "itanium2/gcc_O3",
                "--workers", "1", "--csv", str(csv_path)]
        assert main(args) == 0
        first = csv_path.read_text()
        capsys.readouterr()
        assert main(args) == 0
        captured = capsys.readouterr()
        assert csv_path.read_text() == first  # warm run byte-identical
        assert "1 hit(s)" in captured.err

    def test_sweep_bench_json(self, tmp_path, monkeypatch, capsys):
        import json as json_mod

        monkeypatch.setenv("SLMS_CACHE_DIR", str(tmp_path / "cache"))
        bench = tmp_path / "BENCH_sweep.json"
        assert main(["sweep", "daxpy", "--pairs", "itanium2/gcc_O3",
                     "--workers", "1", "--profile",
                     "--bench-json", str(bench)]) == 0
        record = json_mod.loads(bench.read_text())
        assert record["experiments"] == 1
        assert "phase_totals_s" in record and "wall_s" in record
        assert "per-phase wall clock" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["0", "-1"])
    def test_non_positive_timeout_is_a_usage_error(self, timeout, tmp_path,
                                                   monkeypatch, capsys):
        import repro.harness.engine as engine

        args = ["sweep", "daxpy", "--pairs", "itanium2/gcc_O3",
                "--workers", "1"]
        assert main(args) == 0  # a warm cache must not hide the check

        def no_experiment(*args, **kwargs):
            raise AssertionError("an experiment ran")

        monkeypatch.setattr(engine, "run_experiment", no_experiment)
        capsys.readouterr()
        journal = tmp_path / "sweep.jsonl"
        assert main(args + ["--timeout", timeout,
                            "--journal", str(journal)]) == 2
        err = capsys.readouterr().err
        assert f"got {float(timeout)!r}" in err
        assert not journal.exists()

    def test_sweep_unknown_workload_errors(self, capsys):
        # Input errors exit 2 (usage/input), not 1 (failed work).
        assert main(["sweep", "not_a_workload"]) == 2
        err = capsys.readouterr().err
        assert "valid names" in err

    def test_sweep_bad_pair_errors(self, capsys):
        assert main(["sweep", "daxpy", "--pairs", "itanium2"]) == 2
        assert "MACHINE/COMPILER" in capsys.readouterr().err


class TestExitCodes:
    """The top-level exception boundary's unified exit-code contract."""

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def boom(args):
            raise KeyboardInterrupt()

        monkeypatch.setattr("repro.cli._cmd_cache", boom)
        assert main(["cache", "stats"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_internal_error_exits_1_without_traceback(self, monkeypatch,
                                                      capsys):
        def boom(args):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr("repro.cli._cmd_cache", boom)
        assert main(["cache", "stats"]) == 1
        err = capsys.readouterr().err
        assert "internal error: RuntimeError: wires crossed" in err
        assert "SLMS_DEBUG" in err
        assert "Traceback" not in err

    def test_slms_debug_reraises(self, monkeypatch):
        def boom(args):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr("repro.cli._cmd_cache", boom)
        monkeypatch.setenv("SLMS_DEBUG", "1")
        with pytest.raises(RuntimeError):
            main(["cache", "stats"])

    def test_frontend_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("for (i = 0; i < ; i++) { }")
        assert main(["transform", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


def _tier_entries(out: str) -> dict:
    """``slms cache stats`` rows as tier -> entry count, in print order."""
    rows = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) > 2 and parts[2] == "entr(ies)":
            rows[parts[0]] = int(parts[1])
    return rows


class TestCacheCommand:
    def _sweep(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SLMS_CACHE_DIR", str(tmp_path / "cache"))
        main(["sweep", "daxpy", "--pairs", "itanium2/gcc_O3",
              "--workers", "1"])
        capsys.readouterr()

    def _stats(self, capsys) -> dict:
        assert main(["cache", "stats"]) == 0
        return _tier_entries(capsys.readouterr().out)

    def test_stats_and_clear(self, tmp_path, monkeypatch, capsys):
        self._sweep(tmp_path, monkeypatch, capsys)
        before = self._stats(capsys)
        assert list(before) == [
            "full", "transform", "compile", "simulate", "verify",
        ]
        assert before["full"] == 1
        assert all(count > 0 for count in before.values())
        assert main(["cache", "clear"]) == 0
        assert f"removed {sum(before.values())} " in capsys.readouterr().out
        assert set(self._stats(capsys).values()) == {0}

    def test_clear_full_keeps_phase_tiers(self, tmp_path, monkeypatch,
                                          capsys):
        self._sweep(tmp_path, monkeypatch, capsys)
        before = self._stats(capsys)
        assert main(["cache", "clear", "--tiers", "full"]) == 0
        assert "removed 1 entr(ies) [full]" in capsys.readouterr().out
        after = self._stats(capsys)
        assert after == {**before, "full": 0}

    def test_unknown_tier_is_a_usage_error(self, tmp_path, monkeypatch,
                                           capsys):
        self._sweep(tmp_path, monkeypatch, capsys)
        before = self._stats(capsys)
        assert main(["cache", "clear", "--tiers", "full,bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "full, transform, compile, simulate, verify" in err
        assert self._stats(capsys) == before


class TestBenchProfile:
    def test_bench_profile_prints_phases(self, capsys):
        assert main(["bench", "daxpy", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "per-phase wall clock" in out
        assert "simulate" in out
