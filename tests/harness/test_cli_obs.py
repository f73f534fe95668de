"""CLI tests for the observability stack: ledger recording on engine
runs, ``slms report``, ``slms obs ledger|diff|bench-export``."""

import json

import pytest

from repro.cli import main
from repro.obs import RunLedger, make_entry


@pytest.fixture()
def isolated(tmp_path, monkeypatch):
    """Fresh cache + ledger for every test (SLMS_LEDGER_DIR is already
    tmp-scoped suite-wide; pin the cache beside it)."""
    monkeypatch.setenv("SLMS_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def _sweep(*extra):
    return main(["sweep", "daxpy", "dscal", "--pairs", "itanium2/gcc_O3",
                 *extra])


class TestLedgerRecording:
    def test_sweep_appends_entry(self, isolated):
        assert _sweep() == 0
        entries = RunLedger().entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["kind"] == "sweep"
        assert entry["experiments"] == 2
        assert len(entry["result_digest"]) == 64
        assert entry["phase_times"]
        assert entry["env"]["engine_version"]

    def test_identical_sweeps_share_digests(self, isolated):
        _sweep()
        _sweep()
        first, second = RunLedger().entries()
        assert first["config_digest"] == second["config_digest"]
        assert first["result_digest"] == second["result_digest"]
        assert first["id"] != second["id"]  # ts differs

    def test_disabled_by_env(self, isolated, monkeypatch):
        monkeypatch.setenv("SLMS_LEDGER", "0")
        _sweep()
        assert RunLedger().entries() == []

    def test_bench_and_trace_share_result_digest(self, isolated, capsys):
        assert main(["bench", "daxpy"]) == 0
        assert main(["trace", "daxpy"]) == 0
        capsys.readouterr()
        bench = RunLedger().latest(kind="bench")
        trace = RunLedger().latest(kind="trace")
        assert bench["result_digest"] == trace["result_digest"]

    def test_fuzz_entry(self, isolated, capsys):
        assert main(["fuzz", "--iterations", "2", "--no-backend"]) == 0
        capsys.readouterr()
        entry = RunLedger().latest(kind="fuzz")
        assert entry["experiments"] == 2
        assert entry["config"]["master_seed"] == 0

    def test_unwritable_ledger_never_breaks_a_run(
        self, isolated, monkeypatch
    ):
        monkeypatch.setenv("SLMS_LEDGER_DIR", "/proc/nonexistent/ledger")
        assert _sweep() == 0

    def test_frozen_digest_unchanged_with_ledger_enabled(self, isolated):
        """The ledger is pure observability: recording must not perturb
        results (same digest with and without it)."""
        _sweep()
        with_ledger = RunLedger().latest()["result_digest"]
        import os

        os.environ["SLMS_LEDGER"] = "0"
        try:
            _sweep()
        finally:
            os.environ.pop("SLMS_LEDGER")
        assert RunLedger().entries()[-1]["result_digest"] == with_ledger
        assert len(RunLedger().entries()) == 1  # second run unrecorded


class TestProfileOutput:
    def test_sweep_profile_shows_utilization(self, isolated, capsys):
        assert _sweep("--profile", "--workers", "1") == 0
        err = capsys.readouterr().err
        assert "worker utilization:" in err
        assert "per-phase wall clock:" in err


class TestObsLedgerCommand:
    def test_listing_and_verify(self, isolated, capsys):
        _sweep()
        capsys.readouterr()
        assert main(["obs", "ledger", "--verify"]) == 0
        captured = capsys.readouterr()
        assert "all content addresses ok" in captured.err
        assert "sweep:daxpy,dscal" in captured.out

    def test_empty_ledger(self, isolated, capsys):
        assert main(["obs", "ledger"]) == 0
        assert "# no matching entries in the ledger at" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flags,listed",
        [(["--limit", "1"], ["run2"]), (["--kind", "fuzz"], ["f"])],
        ids=["limit", "kind"],
    )
    def test_verify_counts_the_whole_ledger(self, isolated, capsys, flags,
                                            listed):
        ledger = RunLedger()
        ledger.append(make_entry("fuzz", "f"))
        for i in range(3):
            ledger.append(make_entry("sweep", f"run{i}"))
        assert main(["obs", "ledger", "--verify", *flags]) == 0
        captured = capsys.readouterr()
        assert "# 4 entr(ies) in the ledger, all content addresses ok" in (
            captured.err
        )
        labels = [line.split()[-1] for line in captured.out.splitlines()]
        assert labels == listed


class TestObsDiffCommand:
    def test_identical_runs_pass(self, isolated, capsys):
        _sweep()
        _sweep()
        capsys.readouterr()
        assert main(["obs", "diff"]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "result digest unchanged" in out

    def test_injected_wall_regression_fails(self, isolated, capsys):
        _sweep()
        _sweep()
        ledger = RunLedger()
        head = ledger.resolve("HEAD")
        slow = {k: v for k, v in head.items() if k != "id"}
        slow["wall_s"] = max(head["wall_s"], 0.001) * 3
        ledger.append(slow)
        capsys.readouterr()
        assert main(["obs", "diff", "HEAD~1", "HEAD"]) == 1
        assert "verdict: REGRESSION" in capsys.readouterr().out

    def test_digest_change_fails(self, isolated, capsys):
        _sweep()
        ledger = RunLedger()
        head = ledger.resolve("HEAD")
        tampered = {k: v for k, v in head.items() if k != "id"}
        tampered["result_digest"] = "0" * 64
        ledger.append(tampered)
        capsys.readouterr()
        assert main(["obs", "diff"]) == 1
        assert "hard fail" in capsys.readouterr().out

    def test_json_payload(self, isolated, capsys):
        _sweep()
        _sweep()
        capsys.readouterr()
        assert main(["obs", "diff", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "slms-diff/1"
        assert payload["regression"] is False

    def test_bad_ref_is_usage_error(self, isolated, capsys):
        _sweep()
        capsys.readouterr()
        assert main(["obs", "diff", "HEAD~9", "HEAD"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_comparison_smoke_entry_passes(
        self, isolated, tmp_path, capsys
    ):
        """A 2-experiment sweep has no comparable BENCH history entry;
        the sentinel reports that and passes."""
        _sweep()
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({
            "result_digest_sha256": "f" * 64,
            "history": [{"pr": 7, "experiments": 235, "wall_s": 8.0,
                         "phase_totals_s": {}}],
        }))
        capsys.readouterr()
        assert main(["obs", "diff", "--bench", str(bench)]) == 0
        assert "not compared" in capsys.readouterr().out


class TestObsBenchExport:
    def test_emits_bench_schema(self, isolated, capsys):
        _sweep()
        capsys.readouterr()
        assert main(["obs", "bench-export", "--pr", "8"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["pr"] == 8
        assert record["experiments"] == 2
        assert set(record) == {
            "pr", "label", "engine_version", "experiments", "cache_hits",
            "cache_misses", "cache_hit_rate", "workers", "wall_s",
            "phase_totals_s", "phase_cache_hit_rates",
        }

    def test_out_file(self, isolated, tmp_path, capsys):
        _sweep()
        out = tmp_path / "entry.json"
        assert main(["obs", "bench-export", "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["experiments"] == 2


class TestReportCommand:
    def test_terminal_report(self, isolated, capsys):
        _sweep()
        capsys.readouterr()
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "slms report — 1 run(s)" in out
        assert "sweep:daxpy,dscal" in out

    def test_html_report_self_contained(self, isolated, tmp_path, capsys):
        _sweep()
        out = tmp_path / "report.html"
        assert main(["report", "--html", str(out)]) == 0
        capsys.readouterr()
        html_text = out.read_text()
        assert html_text.startswith("<!DOCTYPE html>")
        assert "Run trajectory" in html_text
        for forbidden in ("http://", "https://", "<script", "src=",
                          "href="):
            assert forbidden not in html_text

    def test_trace_in_and_journal(self, isolated, tmp_path, capsys):
        assert main(["trace", "daxpy",
                     "--trace-out", str(tmp_path / "t.json")]) == 0
        journal = tmp_path / "j.jsonl"
        journal.write_text(
            '{"schema": "slms-journal/1", "key": "k", "status": "ok"}\n'
        )
        capsys.readouterr()
        assert main(["report", "--trace-in", str(tmp_path / "t.json"),
                     "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "profiler (top spans by total time):" in out
        assert "1 record(s), 1 ok" in out

    def test_json_out(self, isolated, tmp_path, capsys):
        _sweep()
        out = tmp_path / "report.json"
        assert main(["report", "--json-out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["schema"] == "slms-report/1"
        assert payload["runs"] == 1


class TestTraceJsonShape:
    def test_both_timing_keys_present(self, isolated, capsys):
        assert main(["trace", "daxpy", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "phase_times" in payload
        assert "cached_phase_times" in payload
        assert payload["cached_phase_times"] == {}  # trace bypasses cache
        assert payload["phase_times"]["total"] > 0
