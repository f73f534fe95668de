"""serve-bench load harness: record shape and phase guarantees."""

import pytest

from repro.cli import main
from repro.obs import RunLedger
from repro.serve import loadgen
from repro.serve.loadgen import BENCH_SCHEMA, run_serve_bench


class TestServeBench:
    def test_small_run_record(self, tmp_path, cache_dir):
        out = tmp_path / "BENCH_serve.json"
        record = run_serve_bench(
            out_path=str(out),
            clients=3,
            per_client=1,
            chaos=True,
            cache_dir=cache_dir,
            quiet=True,
        )
        assert record["schema"] == BENCH_SCHEMA
        assert out.exists()

        latency = record["latency_phase"]
        assert latency["requests"] == 3
        assert latency["latency"]["n"] == 3
        assert latency["throughput_rps"] > 0
        assert set(record["latency"]) >= {"p50", "p99", "mean"}

        coalesce = record["coalesce_phase"]
        assert coalesce["ok"] == 3
        # Barrier-released identical requests: at least some must ride
        # the leader (exact counts are timing-dependent on 1 CPU).
        assert coalesce["executions"] + coalesce["coalesced"] == 3
        assert coalesce["executions"] < 3

        shed = record["shed_phase"]
        assert shed["ok"] + shed["shed"] == shed["burst"]
        assert shed["shed"] >= shed["burst"] - shed["queue_limit"] - 1
        assert record["shed_count"] == shed["shed"]

        chaos = record["chaos_phase"]
        assert chaos["ok"] + chaos["failed"] == chaos["burst"]
        assert chaos["failed"] == 2
        assert chaos["failed_kinds"] == ["crash", "timeout"]

    def test_no_chaos_skips_phase(self, tmp_path, cache_dir):
        record = run_serve_bench(
            out_path=None,
            clients=2,
            per_client=1,
            chaos=False,
            cache_dir=cache_dir,
            quiet=True,
        )
        assert "chaos_phase" not in record
        assert not (tmp_path / "BENCH_serve.json").exists()


class TestCountChecks:
    """Counts below 1 are usage errors, refused before any server."""

    @pytest.fixture()
    def servers(self, monkeypatch):
        """Servers the harness tried to start (none may start)."""
        started = []

        def refuse(config):
            started.append(config)
            raise RuntimeError("a server started")

        monkeypatch.setattr(loadgen, "SlmsServer", refuse)
        return started

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--requests", "0"], "--requests"),
            (["--clients", "0"], "--clients"),
            (["--clients", "-2"], "--clients"),
            (["--full", "--sweep-workers", "0"], "--sweep-workers"),
            (["--full", "--sweep-workers", "-1"], "--sweep-workers"),
        ],
        ids=["requests=0", "clients=0", "clients=-2", "sweep-workers=0",
             "sweep-workers=-1"],
    )
    def test_cli_refuses_before_any_server(
        self, flags, named, servers, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_serve.json"
        assert main(
            ["serve-bench", "--no-chaos", "--out", str(out), *flags]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} must be >= 1, got ")
        assert servers == []
        assert not out.exists()
        assert RunLedger().entries() == []

    @pytest.mark.parametrize(
        "counts, named",
        [({"clients": 0}, "--clients"), ({"per_client": 0}, "--requests"),
         ({"sweep_workers": 0}, "--sweep-workers")],
        ids=["clients", "per_client", "sweep_workers"],
    )
    def test_library_raises_value_error(self, counts, named, servers):
        with pytest.raises(ValueError, match=f"^{named} must be >= 1, got 0"):
            run_serve_bench(out_path=None, quiet=True, **counts)
        assert servers == []
