"""Server behaviors: protocol, coalescing, admission, fault handling,
warm workers.

Each test spins a real in-process server on an ephemeral port and
drives it over HTTP — the same path production clients use.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.cli import main
from repro.harness.faults import FaultPlan
from repro.serve import server as server_module
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ServeConfig
from tests.serve.conftest import SOURCE


_SERVE_WORKER = server_module._serve_worker


def _serve_worker_pid(item):
    """The request executor, with its worker's pid in the result."""
    out = _SERVE_WORKER(item)
    if out.get("ok"):
        out["result"]["pid"] = os.getpid()
    return out


def _live_children():
    return {p.pid for p in multiprocessing.active_children()}


def _wait_for_inflight(server, n, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if len(server._flights) >= n:
            return
        time.sleep(0.01)
    raise AssertionError(f"never reached {n} in-flight request(s)")


class TestProtocol:
    def test_healthz_statsz(self, running_server):
        with running_server() as server:
            client = ServeClient(server.url)
            health = client.healthz()
            assert health["ok"] is True and health["draining"] is False
            stats = client.statsz()
            assert stats["schema"] == "slms-serve-stats/2"
            assert stats["requests"]["workers_started"] == 0
            assert stats["queue"]["limit"] == server.config.queue_limit
            assert list(stats["cache"]["tiers"]) == [
                "full", "transform", "compile", "simulate", "verify",
            ]

    def test_compile_roundtrip(self, running_server):
        with running_server() as server:
            client = ServeClient(server.url)
            status, envelope = client.post("compile", {"source": SOURCE})
            assert status == 200
            assert envelope["schema"] == "slms-serve/1"
            assert envelope["ok"] is True
            assert envelope["coalesced"] is False
            assert envelope["attempts"] == 1
            assert envelope["result"]["applied"] == 1

    @pytest.mark.parametrize(
        "op,params",
        [
            pytest.param("compile", {"nope": 1}, id="unknown-param"),
            pytest.param("compile", {"source": SOURCE, "report": True},
                         id="compile-report"),
            pytest.param("compile", {"source": SOURCE, "force": "false"},
                         id="force-str"),
            pytest.param("compile", {"source": SOURCE, "reduction_lanes": "x"},
                         id="lanes-str"),
            pytest.param("compile", {"source": SOURCE, "sched_budget": "10"},
                         id="budget-str"),
            pytest.param("compile", {"source": SOURCE, "machine": ["x"]},
                         id="compile-machine-list"),
            pytest.param("compile", {"source": SOURCE, "style": "fortran"},
                         id="unknown-style"),
            pytest.param("bench", {"workload": "daxpy", "machine": ["x"]},
                         id="bench-machine-list"),
            pytest.param("bench", {"workload": "nope"},
                         id="unknown-workload"),
            pytest.param("trace", {"workload": "daxpy", "verify": "no"},
                         id="verify-str"),
            pytest.param("sweep", {"pairs": [[["x"], "gcc_O3"]]},
                         id="pair-machine-list"),
            pytest.param("sweep", {"workloads": "daxpy"},
                         id="workloads-str"),
            pytest.param("sweep", {"suites": ["specfp"]},
                         id="unknown-suite"),
            pytest.param("sweep", {"workloads": ["daxpy"], "workers": 0},
                         id="zero-workers"),
            pytest.param("sleep", {"seconds": 1e308}, id="seconds-1e308"),
            pytest.param("sleep", {"seconds": float("inf")},
                         id="seconds-infinity"),
        ],
    )
    def test_bad_params_is_400_without_execution(self, running_server, op,
                                                 params):
        with running_server() as server:
            client = ServeClient(server.url)
            status, envelope = client.post(op, params)
            assert status == 400, envelope
            assert envelope["error"]["kind"] == "bad-request"
            assert server.counters["executions"] == 0

    def test_admission_fault_is_a_counted_500(self, running_server,
                                              monkeypatch):
        def broken(self, op, params):
            raise TypeError("unhashable type: 'list'")

        monkeypatch.setattr(server_module.Session, "validate", broken)
        with running_server() as server:
            client = ServeClient(server.url)
            status, envelope = client.post("sleep", {"seconds": 0})
            assert status == 500
            assert envelope["error"]["kind"] == "internal"
            assert "TypeError" in envelope["error"]["message"]
            requests = client.statsz()["requests"]
            assert requests["requests"] == requests["failed"] == 1
            assert requests["executions"] == 0
            assert server.failed_kinds == {"internal": 1}

    @pytest.mark.parametrize("trace_out", [None, "trace.json"])
    def test_spans_are_kept_only_for_trace_out(self, running_server,
                                               tmp_path, trace_out):
        path = str(tmp_path / trace_out) if trace_out else None
        with running_server(trace_out=path) as server:
            client = ServeClient(server.url)
            for _ in range(3):
                assert client.post("sleep", {"seconds": 0})[0] == 200
            assert len(server.tracer.spans) == (3 if trace_out else 0)

    def test_frontend_error_is_400(self, running_server):
        with running_server() as server:
            client = ServeClient(server.url)
            status, envelope = client.post("compile", {"source": "for ("})
            assert status == 400
            assert envelope["error"]["kind"] == "bad-request"
            assert "error" in envelope["error"]["message"]

    def test_unknown_path_404(self, running_server):
        with running_server() as server:
            status, _ = ServeClient(server.url).get("/v2/compile")
            assert status == 404

    def test_sleep_gated(self, running_server):
        with running_server(enable_sleep=False) as server:
            status, envelope = ServeClient(server.url).post(
                "sleep", {"seconds": 0}
            )
            assert status == 400
            assert "enable-sleep" in envelope["error"]["message"]

    def test_call_raises_serve_error(self, running_server):
        with running_server() as server:
            with pytest.raises(ServeError) as info:
                ServeClient(server.url).call("compile", {})
            assert info.value.status == 400
            assert info.value.kind == "bad-request"


class TestCoalescing:
    def test_identical_requests_execute_once(self, running_server):
        """N identical in-flight requests pin exactly one execution."""
        with running_server() as server:
            client = ServeClient(server.url)
            leader_out = {}

            def leader():
                leader_out["response"] = client.post(
                    "sleep", {"seconds": 1.5}
                )

            thread = threading.Thread(target=leader)
            thread.start()
            _wait_for_inflight(server, 1)

            followers = []
            follower_threads = [
                threading.Thread(
                    target=lambda: followers.append(
                        client.post("sleep", {"seconds": 1.5})
                    )
                )
                for _ in range(4)
            ]
            for t in follower_threads:
                t.start()
            for t in follower_threads:
                t.join()
            thread.join()

            assert leader_out["response"][0] == 200
            assert leader_out["response"][1]["coalesced"] is False
            assert all(status == 200 for status, _ in followers)
            assert all(env["coalesced"] for _, env in followers)
            assert server.counters["executions"] == 1
            assert server.counters["coalesced"] == 4

    def test_distinct_requests_all_execute(self, running_server):
        with running_server() as server:
            client = ServeClient(server.url)
            for seconds in (0.01, 0.02):
                status, env = client.post("sleep", {"seconds": seconds})
                assert status == 200 and not env["coalesced"]
            assert server.counters["executions"] == 2


class TestAdmission:
    def test_queue_full_sheds_429(self, running_server):
        with running_server(queue_limit=1) as server:
            client = ServeClient(server.url)
            background = threading.Thread(
                target=client.post, args=("sleep", {"seconds": 1.5})
            )
            background.start()
            _wait_for_inflight(server, 1)
            status, envelope = client.post("sleep", {"seconds": 9.9})
            background.join()
            assert status == 429
            assert envelope["error"]["kind"] == "shed"
            assert server.counters["shed"] == 1

    def test_injected_reject(self, running_server):
        """The reject fault op sheds a specific admission seq."""
        with running_server(
            fault_plan=FaultPlan.parse("reject:1")
        ) as server:
            client = ServeClient(server.url)
            status, _ = client.post("sleep", {"seconds": 0})
            assert status == 200
            status, envelope = client.post("sleep", {"seconds": 0.001})
            assert status == 429
            assert envelope.get("injected") is True
            assert server.counters["shed_injected"] == 1


class TestFaults:
    def test_transient_retries_to_success(self, running_server):
        with running_server(
            fault_plan=FaultPlan.parse("transient:0")
        ) as server:
            status, envelope = ServeClient(server.url).post(
                "sleep", {"seconds": 0}
            )
            assert status == 200
            assert envelope["attempts"] == 2
            assert server.counters["retries"] == 1

    def test_crash_fails_then_quarantines(self, running_server):
        with running_server(
            fault_plan=FaultPlan.parse("crash:0"), crash_strikes=2
        ) as server:
            client = ServeClient(server.url)
            status, envelope = client.post("sleep", {"seconds": 0})
            assert status == 500
            assert envelope["error"]["kind"] == "crash"
            assert envelope["error"]["quarantined"] is True

            # The same request again is refused before execution.
            status, envelope = client.post("sleep", {"seconds": 0})
            assert status == 503
            assert envelope["error"]["kind"] == "quarantined"
            assert server.counters["executions"] == 1
            assert client.statsz()["quarantine"]

    def test_hang_times_out_with_structured_error(self, running_server):
        with running_server(
            fault_plan=FaultPlan.parse("hang:0@30"), timeout_s=1.0
        ) as server:
            status, envelope = ServeClient(server.url).post(
                "sleep", {"seconds": 0}
            )
            assert status == 500
            assert envelope["error"]["kind"] == "timeout"
            assert server.failed_kinds == {"timeout": 1}

    def test_ambient_plan_stays_out_of_the_request(
        self, running_server, monkeypatch
    ):
        """An ambient plan must neither reach the engine inside the
        request's worker nor be removed from the server's environment."""
        monkeypatch.setenv("SLMS_FAULTS", "fail:0")
        with running_server() as server:
            status, envelope = ServeClient(server.url).post(
                "sweep",
                {"workloads": ["daxpy"], "pairs": [["itanium2", "gcc_O3"]]},
            )
        assert status == 200
        assert envelope["result"]["failures"] == 0
        assert os.environ["SLMS_FAULTS"] == "fail:0"

    def test_faulted_request_does_not_affect_others(self, running_server):
        """A crash hits only its target; a concurrent request lands."""
        with running_server(
            fault_plan=FaultPlan.parse("crash:0"), crash_strikes=1
        ) as server:
            client = ServeClient(server.url)
            status, envelope = client.post("sleep", {"seconds": 0})
            assert status == 500 and envelope["error"]["kind"] == "crash"
            status, envelope = client.post("compile", {"source": SOURCE})
            assert status == 200 and envelope["result"]["applied"] == 1


class TestSettings:
    """Settings that would start a server unable to serve are refused
    before the socket binds."""

    @pytest.mark.parametrize(
        "field,value",
        [("queue_limit", 0), ("queue_limit", -3),
         ("timeout_s", 0), ("timeout_s", -5.0)],
    )
    def test_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"got {value}"):
            ServeConfig(**{field: value})

    @pytest.fixture()
    def started(self, monkeypatch):
        """Configs that reached ``serve_forever`` (which returns at
        once instead of serving)."""
        configs = []

        def fake_serve_forever(config):
            configs.append(config)
            return 0

        monkeypatch.setattr(server_module, "serve_forever",
                            fake_serve_forever)
        return configs

    @pytest.mark.parametrize(
        "flags",
        [["--queue-limit", "0"], ["--queue-limit", "-3"],
         ["--timeout", "-5"]],
        ids=" ".join,
    )
    def test_cli_usage_error_starts_no_server(self, flags, started, capsys):
        assert main(["serve", "--port", "0", *flags]) == 2
        captured = capsys.readouterr()
        assert started == []
        assert "serving on" not in captured.out
        assert captured.err.startswith("error: ")

    def test_cli_timeout_zero_is_unlimited(self, started):
        assert main(["serve", "--port", "0", "--timeout", "0"]) == 0
        assert [config.timeout_s for config in started] == [None]

    def test_cli_has_no_isolation_switch(self, started, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve", "--port", "0", "--no-isolation"])
        assert info.value.code == 2
        assert started == []
        assert "--no-isolation" in capsys.readouterr().err


class TestDrain:
    def test_draining_refuses_new_requests(self, running_server):
        with running_server() as server:
            client = ServeClient(server.url)
            server.draining = True
            status, envelope = client.post("sleep", {"seconds": 0})
            assert status == 503
            assert envelope["error"]["kind"] == "draining"
            assert client.healthz()["draining"] is True


class TestWarmWorkers:
    """Each request borrows an idle worker and returns it when its
    attempts succeeded; anything else discards it."""

    @pytest.fixture(autouse=True)
    def _pid_results(self, monkeypatch):
        monkeypatch.setattr(server_module, "_serve_worker",
                            _serve_worker_pid)

    @staticmethod
    def _pid(client, seconds):
        status, envelope = client.post("sleep", {"seconds": seconds})
        assert status == 200, envelope
        return envelope["result"]["pid"]

    @pytest.mark.parametrize("timeout_s", [ServeConfig.timeout_s, None])
    def test_sequential_requests_run_in_one_worker(self, running_server,
                                                   timeout_s):
        with running_server(timeout_s=timeout_s) as server:
            client = ServeClient(server.url)
            pids = {self._pid(client, 0.001 * i) for i in range(3)}
            status, envelope = client.post("compile", {"source": SOURCE})
            assert status == 200
            pids.add(envelope["result"]["pid"])
            assert len(pids) == 1 and os.getpid() not in pids
            requests = client.statsz()["requests"]
            assert requests["executions"] == 4
            assert requests["workers_started"] == 1

    @pytest.mark.parametrize(
        "spec,status", [("crash:1", 500), ("hang:1@30", 500),
                        ("fail:1", 500), ("transient:1", 200)],
    )
    def test_next_request_after_a_fault_gets_a_new_worker(
        self, running_server, spec, status
    ):
        with running_server(fault_plan=FaultPlan.parse(spec),
                            timeout_s=1.0, crash_strikes=1) as server:
            client = ServeClient(server.url)
            first = self._pid(client, 0)
            assert client.post("sleep", {"seconds": 0.001})[0] == status
            assert self._pid(client, 0.002) != first
            assert first not in _live_children()

    def test_killed_idle_worker_costs_no_strike(self, running_server):
        with running_server(crash_strikes=1) as server:
            client = ServeClient(server.url)
            first = self._pid(client, 0)
            os.kill(first, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while first in _live_children():
                assert time.monotonic() < deadline
                time.sleep(0.02)
            status, envelope = client.post("sleep", {"seconds": 0.001})
            assert status == 200 and envelope["attempts"] == 1
            assert envelope["result"]["pid"] != first
            stats = client.statsz()
            assert stats["requests"]["failed"] == 0
            assert stats["quarantine"] == []

    def test_burst_keeps_one_idle_worker_per_cpu(self, running_server):
        burst = (os.cpu_count() or 1) + 2
        with running_server() as server:
            client = ServeClient(server.url)
            barrier = threading.Barrier(burst)
            pids = []

            def request(i):
                barrier.wait(timeout=30)
                pids.append(self._pid(client, 0.5 + 0.001 * i))

            threads = [threading.Thread(target=request, args=(i,))
                       for i in range(burst)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(pids) == burst
            idle = len(server.pools._idle)
            assert 1 <= idle <= (os.cpu_count() or 1)
            assert server.pools.started >= idle

    def test_server_close_stops_every_worker(self, running_server):
        with running_server() as server:
            pid = self._pid(ServeClient(server.url), 0)
            assert pid in _live_children()
        assert server.pools._idle == []
        assert pid not in _live_children()
