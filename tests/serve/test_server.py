"""Server behaviors: protocol, coalescing, admission, fault handling.

Each test spins a real in-process server on an ephemeral port and
drives it over HTTP — the same path production clients use.
"""

import os
import threading
import time

import pytest

from repro.harness.faults import FaultPlan
from repro.serve.client import ServeClient, ServeError
from tests.serve.conftest import SOURCE


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

    def test_bad_params_is_400_without_execution(self, running_server):
        with running_server() as server:
            client = ServeClient(server.url)
            status, envelope = client.post("compile", {"nope": 1})
            assert status == 400
            assert envelope["error"]["kind"] == "bad-request"
            assert server.counters["executions"] == 0

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

    def test_in_process_request_leaves_the_environment_alone(
        self, running_server, monkeypatch
    ):
        """Without isolation the request runs in the server process: an
        ambient plan must neither reach its engine nor be removed."""
        monkeypatch.setenv("SLMS_FAULTS", "fail:0")
        with running_server(isolation=False) as server:
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


class TestDrain:
    def test_draining_refuses_new_requests(self, running_server):
        with running_server() as server:
            client = ServeClient(server.url)
            server.draining = True
            status, envelope = client.post("sleep", {"seconds": 0})
            assert status == 503
            assert envelope["error"]["kind"] == "draining"
            assert client.healthz()["draining"] is True
