"""SIGTERM semantics, end to end in real subprocesses.

* ``slms serve`` drains: in-flight requests complete, exit code 0.
* ``slms serve`` leaves no worker behind: the drain stops its idle
  workers, and after a SIGKILL they exit by themselves.
* ``slms sweep`` (and every CLI command) exits 143 with a resume hint.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _spawn(args, tmp_path, *, new_session=False, **env_extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    env["SLMS_CACHE_DIR"] = str(tmp_path / "cache")
    env["SLMS_LEDGER_DIR"] = str(tmp_path / "ledger")
    env.pop("SLMS_FAULTS", None)
    env.update(env_extra)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=new_session,
    )


def _post(url, op, params, timeout=60):
    request = urllib.request.Request(
        f"{url}/v1/{op}",
        data=json.dumps(params).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


@pytest.mark.slow
class TestServeDrain:
    def test_sigterm_drains_inflight_and_exits_zero(self, tmp_path):
        proc = _spawn(
            ["serve", "--port", "0", "--enable-sleep", "--timeout", "30"],
            tmp_path,
        )
        try:
            banner = proc.stdout.readline()
            assert "# serving on " in banner
            url = banner.split("# serving on ")[1].split(" ")[0].strip()

            inflight = {}

            def request():
                inflight["response"] = _post(
                    url, "sleep", {"seconds": 2.0}
                )

            thread = threading.Thread(target=request)
            thread.start()
            deadline = time.time() + 10
            while time.time() < deadline:
                with urllib.request.urlopen(
                    f"{url}/statsz", timeout=10
                ) as response:
                    stats = json.loads(response.read().decode("utf-8"))
                if stats["queue"]["inflight"] >= 1:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("request never became in-flight")

            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=30)
            assert proc.wait(timeout=30) == 0

            # The admitted request rode out the drain and completed.
            status, envelope = inflight["response"]
            assert status == 200
            assert envelope["result"]["slept_s"] == 2.0
            out = proc.stdout.read()
            assert "draining (SIGTERM)" in out
            assert "drained; exiting" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _children(pid):
    """Pids of the child processes of ``pid``."""
    out = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                out.update(int(child) for child in handle.read().split())
        except OSError:
            pass
    return out


def _running(pid):
    """Does ``pid`` still run (a zombie has exited)?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def _serve_with_a_worker(tmp_path, new_session=False):
    """A ``slms serve`` that has run one request: (proc, worker pids)."""
    proc = _spawn(["serve", "--port", "0", "--enable-sleep"], tmp_path,
                  new_session=new_session)
    try:
        banner = proc.stdout.readline()
        assert "# serving on " in banner, banner
        url = banner.split("# serving on ")[1].split(" ")[0].strip()
        status, _ = _post(url, "sleep", {"seconds": 0})
        assert status == 200
        # The worker's parent is the handler thread that forked it, and
        # while that thread exits the worker is listed under no thread.
        deadline = time.monotonic() + 10
        while not (workers := _children(proc.pid)):
            assert time.monotonic() < deadline, "the request left no worker"
            time.sleep(0.05)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, workers


@pytest.mark.slow
@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<tid>/children",
)
class TestServeWorkers:
    def test_drain_stops_idle_workers(self, tmp_path):
        proc, workers = _serve_with_a_worker(tmp_path)
        try:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert not any(_running(pid) for pid in workers)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_sigint_to_the_group_drains_once(self, tmp_path):
        # Ctrl-C in a terminal signals the whole process group: the
        # server drains, and its idle workers ignore the signal rather
        # than run the server's inherited drain handler.
        proc, workers = _serve_with_a_worker(tmp_path, new_session=True)
        try:
            os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(timeout=30) == 0
            out = proc.stdout.read()
            assert out.count("# draining") == 1, out
            assert "# drained; exiting" in out
            assert not any(_running(pid) for pid in workers)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_workers_of_a_killed_server_exit(self, tmp_path):
        proc, workers = _serve_with_a_worker(tmp_path)
        try:
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10
            while any(_running(pid) for pid in workers):
                assert time.monotonic() < deadline, workers
                time.sleep(0.1)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


@pytest.mark.slow
class TestCliSigterm:
    def test_sweep_exits_143_with_resume_hint(self, tmp_path):
        proc = _spawn(["sweep", "--workers", "1"], tmp_path)
        try:
            time.sleep(1.5)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 143
            assert "terminated (SIGTERM)" in out
            assert "--resume" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
