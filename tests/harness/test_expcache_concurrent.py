"""Concurrent expcache access: two processes racing the same key.

The store writes via temp-file + atomic rename, so a reader can never
observe a torn entry no matter how the race resolves.
"""

import multiprocessing

from repro.harness.expcache import ExperimentCache, PhaseCache, request_key
from repro.harness.experiment import ExperimentResult


def _result(cycles: int) -> ExperimentResult:
    return ExperimentResult(
        workload="daxpy", suite="livermore", machine="itanium2",
        compiler="gcc_O3", base_cycles=100, slms_cycles=cycles,
        base_energy=1.0, slms_energy=0.5, slms_applied=True,
    )


def _read_disk(cache_dir: str, key: str):
    """The full-tier entry as on disk: a fresh store has no in-memory
    overlay to serve it from (and quarantines a torn file)."""
    data = PhaseCache(cache_dir).get("full", key)
    return None if data is None else ExperimentResult.from_dict(data)


def _racer(cache_dir: str, key: str, cycles: int, rounds: int, queue):
    """Hammer put/get on one key; report any torn read."""
    cache = ExperimentCache(cache_dir)
    try:
        for _ in range(rounds):
            assert cache.put(key, _result(cycles))
            seen = _read_disk(cache_dir, key)
            # The entry must always be one writer's complete result —
            # whichever process won the last rename.
            assert seen is not None
            assert seen.workload == "daxpy"
            assert seen.slms_cycles in (50, 60)
        queue.put(("ok", cycles))
    except BaseException as exc:  # pragma: no cover - failure reporting
        queue.put(("fail", f"{type(exc).__name__}: {exc}"))


class TestTwoProcessRace:
    def test_same_key_put_get_race(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        key = request_key("bench", {"workload": "daxpy"})
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_racer, args=(cache_dir, key, cycles, 40, queue)
            )
            for cycles in (50, 60)
        ]
        for p in procs:
            p.start()
        outcomes = [queue.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert [kind for kind, _ in outcomes] == ["ok", "ok"], outcomes

        # After the dust settles the entry is intact and parseable.
        final = _read_disk(cache_dir, key)
        assert final is not None and final.slms_cycles in (50, 60)
        assert PhaseCache(cache_dir).stats()["tiers"]["full"]["corrupt"] == 0

    def test_distinct_keys_do_not_interfere(self, tmp_path):
        cache = ExperimentCache(str(tmp_path / "cache"))
        key_a = request_key("bench", {"workload": "daxpy"})
        key_b = request_key("bench", {"workload": "dscal"})
        assert key_a != key_b
        cache.put(key_a, _result(50))
        cache.put(key_b, _result(60))
        assert cache.get(key_a).slms_cycles == 50
        assert cache.get(key_b).slms_cycles == 60
        cache_dir = str(tmp_path / "cache")
        assert _read_disk(cache_dir, key_a).slms_cycles == 50
        assert _read_disk(cache_dir, key_b).slms_cycles == 60


class TestRequestKey:
    def test_stable_and_param_sensitive(self):
        base = request_key("compile", {"source": "x"}, {"machine": "a"})
        assert base == request_key(
            "compile", {"source": "x"}, {"machine": "a"}
        )
        assert base != request_key(
            "compile", {"source": "y"}, {"machine": "a"}
        )
        assert base != request_key(
            "compile", {"source": "x"}, {"machine": "b"}
        )
        assert base != request_key("advise", {"source": "x"}, {"machine": "a"})

    def test_dataclass_context(self):
        from repro.serve.session import SessionConfig

        one = request_key("bench", {"workload": "daxpy"}, SessionConfig())
        two = request_key(
            "bench", {"workload": "daxpy"}, SessionConfig(verify=False)
        )
        assert one != two
