"""Tier semantics of the per-phase memo store.

The invalidation lattice under test (see docs/PERFORMANCE.md):

* identical inputs → every tier hits (a warm experiment does no work);
* a *source* edit invalidates transform and everything downstream of
  it (compile, simulate, verify of the changed programs);
* a *machine* edit invalidates only compile and simulate — transform
  never reads the machine, and verify keys on the simulated state
  digests, which timing-only machine changes cannot move.

Plus the result-schema pins the tiering relies on: ``phase_times``
(wall clock actually spent) and ``cached_phase_times`` (seconds served
from the cache) are distinct keys and schema 2 carries both.
"""

from dataclasses import replace

import pytest

from repro.harness.expcache import PhaseCache
from repro.harness.experiment import (
    SCHEMA_VERSION,
    ExperimentResult,
    run_experiment,
)
from repro.machines import machine_by_name
from repro.workloads import get_workload

WORKLOAD = "daxpy"
MACHINE = "itanium2"
COMPILER = "gcc_O3"


def _run(tmp_path, workload=None, machine=None):
    cache = PhaseCache(tmp_path)
    result = run_experiment(
        workload or get_workload(WORKLOAD),
        machine or machine_by_name(MACHINE),
        COMPILER,
        phase_cache=cache,
    )
    return result, result.cache_tiers


def _comparable(result: ExperimentResult):
    payload = result.to_dict()
    payload.pop("phase_times")
    payload.pop("cached_phase_times")
    return payload


class TestWarmRerun:
    def test_all_tiers_hit_on_identical_rerun(self, tmp_path):
        cold, cold_tiers = _run(tmp_path)
        warm, warm_tiers = _run(tmp_path)
        for tier in ("transform", "compile", "simulate", "verify"):
            assert warm_tiers[tier]["misses"] == 0, tier
            assert warm_tiers[tier]["hits"] > 0, tier
            assert cold_tiers[tier]["misses"] > 0, tier
        assert _comparable(cold) == _comparable(warm)

    def test_warm_run_reports_cached_phase_seconds(self, tmp_path):
        _run(tmp_path)
        warm, _ = _run(tmp_path)
        # The warm run did ~no phase work itself but credits what the
        # hits originally cost — under distinct keys.
        assert warm.cached_phase_times.get("transform", 0.0) > 0.0
        assert warm.cached_phase_times.get("compile", 0.0) > 0.0
        assert set(warm.cached_phase_times) & set(warm.phase_times)


class TestSourceEditInvalidation:
    def test_kernel_edit_invalidates_transform_and_downstream(
        self, tmp_path
    ):
        _run(tmp_path)
        base = get_workload(WORKLOAD)
        edited = replace(
            base, kernel=base.kernel.replace("i < 240", "i < 239")
        )
        assert edited.kernel != base.kernel, "edit must change the kernel"
        _, tiers = _run(tmp_path, workload=edited)
        assert tiers["transform"]["misses"] == 1
        assert tiers["verify"]["misses"] == 1
        # The full base and SLMS programs recompile and resimulate; the
        # untouched setup program still hits.
        assert tiers["compile"]["misses"] >= 2
        assert tiers["simulate"]["misses"] >= 2
        assert tiers["compile"]["hits"] >= 1
        assert tiers["simulate"]["hits"] >= 1


class TestMachineEditInvalidation:
    def test_machine_edit_spares_transform_and_verify(self, tmp_path):
        _run(tmp_path)
        machine = machine_by_name(MACHINE)
        tweaked = replace(
            machine,
            cache=replace(
                machine.cache, miss_penalty=machine.cache.miss_penalty + 1
            ),
        )
        _, tiers = _run(tmp_path, machine=tweaked)
        # Transform never reads the machine; verify keys on functional
        # state digests, which a timing-only change cannot move.
        assert tiers["transform"]["misses"] == 0
        assert tiers["transform"]["hits"] == 1
        assert tiers["verify"]["misses"] == 0
        assert tiers["verify"]["hits"] == 1
        assert tiers["compile"]["misses"] > 0
        assert tiers["simulate"]["misses"] > 0


class TestSchema:
    def test_schema_two_with_distinct_time_keys(self, tmp_path):
        result, _ = _run(tmp_path)
        payload = result.to_dict()
        assert payload["schema"] == SCHEMA_VERSION == 2
        assert "phase_times" in payload
        assert "cached_phase_times" in payload
        roundtrip = ExperimentResult.from_dict(payload)
        assert roundtrip.to_dict() == payload

    def test_schema_one_payload_rejected(self, tmp_path):
        result, _ = _run(tmp_path)
        payload = result.to_dict()
        payload["schema"] = 1
        with pytest.raises(ValueError):
            ExperimentResult.from_dict(payload)


class TestWrites:
    """Entries are pickled and written to disk inside ``put``: visible
    in-process at once (memory overlay) and to any other instance on the
    same directory as soon as ``put`` returns."""

    def test_put_is_immediately_visible_in_process(self, tmp_path):
        cache = PhaseCache(tmp_path)
        assert cache.put("transform", "k" * 64, {"x": 1})
        assert cache.get("transform", "k" * 64) == {"x": 1}

    def test_put_lands_entry_on_disk(self, tmp_path):
        cache = PhaseCache(tmp_path)
        assert cache.put("compile", "a" * 64, [1, 2, 3])
        # A fresh instance has no memory overlay: a hit proves the
        # file made it to disk.
        fresh = PhaseCache(tmp_path)
        assert fresh.get("compile", "a" * 64) == [1, 2, 3]

    def test_mutating_after_put_does_not_corrupt_entry(self, tmp_path):
        cache = PhaseCache(tmp_path)
        value = {"metrics": [1, 2]}
        cache.put("simulate", "b" * 64, value)
        value["metrics"].append(3)  # caller reuses its object
        fresh = PhaseCache(tmp_path)
        assert fresh.get("simulate", "b" * 64) == {"metrics": [1, 2]}

    def test_clear_removes_every_written_entry(self, tmp_path):
        cache = PhaseCache(tmp_path)
        for i in range(32):
            cache.put("verify", f"{i:02d}" * 32, i)
        cache.clear()
        fresh = PhaseCache(tmp_path)
        for i in range(32):
            assert fresh.get("verify", f"{i:02d}" * 32) is None

    def test_stats_count_written_entries(self, tmp_path):
        cache = PhaseCache(tmp_path)
        cache.put("transform", "c" * 64, "v")
        stats = cache.stats()
        assert stats["tiers"]["transform"]["entries"] == 1
