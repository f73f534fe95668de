"""Harness-facing observability: phase_times consistency, cache
counters on EngineStats, and the store's lifetime sidecar."""

import multiprocessing
from dataclasses import replace

from repro.backend.compiler import COMPILER_PRESETS
from repro.harness.engine import EngineStats, ExperimentSpec, run_experiments
from repro.harness.expcache import PHASE_TIERS, PhaseCache
from repro.harness.experiment import EXPERIMENT_PHASES, run_experiment
from repro.machines.presets import itanium2, machine_by_name
from repro.workloads import get_workload


def _spec(name="daxpy"):
    return ExperimentSpec(
        workload=get_workload(name),
        machine=itanium2(),
        compiler=COMPILER_PRESETS["gcc_O3"],
        options=None,
        verify=True,
    )


class TestPhaseTimes:
    def test_every_phase_key_present_when_applied(self):
        res = run_experiment(get_workload("daxpy"), "itanium2", "gcc_O3")
        assert set(res.phase_times) == set(EXPERIMENT_PHASES)
        assert res.phase_times["total"] > 0

    def test_every_phase_key_present_when_declined(self):
        # Declined-SLMS runs used to skip phases and leave holes.
        res = run_experiment(get_workload("idamax"), "itanium2", "gcc_O3")
        assert not res.slms_applied
        assert set(res.phase_times) == set(EXPERIMENT_PHASES)

    def test_unverified_run_still_reports_verify_key(self):
        res = run_experiment(
            get_workload("daxpy"), "itanium2", "gcc_O3", verify=False
        )
        # The key is always present; with verify off only the (timed)
        # no-op branch runs, so the value is negligible but measured.
        assert res.phase_times["verify"] < 0.01

    def test_cache_hit_reports_cache_pseudo_phase(self, tmp_path):
        specs = [_spec()]
        run_experiments(specs, workers=1, cache_dir=str(tmp_path))
        results, stats = run_experiments(
            specs, workers=1, cache_dir=str(tmp_path)
        )
        assert stats.cache_hits == 1
        assert list(results[0].phase_times) == ["cache"]
        assert results[0].phase_times["cache"] >= 0.0


class TestEngineStatsCounters:
    def test_stats_expose_cache_counter_triple(self, tmp_path):
        specs = [_spec(), _spec("kernel1")]
        _, cold = run_experiments(specs, workers=1, cache_dir=str(tmp_path))
        _, warm = run_experiments(specs, workers=1, cache_dir=str(tmp_path))
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert cold.cache_evictions == warm.cache_evictions == 0
        for stats in (cold, warm):
            data = stats.to_dict()
            assert data["cache_evictions"] == 0
            assert 0.0 <= data["worker_utilization"]

    def test_utilization_zero_without_wall(self):
        assert EngineStats().utilization == 0.0


def _add_hits(cache_dir: str, rounds: int) -> None:
    store = PhaseCache(cache_dir)
    for _ in range(rounds):
        store.add_counters({"full": {"hits": 1}})


class TestCacheLifetimeCounters:
    def test_sidecar_accumulates_across_runs(self, tmp_path):
        specs = [_spec()]
        run_experiments(specs, workers=1, cache_dir=str(tmp_path))
        run_experiments(specs, workers=1, cache_dir=str(tmp_path))
        lifetime = PhaseCache(tmp_path).lifetime_counters()
        assert lifetime["full"] == {"hits": 1, "misses": 1, "evictions": 0}

    def test_clear_counts_evictions(self, tmp_path):
        specs = [_spec()]
        run_experiments(specs, workers=1, cache_dir=str(tmp_path))
        store = PhaseCache(tmp_path)
        removed = store.clear(["full"])
        assert removed == 1
        assert store.evictions["full"] == 1
        lifetime = PhaseCache(tmp_path).lifetime_counters()
        assert lifetime["full"]["evictions"] == 1
        assert lifetime["transform"]["evictions"] == 0

    def test_sidecar_does_not_pollute_entries(self, tmp_path):
        store = PhaseCache(tmp_path)
        store.add_counters({"full": {"misses": 3}})
        stats = store.stats()["tiers"]
        assert [stats[tier]["entries"] for tier in PhaseCache.TIERS] == [
            0, 0, 0, 0, 0,
        ]
        assert stats["full"]["lifetime"]["misses"] == 3

    def test_add_counters_accumulates(self, tmp_path):
        store = PhaseCache(tmp_path)
        store.add_counters({"full": {"hits": 2}})
        store.add_counters({"full": {"hits": 3}, "verify": {"misses": 1}})
        lifetime = PhaseCache(tmp_path).lifetime_counters()
        assert lifetime["full"]["hits"] == 5
        assert lifetime["verify"] == {"hits": 0, "misses": 1, "evictions": 0}

    def test_concurrent_adds_are_not_lost(self, tmp_path):
        # More writers than cores, racing read-modify-writes of the one
        # sidecar: the lock must keep every increment.
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_add_hits, args=(str(tmp_path), 50))
            for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        lifetime = PhaseCache(tmp_path).lifetime_counters()
        assert lifetime["full"]["hits"] == 200

    def test_unreadable_sidecar_degrades_to_zeros(self, tmp_path):
        (tmp_path / "phases").mkdir()
        (tmp_path / "phases" / "counters.json").write_text("not json")
        assert PhaseCache(tmp_path).lifetime_counters() == {
            tier: {"hits": 0, "misses": 0, "evictions": 0}
            for tier in PhaseCache.TIERS
        }

    def test_pooled_runs_count_exactly(self, tmp_path):
        """Pooled workers write no counters; the parent adds each run's
        spec-order counts once, so lifetime == the runs' EngineStats."""
        specs = [
            replace(_spec(name), machine=machine_by_name(machine))
            for name in ("daxpy", "kernel1")
            for machine in ("itanium2", "pentium")
        ]
        runs = [run_experiments(specs, workers=2, cache_dir=str(tmp_path))[1]]
        runs.append(
            run_experiments(specs, workers=2, cache_dir=str(tmp_path))[1]
        )
        assert (runs[1].cache_hits, runs[1].cache_misses) == (4, 0)
        # Re-run the machine-dependent tiers so pooled workers both hit
        # and miss in the phase tiers.  (Clear through the shared
        # instance: it also drops the parent's in-memory full results.)
        cleared = PhaseCache.shared(tmp_path).clear(["full", "simulate"])
        runs.append(
            run_experiments(specs, workers=2, cache_dir=str(tmp_path))[1]
        )
        assert all(stats.workers == 2 for stats in (runs[0], runs[2]))
        assert runs[2].tier_hits["compile"] > 0
        assert runs[2].tier_misses["simulate"] > 0

        lifetime = PhaseCache(tmp_path).lifetime_counters()
        assert lifetime["full"]["hits"] == sum(s.cache_hits for s in runs)
        assert lifetime["full"]["misses"] == sum(s.cache_misses for s in runs)
        for tier in PHASE_TIERS:
            assert lifetime[tier]["hits"] == sum(
                s.tier_hits.get(tier, 0) for s in runs
            ), tier
            assert lifetime[tier]["misses"] == sum(
                s.tier_misses.get(tier, 0) for s in runs
            ), tier
        evictions = sum(rec["evictions"] for rec in lifetime.values())
        assert evictions == cleared
