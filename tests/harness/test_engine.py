"""Evaluation-engine tests: parallel determinism + cache correctness."""

import dataclasses
import json

import pytest

from repro.backend.compiler import COMPILER_PRESETS
from repro.core.slms import SLMSOptions
from repro.harness.engine import (
    ENGINE_VERSION,
    ExperimentSpec,
    run_experiments,
)
from repro.harness.expcache import ExperimentCache, PhaseCache, experiment_key
from repro.harness.sweep import run_sweep
from repro.machines.presets import itanium2, machine_by_name
from repro.workloads import get_workload


def _specs(names=("daxpy", "kernel1")):
    return [
        ExperimentSpec(
            workload=get_workload(name),
            machine=itanium2(),
            compiler=COMPILER_PRESETS["gcc_O3"],
            options=None,
            verify=True,
        )
        for name in names
    ]


def _result_payload(result) -> str:
    """Everything except wall-clock timing, as canonical JSON."""
    data = result.to_dict()
    data.pop("phase_times")
    data.pop("cached_phase_times")
    return json.dumps(data, sort_keys=True)


class TestParallelDeterminism:
    def test_parallel_results_identical_to_serial(self, tmp_path):
        serial = run_sweep(
            ["daxpy", "kernel12"],
            pairs=[("itanium2", "gcc_O3"), ("arm7tdmi", "arm_gcc")],
            workers=1,
            use_cache=False,
        )
        parallel = run_sweep(
            ["daxpy", "kernel12"],
            pairs=[("itanium2", "gcc_O3"), ("arm7tdmi", "arm_gcc")],
            workers=2,
            use_cache=False,
        )
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()
        # Full payload (metrics included), not just the export columns.
        for a, b in zip(serial.results, parallel.results):
            assert _result_payload(a) == _result_payload(b)

    def test_result_order_is_spec_order(self, tmp_path):
        results, _ = run_experiments(
            _specs(("kernel1", "daxpy")), workers=2, use_cache=False
        )
        assert [r.workload for r in results] == ["kernel1", "daxpy"]

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            run_experiments(_specs(("daxpy",)), workers=0, use_cache=False)

    def test_bad_worker_count_leaves_the_journal_alone(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        journal.write_bytes(b'{"schema": "slms-journal/1"}\n')
        before = journal.read_bytes()
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            run_sweep(["daxpy"], pairs=[("itanium2", "gcc_O3")], workers=0,
                      use_cache=False, journal_path=str(journal))
        assert journal.read_bytes() == before


class TestCache:
    def test_warm_run_hits_and_matches(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold, cold_stats = run_experiments(
            _specs(), workers=1, cache_dir=cache_dir
        )
        warm, warm_stats = run_experiments(
            _specs(), workers=1, cache_dir=cache_dir
        )
        assert cold_stats.cache_hits == 0
        assert cold_stats.cache_misses == len(cold)
        assert warm_stats.cache_hits == len(warm)
        assert warm_stats.cache_misses == 0
        assert warm_stats.hit_rate == 1.0
        for a, b in zip(cold, warm):
            assert _result_payload(a) == _result_payload(b)
            # Metrics round-trip the float fields bit-exactly.
            assert a.base_metrics == b.base_metrics
            assert a.slms_metrics == b.slms_metrics

    def test_no_cache_never_writes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_experiments(
            _specs(("daxpy",)), workers=1, use_cache=False,
            cache_dir=str(cache_dir),
        )
        assert not cache_dir.exists()

    def test_key_invalidates_on_source_change(self):
        spec = _specs(("daxpy",))[0]
        edited = dataclasses.replace(
            spec,
            workload=dataclasses.replace(
                spec.workload, kernel=spec.workload.kernel + "\n"
            ),
        )
        assert spec.cache_key() != edited.cache_key()

    def test_key_invalidates_on_options_change(self):
        spec = _specs(("daxpy",))[0]
        tweaked = dataclasses.replace(
            spec, options=SLMSOptions(max_unroll=4)
        )
        assert spec.cache_key() != tweaked.cache_key()

    def test_key_invalidates_on_machine_and_compiler_change(self):
        spec = _specs(("daxpy",))[0]
        other_machine = dataclasses.replace(
            spec, machine=machine_by_name("pentium")
        )
        other_compiler = dataclasses.replace(
            spec, compiler=COMPILER_PRESETS["icc_O3"]
        )
        keys = {
            spec.cache_key(),
            other_machine.cache_key(),
            other_compiler.cache_key(),
        }
        assert len(keys) == 3

    def test_key_invalidates_on_engine_version(self):
        spec = _specs(("daxpy",))[0]
        wl, m, c = spec.workload, spec.machine, spec.compiler
        assert experiment_key(wl, m, c, None, True, ENGINE_VERSION) != (
            experiment_key(wl, m, c, None, True, ENGINE_VERSION + ".future")
        )

    def test_key_is_stable(self):
        spec = _specs(("daxpy",))[0]
        assert spec.cache_key() == spec.cache_key()

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        key = _specs(("daxpy",))[0].cache_key()
        path = PhaseCache(tmp_path)._path("full", key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert ExperimentCache(tmp_path).get(key) is None
        assert PhaseCache(tmp_path).stats()["tiers"]["full"]["corrupt"] == 1

    def test_foreign_result_schema_is_quarantined(self, tmp_path):
        key = _specs(("daxpy",))[0].cache_key()
        # A well-formed entry whose payload from_dict refuses.
        PhaseCache(tmp_path).put("full", key, {"schema": 1})
        assert ExperimentCache(tmp_path).get(key) is None
        full = PhaseCache(tmp_path).stats()["tiers"]["full"]
        assert (full["entries"], full["corrupt"]) == (0, 1)
        assert full["lifetime"]["evictions"] == 1

    def test_stats_and_clear(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_experiments(_specs(("daxpy",)), workers=1, cache_dir=cache_dir)
        store = PhaseCache(cache_dir)
        full = store.stats()["tiers"]["full"]
        assert full["entries"] == 1 and full["bytes"] > 0
        assert ExperimentCache(cache_dir).clear() == 1
        tiers = store.stats()["tiers"]
        assert tiers["full"]["entries"] == 0
        # Clearing the full tier leaves the phase tiers alone.
        assert tiers["compile"]["entries"] > 0


class TestPhaseTimings:
    def test_experiment_carries_phase_times(self):
        results, stats = run_experiments(
            _specs(("daxpy",)), workers=1, use_cache=False
        )
        times = results[0].phase_times
        for phase in ("parse", "transform", "compile", "simulate",
                      "verify", "total"):
            assert phase in times and times[phase] >= 0.0
        assert stats.phase_totals["total"] >= stats.phase_totals["simulate"]
