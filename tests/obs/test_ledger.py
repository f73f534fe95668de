"""Run ledger: content addressing, torn-tail tolerance, ref resolution."""

import json

import pytest

from repro.obs import (
    LEDGER_SCHEMA,
    RunLedger,
    digest_of,
    entry_from_stats,
    environment_fingerprint,
    ledger_enabled,
    make_entry,
    read_jsonl,
    render_entries,
)


def _entry(label="run", wall=1.0, **kwargs):
    kwargs.setdefault("config", {"workloads": ["daxpy"]})
    kwargs.setdefault("experiments", 5)
    return make_entry("sweep", label, wall_s=wall, **kwargs)


class TestEntry:
    def test_schema_and_digests(self):
        entry = _entry(result_digest="a" * 64)
        assert entry["schema"] == LEDGER_SCHEMA
        assert entry["config_digest"] == digest_of({"workloads": ["daxpy"]})
        assert entry["result_digest"] == "a" * 64
        assert entry["env"]["engine_version"]
        # The whole record is JSON-able as-is.
        json.dumps(entry)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown ledger kind"):
            make_entry("nonsense", "x")

    def test_config_digest_is_input_stable(self):
        a = _entry(config={"workloads": ["daxpy"], "pairs": "default"})
        b = _entry(config={"pairs": "default", "workloads": ["daxpy"]})
        assert a["config_digest"] == b["config_digest"]

    def test_entry_from_stats_maps_engine_payload(self):
        stats = {
            "engine_version": "3",
            "experiments": 10,
            "cache_hits": 4,
            "cache_misses": 6,
            "cache_hit_rate": 0.4,
            "cache_evictions": 0,
            "workers": 2,
            "worker_utilization": 0.9,
            "wall_s": 1.25,
            "phase_totals_s": {"simulate": 0.8, "total": 1.1},
            "cached_phase_totals_s": {"compile": 0.3},
            "phase_cache": {
                "simulate": {"hits": 3, "misses": 7, "hit_rate": 0.3},
            },
            "failures": 1,
            "retries": 2,
            "quarantined": 0,
            "timeouts": 1,
        }
        entry = entry_from_stats("sweep", "s", stats)
        assert entry["experiments"] == 10
        assert entry["workers"] == 2
        assert entry["cache"] == {
            "hits": 4, "misses": 6, "hit_rate": 0.4, "evictions": 0,
        }
        assert entry["tiers"]["simulate"]["hits"] == 3
        assert entry["phase_times"] == {"simulate": 0.8, "total": 1.1}
        assert entry["cached_phase_times"] == {"compile": 0.3}
        assert entry["faults"] == {
            "failures": 1, "retries": 2, "timeouts": 1,
        }
        assert entry["extra"]["worker_utilization"] == 0.9


class TestStore:
    def test_append_seals_content_address(self, tmp_path):
        ledger = RunLedger(tmp_path)
        record = ledger.append(_entry())
        body = {k: v for k, v in record.items() if k != "id"}
        assert record["id"] == digest_of(body)
        assert ledger.verify() == []

    def test_entries_round_trip_in_order(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i in range(3):
            ledger.append(_entry(label=f"run{i}"))
        labels = [e["label"] for e in ledger.entries()]
        assert labels == ["run0", "run1", "run2"]
        assert ledger.latest()["label"] == "run2"
        assert [e["label"] for e in ledger.entries(limit=2)] == [
            "run1", "run2",
        ]

    def test_limit_zero_keeps_none_and_negative_raises(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i in range(3):
            ledger.append(_entry(label=f"run{i}"))
        assert ledger.entries(limit=0) == []
        with pytest.raises(ValueError, match="got -1"):
            ledger.entries(limit=-1)

    def test_cli_limits(self, tmp_path, capsys):
        from repro.cli import main

        ledger = RunLedger(tmp_path)
        for i in range(3):
            ledger.append(_entry(label=f"run{i}"))
        where = ["--ledger-dir", str(tmp_path)]
        assert main(["obs", "ledger", "--limit", "0"] + where) == 0
        assert "run" not in capsys.readouterr().out
        assert main(["obs", "ledger", "--limit", "1"] + where) == 0
        out = capsys.readouterr().out
        assert "run2" in out and "run1" not in out
        for command in (["obs", "ledger"], ["report"]):
            assert main(command + ["--limit", "-1"] + where) == 2
            assert "got -1" in capsys.readouterr().err

    def test_torn_tail_and_junk_lines_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_entry(label="good"))
        with open(ledger.path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
            fh.write("[]\n")
            fh.write('{"schema": "other/1"}\n')
            fh.write('{"schema": "slms-ledger/1", "label": "torn')  # no \n
        entries = ledger.entries()
        assert [e["label"] for e in entries] == ["good"]

    def test_kind_filter(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_entry())
        ledger.append(make_entry("fuzz", "f", experiments=3))
        assert [e["kind"] for e in ledger.entries(kind="fuzz")] == ["fuzz"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert RunLedger(tmp_path / "nowhere").entries() == []

    def test_verify_flags_tampering(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_entry())
        record = ledger.entries()[0]
        record["wall_s"] = 99.0
        with open(ledger.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        problems = ledger.verify()
        assert len(problems) == 1
        assert "does not match" in problems[0]


class TestResolve:
    def _ledger(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i in range(3):
            ledger.append(_entry(label=f"run{i}"))
        return ledger

    def test_head_refs(self, tmp_path):
        ledger = self._ledger(tmp_path)
        assert ledger.resolve("HEAD")["label"] == "run2"
        assert ledger.resolve("head~1")["label"] == "run1"
        assert ledger.resolve("HEAD~2")["label"] == "run0"

    def test_id_prefix(self, tmp_path):
        ledger = self._ledger(tmp_path)
        target = ledger.entries()[1]
        assert ledger.resolve(target["id"][:10])["label"] == "run1"

    def test_bad_refs_raise_with_guidance(self, tmp_path):
        ledger = self._ledger(tmp_path)
        with pytest.raises(ValueError, match="out of range"):
            ledger.resolve("HEAD~9")
        with pytest.raises(ValueError, match="no ledger entry"):
            ledger.resolve("ffffffff")
        with pytest.raises(ValueError, match="no entries"):
            RunLedger(tmp_path / "empty").resolve("HEAD")


class TestMisc:
    def test_ledger_enabled_env(self, monkeypatch):
        monkeypatch.delenv("SLMS_LEDGER", raising=False)
        assert ledger_enabled()
        for off in ("0", "false", "no", "OFF"):
            monkeypatch.setenv("SLMS_LEDGER", off)
            assert not ledger_enabled()
        monkeypatch.setenv("SLMS_LEDGER", "1")
        assert ledger_enabled()

    def test_environment_fingerprint_shape(self):
        env = environment_fingerprint()
        assert set(env) == {
            "python", "implementation", "platform", "machine", "cpus",
            "engine_version",
        }

    def test_render_entries_one_line_each(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_entry(result_digest="e" * 64))
        ledger.append(
            make_entry("fuzz", "f", faults={"failures": 2})
        )
        text = render_entries(ledger.entries())
        lines = text.splitlines()
        assert len(lines) == 2
        assert "sweep" in lines[0] and "eeeeeeeeeeee" in lines[0]
        assert lines[1].endswith("FAULTS")


class TestReadJsonl:
    def test_yields_only_object_lines_in_order(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            b'{"a": 1}\n\n[]\n"s"\nnull\n7\nnot json\n\xff\xfe\n'
            b'{"a": 2}\n{"a": 3, "torn'
        )
        assert list(read_jsonl(path)) == [{"a": 1}, {"a": 2}]
