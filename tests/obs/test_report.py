"""Report assembly and the self-contained HTML/terminal renderers."""

import json
import re

from repro.obs import (
    REPORT_SCHEMA,
    Tracer,
    build_report,
    fold_trace,
    make_entry,
    render_report_html,
    render_report_text,
    summarize_journal,
)


def _entries():
    return [
        make_entry(
            "sweep", "cold", config={"w": "all"}, result_digest="a" * 64,
            experiments=235, workers=4, wall_s=9.0,
            phase_times={"simulate": 5.0, "total": 8.5},
            cache={"hits": 0, "misses": 235, "hit_rate": 0.0},
            tiers={"simulate": {"hits": 0, "misses": 470}},
        ),
        make_entry(
            "sweep", "warm", config={"w": "all"}, result_digest="a" * 64,
            experiments=235, workers=4, wall_s=0.2,
            phase_times={"cache": 0.1},
            cached_phase_times={"simulate": 5.0, "total": 8.5},
            cache={"hits": 235, "misses": 0, "hit_rate": 1.0},
            tiers={"simulate": {"hits": 470, "misses": 0}},
            faults={"failures": 1},
            latency={"n": 235, "p50": 0.001, "p99": 0.003},
        ),
    ]


class TestBuild:
    def test_shape(self):
        report = build_report(_entries())
        assert report["schema"] == REPORT_SCHEMA
        assert report["runs"] == 2
        assert report["kinds"] == ["sweep"]
        assert report["distinct_result_digests"] == 1
        assert report["head"]["label"] == "warm"
        assert [row["label"] for row in report["trajectory"]] == [
            "cold", "warm",
        ]
        assert report["trajectory"][1]["failures"] == 1
        json.dumps(report)  # JSON-able end to end

    def test_empty_ledger(self):
        report = build_report([])
        assert report["runs"] == 0
        assert report["head"] is None
        assert "0 run(s)" in render_report_text(report)
        assert "<html" in render_report_html(report)

    def test_optional_sections(self):
        tr = Tracer()
        with tr.span("experiment"):
            pass
        profile = fold_trace(tr.to_dict()).to_dict()
        journal = {"path": "j.jsonl", "records": 3, "ok": 2, "failed": 1,
                   "statuses": {"ok": 2, "failed": 1}}
        report = build_report(_entries(), profile=profile, journal=journal)
        assert report["profile"]["rows"][0]["name"] == "experiment"
        assert report["journal"]["failed"] == 1


class TestText:
    def test_terminal_view(self):
        report = build_report(_entries())
        text = render_report_text(report)
        assert "2 run(s)" in text
        assert "cold" in text and "warm" in text
        assert "aaaaaaaaaaaa" in text  # digest prefix
        assert "latest run phase work" in text
        assert "seconds served from cache" in text
        assert "phase-cache tiers" in text
        assert "p50" in text


class TestHtml:
    def test_self_contained(self):
        html_text = render_report_html(build_report(_entries()))
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<style>" in html_text
        # Zero external references of any kind: no URLs, no scripts,
        # no imports — the CI job greps for the same invariants.
        assert "http://" not in html_text
        assert "https://" not in html_text
        assert "<script" not in html_text
        assert not re.search(r"\b(src|href)\s*=", html_text)

    def test_content_rendered_and_escaped(self):
        entries = _entries()
        entries[-1]["label"] = "warm <b>&</b>"
        html_text = render_report_html(build_report(entries))
        assert "warm &lt;b&gt;&amp;&lt;/b&gt;" in html_text
        assert "Run trajectory" in html_text
        assert "Latest run phases" in html_text
        assert "Phase-cache tiers" in html_text
        assert "100.0%" in html_text  # warm hit rate

    def test_journal_and_profile_sections(self):
        tr = Tracer()
        with tr.span("experiment"):
            pass
        report = build_report(
            _entries(),
            profile=fold_trace(tr.to_dict()).to_dict(),
            journal={"path": "j", "records": 2, "ok": 2, "failed": 0,
                     "statuses": {"ok": 2}},
        )
        html_text = render_report_html(report)
        assert "Profiler" in html_text
        assert "Fault journal" in html_text


class TestJournalSummary:
    def test_counts_by_status(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        lines = [
            {"schema": "slms-journal/1", "key": "a", "status": "ok"},
            {"schema": "slms-journal/1", "key": "b", "status": "ok"},
            {"schema": "slms-journal/1", "key": "c", "status": "failed"},
        ]
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(json.dumps(line) + "\n")
            fh.write('[]\n"ok"\n')  # JSON, but not records
            fh.write('{"torn')  # torn tail
        summary = summarize_journal(path)
        assert summary["records"] == 3
        assert summary["ok"] == 2
        assert summary["failed"] == 1
        assert summary["statuses"] == {"failed": 1, "ok": 2}

    def test_missing_file_is_empty(self, tmp_path):
        summary = summarize_journal(tmp_path / "none.jsonl")
        assert summary["records"] == 0
