"""Decision-event content: the trace must tell the §3/§4 story.

A scheduled loop's trace carries the filter verdict, every candidate II
tried, each decomposition round, and a final ``slms.applied`` whose
numbers match the :class:`SLMSResult`; a declined loop's trace carries
the verdict and the decline reason.  ``slms trace`` surfaces the same
through the CLI.
"""

import json

from repro.cli import main
from repro.core.slms import SLMSOptions, slms_for_loop
from repro.core.names import NamePool
from repro.lang.ast_nodes import For
from repro.lang.parser import parse_program
from repro.lang.visitors import walk
from repro.obs import Tracer, tracing, validate_trace

SCHEDULED = """
float a[1000], b[1000], c[1000];
for (i = 0; i < 1000; i++) { a[i] = b[i] + c[i]; }
"""

BAD_CASE = """
float a[1000], b[1000];
for (i = 0; i < 1000; i++) { a[i] = b[i]; }
"""


def _first_loop(source):
    program = parse_program(source)
    return next(n for n in walk(program) if isinstance(n, For))


def _traced_slms(source, **options):
    loop = _first_loop(source)
    with tracing(Tracer()) as tracer:
        result = slms_for_loop(loop, NamePool(), SLMSOptions(**options))
    return result, tracer.to_dict()


def _events(trace, name):
    return [e for e in trace["events"] if e["name"] == name]


class TestScheduledLoop:
    def test_full_decision_story(self):
        result, trace = _traced_slms(SCHEDULED)
        assert result.applied
        assert validate_trace(trace) == []

        (verdict,) = _events(trace, "filter.verdict")
        assert verdict["attrs"]["apply_slms"] is True
        assert 0.0 < verdict["attrs"]["ratio"] < 0.85

        rounds = _events(trace, "decompose.round")
        assert len(rounds) == result.decompositions
        assert [r["attrs"]["round"] for r in rounds] == list(
            range(1, len(rounds) + 1)
        )
        for entry in rounds:
            assert entry["attrs"]["array"]
            assert entry["attrs"]["temp"]

        candidates = _events(trace, "ii.candidate")
        assert candidates, "no II candidates traced"
        assert candidates[-1]["attrs"]["valid"] is True
        assert candidates[-1]["attrs"]["ii"] == result.ii

        (found,) = _events(trace, "ii.found")
        assert found["attrs"]["ii"] == result.ii
        assert found["attrs"]["pmii"] == result.pmii
        assert found["attrs"]["decompositions"] == result.decompositions

        (applied,) = _events(trace, "slms.applied")
        assert applied["attrs"]["stages"] == result.stages
        assert applied["attrs"]["expansion"] == result.expansion

    def test_difmin_outcomes_traced(self):
        _, trace = _traced_slms(SCHEDULED)
        difmin = _events(trace, "mii.difmin")
        assert difmin, "difMin search not traced"
        assert all(
            isinstance(e["attrs"]["feasible"], bool) for e in difmin
        )


class TestDeclinedLoop:
    def test_bad_case_reason_traced(self):
        result, trace = _traced_slms(BAD_CASE)
        assert not result.applied
        (verdict,) = _events(trace, "filter.verdict")
        assert verdict["attrs"]["apply_slms"] is False
        assert verdict["attrs"]["ratio"] >= 0.85
        (decline,) = _events(trace, "slms.decline")
        assert decline["attrs"]["reason"] == result.reason
        assert not _events(trace, "slms.applied")

    def test_untraced_run_identical_result(self):
        traced, _ = _traced_slms(SCHEDULED)
        plain = slms_for_loop(
            _first_loop(SCHEDULED), NamePool(), SLMSOptions()
        )
        assert plain.applied == traced.applied
        assert plain.ii == traced.ii
        assert plain.decompositions == traced.decompositions


class TestTraceCommand:
    def test_scheduled_workload(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        chrome_path = tmp_path / "c.json"
        assert main([
            "trace", "kernel1",
            "--trace-out", str(out_path),
            "--chrome-out", str(chrome_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "filter.verdict" in out
        assert "ii.found" in out
        assert "SLMS:    applied" in out
        trace = json.loads(out_path.read_text())
        assert validate_trace(trace) == []
        chrome = json.loads(chrome_path.read_text())
        assert chrome["traceEvents"]

    def test_declined_workload(self, capsys):
        assert main(["trace", "idamax"]) == 0
        out = capsys.readouterr().out
        assert "slms.decline" in out
        assert "§4 bad case" in out
        assert "declined" in out

    def test_json_mode(self, capsys):
        assert main(["trace", "daxpy", "--json", "--no-verify"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "daxpy"
        assert validate_trace(data["trace"]) == []
        assert data["metrics"]["counters"]["sim.runs"] == 3
