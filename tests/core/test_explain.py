"""Tests for the SLC diagnostics (explain / MS table / DOT export)."""

import pytest

from repro import SLMSOptions, slms
from repro.core.explain import ddg_to_dot, explain, render_ms_table
from repro.lang import parse_stmt


def loop_and_report(source, options=None):
    report = slms(source, options).loops[-1]
    return report.loop, report


DOT_SOURCE = """
float A[64];
for (i = 0; i < 64; i++) A[i] = 0.25 * i + 1.0;
for (i = 2; i < 60; i++)
    A[i] = A[i-1] + A[i-2] + A[i+1] + A[i+2];
"""


class TestExplain:
    def test_applied_report_contents(self):
        loop, report = loop_and_report(DOT_SOURCE)
        text = explain(loop, report)
        assert "APPLIED" in text
        assert "II=1" in text
        assert "MI0: reg1 = A[i + 2];" in text
        assert "loop-carried" in text
        assert "Fig. 1 view" in text
        assert "<- kernel" in text

    def test_declined_report(self):
        loop, report = loop_and_report(
            "float A[8], B[8]; for (i = 0; i < 8; i++) A[i] = B[i];"
        )
        text = explain(loop, report)
        assert "DECLINED" in text
        assert "memory-ref ratio" in text

    def test_filter_numbers_shown(self):
        loop, report = loop_and_report(DOT_SOURCE)
        text = explain(loop, report)
        assert "memory-ref ratio 0.625" in text

    def test_binding_edge_reported_when_ii_above_1(self):
        source = """
        float x[128], y[128];
        float temp = 100.0;
        int lw;
        lw = 6;
        for (j = 4; j < 100; j = j + 2) {
            temp -= x[lw] * y[j];
            lw++;
        }
        """
        loop, report = loop_and_report(
            source, SLMSOptions(enable_filter=False)
        )
        assert report.ii == 2
        text = explain(loop, report)
        assert "II = 1 fails" in text

    def test_binding_edge_survives_a_parallel_twin(self):
        """The anti edge MI2 -> MI0 at distance 1 binds at II 1; its
        distance-8 twin of the same kind has slack to spare and must not
        hide it."""
        source = """
        int A[33];
        int t = 8;
        for (i = 0; i < 23; i++) {
            A[i + 1] = 4 * 7 % 7 % 8191;
            t = 0 * 2 % 8191;
            A[i + 3] = (-A[i + 35] + (A[i + 9] + A[i + 2]) / 2) % 8191;
        }
        """
        loop, report = loop_and_report(source)
        anti = [
            e.distance for e in report.ddg.edges
            if (e.kind, e.src, e.dst) == ("anti", 2, 0)
        ]
        assert report.ii == 2 and sorted(anti) == [1, 8]
        text = explain(loop, report)
        assert (
            "II = 1 fails: anti dependence MI2 -> MI0 violates its slack"
            in text
        )


class TestMSTable:
    def test_figure1_shape(self):
        mis = [
            parse_stmt(f"S{k}[i] = 0.0;") for k in range(6)
        ]
        table = render_ms_table(mis, ii=2, iterations=4)
        lines = table.splitlines()
        # header + separator + (iterations-1)*II + n rows
        assert len(lines) == 2 + 3 * 2 + 6
        # Row 4 holds S4(i), S2(i+1), S0(i+2) — the Fig. 1 kernel row.
        kernel_row = lines[2 + 4]
        assert "S4[i]" in kernel_row and "S2[i]" in kernel_row
        assert "<- kernel" in kernel_row

    def test_single_mi_ii1(self):
        table = render_ms_table([parse_stmt("A[i] = 0.0;")], ii=1, iterations=3)
        assert table.count("A[i] = 0.0;") == 3

    def test_bad_ii_rejected(self):
        with pytest.raises(ValueError):
            render_ms_table([parse_stmt("x = 1;")], ii=0)


class TestDot:
    def test_dot_structure(self):
        loop, report = loop_and_report(DOT_SOURCE)
        dot = ddg_to_dot(report.ddg, report.final_mis)
        assert dot.startswith("digraph ddg {")
        assert dot.rstrip().endswith("}")
        assert "mi0 -> mi1" in dot or "mi1 -> mi0" in dot
        assert "style=dashed" in dot  # anti edges present

    def test_dot_without_labels(self):
        loop, report = loop_and_report(DOT_SOURCE)
        dot = ddg_to_dot(report.ddg)
        assert 'label="MI0"' in dot


class TestCLIExplain:
    def test_cli_explain(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "loop.c"
        path.write_text(DOT_SOURCE)
        assert main(["explain", str(path)]) == 0
        out = capsys.readouterr().out
        assert "APPLIED" in out
        assert "loop 0" in out

    def test_cli_explain_pairs_sibling_loops_in_source_order(
        self, tmp_path, capsys
    ):
        """Each loop's header sits over its own report: with two
        top-level loops, loop 0 is the ``i`` loop and loop 1 the ``j``
        loop."""
        from repro.cli import main

        path = tmp_path / "two.c"
        path.write_text(
            "float A[32], B[32], C[32];\n"
            "float s = 0.0;\n"
            "for (i = 0; i < 32; i++) A[i] = B[i] * 2.0 + C[i];\n"
            "for (j = 0; j < 32; j++) s = s + A[j];\n"
        )
        assert main(["explain", str(path)]) == 0
        out = capsys.readouterr().out
        first, second = out.split("===== loop 1 =====")
        assert first.startswith("===== loop 0 =====")
        assert "loop: for (i = 0; i < 32; i++)" in first
        assert "MI1: A[i] = B[i] * 2.0 + reg1;" in first
        assert "[j]" not in first
        assert "loop: for (j = 0; j < 32; j++)" in second
        assert "MI1: s = s + reg4;" in second
        assert "[i]" not in second

    def test_cli_explain_dot(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "loop.c"
        path.write_text(DOT_SOURCE)
        main(["explain", str(path), "--dot"])
        assert "digraph ddg" in capsys.readouterr().out
