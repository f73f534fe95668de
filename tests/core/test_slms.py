"""Driver-level tests for the full SLMS algorithm (§5)."""

import pytest

from repro import SLMSOptions, slms, slms_loop, to_source
from repro.lang import parse_program
from repro.sim.interp import run_program, state_equal


def check_equivalent(source, options=None, env=None):
    """Transform, run both versions, compare state; return reports."""
    outcome = slms(source, options)
    a = run_program(parse_program(source), env=env)
    b = run_program(outcome.program, env=env)
    ignore = {n for r in outcome.loops for n in r.new_scalars}
    ignore |= {
        p.array
        for r in outcome.loops
        if r.applied and r.expansion == "scalar"
        for p in []
    }
    # Scalar-expansion temp arrays end in "Arr" by construction.
    ignore |= {k for k in b if k.endswith("Arr") and k not in a}
    assert state_equal(a, b, ignore=ignore), source
    return outcome


class TestApplication:
    def test_dot_product_pipelines_at_ii_1(self):
        outcome = check_equivalent(
            """
            float A[32], B[32];
            float s = 0.0, t;
            for (i = 0; i < 32; i++) { t = A[i] * B[i]; s = s + t; }
            """
        )
        report = outcome.loops[0]
        assert report.applied
        assert report.ii == 1
        assert report.expansion == "mve"

    def test_recurrence_needs_decomposition(self):
        outcome = check_equivalent(
            """
            float A[64];
            for (i = 0; i < 64; i++) A[i] = 1.0 + i;
            for (i = 2; i < 60; i++)
                A[i] = A[i-1] + A[i-2] + A[i+1] + A[i+2];
            """
        )
        report = outcome.loops[-1]
        assert report.applied
        assert report.decompositions == 1
        assert report.ii == 1

    def test_no_dependence_loop_ii_1_no_mve(self):
        outcome = check_equivalent(
            """
            float A[40], B[40], C[40];
            for (i = 1; i < 30; i++) {
                A[i] = A[i] + 1.0;
                B[i] = B[i] * 2.0;
                C[i] = C[i] - 1.0;
            }
            """,
            options=SLMSOptions(enable_filter=False),
        )
        report = outcome.loops[0]
        assert report.applied
        assert report.ii == 1
        assert report.expansion in ("none", "mve")

    def test_scalar_expansion_mode(self):
        outcome = check_equivalent(
            """
            float A[64], B[64];
            for (i = 0; i < 64; i++) A[i] = i * 0.5;
            for (i = 2; i < 60; i++)
                A[i] = A[i-1] + A[i-2] + A[i+1] + A[i+2];
            """,
            options=SLMSOptions(expansion="scalar"),
        )
        report = outcome.loops[-1]
        assert report.applied
        assert report.expansion == "scalar"

    def test_expansion_none_still_correct(self):
        outcome = check_equivalent(
            """
            float A[64], B[64];
            float t;
            for (i = 0; i < 64; i++) B[i] = i;
            for (i = 0; i < 60; i++) { t = B[i+2]; A[i] = t * 2.0; }
            """,
            options=SLMSOptions(expansion="none"),
        )
        report = outcome.loops[-1]
        assert report.applied
        assert report.expansion == "none"

    def test_symbolic_bounds_get_guard(self):
        source = """
        float A[64], B[64];
        for (i = 0; i < n; i++) { A[i] = B[i] + 1.0; B[i] = A[i] * 0.5; }
        """
        for n in [0, 1, 2, 5, 64]:
            check_equivalent(
                source,
                options=SLMSOptions(enable_filter=False),
                env={"n": n},
            )

    def test_predicated_loop_with_force(self):
        outcome = check_equivalent(
            """
            float arr[40];
            float max;
            arr[7] = 9.5;
            max = arr[0];
            for (i = 0; i < 40; i++)
                if (max < arr[i]) max = arr[i];
            """,
            options=SLMSOptions(force=True),
        )
        report = outcome.loops[0]
        assert report.applied
        assert report.decompositions >= 1


class TestDeclines:
    def run(self, source, options=None):
        outcome = slms(source, options)
        return outcome.loops[0]

    def test_memory_bound_loop_filtered(self):
        report = self.run(
            """
            float X[40][40];
            float CT;
            for (k = 0; k < 40; k++) {
                CT = X[k][1];
                X[k][1] = X[k][2] * 2;
                X[k][2] = CT;
            }
            """
        )
        assert not report.applied
        assert "memory-ref ratio" in report.reason

    def test_force_overrides_filter(self):
        report = self.run(
            "float A[40], B[40]; for (i = 0; i < 40; i++) "
            "{ A[i] = B[i]; B[i] = A[i]; }",
            SLMSOptions(force=True),
        )
        assert report.applied

    def test_non_canonical_loop_declined(self):
        report = self.run(
            "float A[40]; for (i = 0; A[i] < 10.0; i++) A[i] = 1.0;"
        )
        assert not report.applied
        assert "canonical" in report.reason

    def test_non_affine_subscript_declined(self):
        report = self.run(
            "float A[40]; int B[40]; for (i = 0; i < 6; i++) "
            "{ A[B[i]] = 1.0; A[i] = A[i] + 2.0; }",
            SLMSOptions(enable_filter=False),
        )
        assert not report.applied
        assert "imprecise" in report.reason

    def test_call_declined(self):
        report = self.run(
            "float A[40]; for (i = 0; i < 40; i++) "
            "{ A[i] = f(i); A[i] = A[i] + 1.0; }",
            SLMSOptions(enable_filter=False),
        )
        assert not report.applied

    def test_undecomposable_recurrence_declined(self):
        # A[i] = A[i-1]*2: the only read has a flow dep with the store.
        report = self.run(
            "float A[40]; for (i = 1; i < 40; i++) A[i] = A[i-1] * 2.0;",
            SLMSOptions(enable_filter=False),
        )
        assert not report.applied

    def test_short_trip_declined(self):
        report = self.run(
            "float A[8], B[8]; for (i = 0; i < 1; i++) "
            "{ A[i] = B[i] * 2.0; B[i] = A[i] + 1.0; }",
            SLMSOptions(enable_filter=False),
        )
        assert not report.applied

    def test_break_declined(self):
        report = self.run(
            "float A[40]; for (i = 0; i < 40; i++) "
            "{ A[i] = A[i] + 1.0; if (i > 3) break; }",
            SLMSOptions(enable_filter=False),
        )
        assert not report.applied


class TestNestedLoops:
    def test_inner_loop_transformed(self):
        source = """
        float X[10][20], Y[20];
        for (j = 0; j < 10; j++) {
            for (i = 1; i < 18; i++) {
                X[j][i] = X[j][i+1] + 1.0;
                Y[i] = X[j][i] * 2.0;
            }
        }
        """
        outcome = check_equivalent(
            source, options=SLMSOptions(enable_filter=False)
        )
        assert any(r.applied for r in outcome.loops)

    def test_outer_loop_untouched(self):
        source = """
        float X[6][6];
        for (j = 0; j < 6; j++) {
            for (i = 0; i < 6; i++) {
                X[j][i] = 1.0;
            }
        }
        """
        outcome = slms(source, SLMSOptions(enable_filter=False))
        # Inner loop has one MI -> needs decomposition; the only read
        # is none (constant RHS), so it declines; outer is skipped.
        assert len(outcome.loops) == 1


class TestReporting:
    def test_report_fields_populated(self):
        _, report = slms_loop(
            """
            float A[32], B[32];
            float t, s = 0.0;
            for (i = 0; i < 32; i++) { t = A[i] * B[i]; s = s + t; }
            """
        )
        assert report.n_mis == 2
        assert report.stages == 2
        assert report.pmii is None or report.pmii >= 1
        assert report.filter_verdict is not None
        assert report.ddg is not None

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SLMSOptions(expansion="bogus")
        SLMSOptions(reduction_lanes=64)
        for lanes in (65, -1):
            with pytest.raises(ValueError,
                               match=f"from 0 to 64, got {lanes}"):
                SLMSOptions(reduction_lanes=lanes)

    def test_no_loop_raises(self):
        with pytest.raises(ValueError):
            slms_loop("x = 1;")

    def test_input_program_not_mutated(self):
        source = """
        float A[32], B[32];
        float t, s = 0.0;
        for (i = 0; i < 32; i++) { t = A[i] * B[i]; s = s + t; }
        """
        prog = parse_program(source)
        before = to_source(prog)
        slms(prog)
        assert to_source(prog) == before


class TestParallelismExposed:
    def test_kernel_contains_pargroups(self):
        transformed, report = slms_loop(
            """
            float A[32], B[32];
            float t, s = 0.0;
            for (i = 0; i < 32; i++) { t = A[i] * B[i]; s = s + t; }
            """
        )
        assert report.applied
        text = to_source(transformed, style="paper")
        assert "||" in text
