"""Integration tests: every worked example in the paper, end to end.

Each test takes a loop straight from the paper, runs the relevant
machinery, checks the *structural* claims the paper makes (II values,
kernel shapes, decomposition choices) and verifies semantics against
the interpreter oracle.
"""


from repro import SLMSOptions, slms, to_source
from repro.lang import parse_program, parse_stmt
from repro.sim.interp import run_program, state_equal


def check_equal(source, outcome, env=None, extra_ignore=()):
    base = run_program(parse_program(source), env=env)
    out = run_program(outcome.program, env=env)
    ignore = {n for r in outcome.loops for n in r.new_scalars}
    ignore |= set(extra_ignore)
    ignore |= {k for k in out if k not in base}
    assert state_equal(base, out, ignore=ignore)


class TestSection1DotProduct:
    """§1: the opening pipelining example."""

    SOURCE = """
    float A[40], B[40];
    float s = 0.0, t;
    for (i = 0; i < 40; i++) { A[i] = i; B[i] = 0.5; }
    for (i = 0; i < 40; i++) {
        t = A[i] * B[i];
        s = s + t;
    }
    """

    def test_pipelines_at_ii_1(self):
        outcome = slms(self.SOURCE)
        report = outcome.loops[-1]
        assert report.applied and report.ii == 1
        check_equal(self.SOURCE, outcome)

    def test_kernel_overlaps_iterations(self):
        outcome = slms(self.SOURCE)
        text = to_source(outcome.program, style="paper")
        # The kernel mixes S2_i with S1_{i+1}: an s-update and a t-load
        # of the next iteration on one row.
        assert "s = s + " in text and "|| " in text


class TestSection32Decomposition:
    """§3.2: A[i] = A[i-1] + A[i-2] + A[i+1] + A[i+2]."""

    SOURCE = """
    float A[64];
    for (i = 0; i < 64; i++) A[i] = 0.25 * i + 1.0;
    for (i = 2; i < 60; i++)
        A[i] = A[i-1] + A[i-2] + A[i+1] + A[i+2];
    """

    def test_one_decomposition_gives_ii_1(self):
        outcome = slms(self.SOURCE)
        report = outcome.loops[-1]
        assert report.applied
        assert report.decompositions == 1
        assert report.ii == 1
        check_equal(self.SOURCE, outcome)

    def test_hoists_the_read_ahead_load(self):
        outcome = slms(self.SOURCE, SLMSOptions(expansion="none"))
        text = to_source(outcome.program)
        # reg1 holds A[i+2+shift]: the read with no flow dep to the store.
        assert "reg1 = A[i + " in text


class TestSection33MVE:
    """§3.3: MVE unrolls the kernel twice with reg1/reg2."""

    SOURCE = """
    float a[64];
    for (i = 0; i < 64; i++) a[i] = 0.125 * i + 1.0;
    for (i = 2; i < 60; i++)
        a[i] = a[i-1] + a[i-2] + a[i+1] + a[i+2];
    """

    def test_two_rotating_registers(self):
        outcome = slms(self.SOURCE, SLMSOptions(expansion="mve"))
        report = outcome.loops[-1]
        assert report.applied and report.expansion == "mve"
        assert report.unroll == 2
        text = to_source(outcome.program)
        assert "reg1" in text and "reg2" in text
        check_equal(self.SOURCE, outcome)


class TestSection34ScalarExpansion:
    """§3.4: the same loop with a temp array instead of renaming."""

    SOURCE = TestSection33MVE.SOURCE

    def test_temp_array_version(self):
        outcome = slms(self.SOURCE, SLMSOptions(expansion="scalar"))
        report = outcome.loops[-1]
        assert report.applied and report.expansion == "scalar"
        text = to_source(outcome.program)
        assert "regArr" in text.replace("reg1Arr", "regArr")
        check_equal(self.SOURCE, outcome)


class TestSection5MaxLoop:
    """§5: the find-max loop with if-conversion + decomposition."""

    SOURCE = """
    float arr[50];
    float max;
    for (i = 0; i < 50; i++) arr[i] = (i * 37) % 50 + 0.5;
    max = arr[0];
    for (i = 0; i < 50; i++)
        if (max < arr[i]) max = arr[i];
    """

    def test_applies_with_force(self):
        outcome = slms(self.SOURCE, SLMSOptions(force=True))
        report = outcome.loops[-1]
        assert report.applied
        assert report.decompositions >= 1
        check_equal(self.SOURCE, outcome)

    def test_predicated_kernel(self):
        outcome = slms(self.SOURCE, SLMSOptions(force=True))
        text = to_source(outcome.program)
        assert "pred" in text


class TestSection5HydroLoop:
    """§5: the DU1/DU2/DU3 loop needs no decomposition and gets MII=1."""

    SOURCE = """
    float DU1[320], DU2[320], DU3[320], U1[320], U2[320], U3[320];
    for (i = 0; i < 320; i++) {
        U1[i] = 1.0 + 0.001 * i; U2[i] = 2.0 - 0.001 * i;
        U3[i] = 0.5 + 0.002 * i;
    }
    for (ky = 1; ky < 100; ky++) {
        DU1[ky] = U1[ky+1] - U1[ky-1];
        DU2[ky] = U2[ky+1] - U2[ky-1];
        DU3[ky] = U3[ky+1] - U3[ky-1];
        U1[ky+101] = U1[ky] + 2.0 * DU1[ky] + 2.0 * DU2[ky] + 2.0 * DU3[ky];
        U2[ky+101] = U2[ky] + 2.0 * DU1[ky] + 2.0 * DU2[ky] + 2.0 * DU3[ky];
        U3[ky+101] = U3[ky] + 2.0 * DU1[ky] + 2.0 * DU2[ky] + 2.0 * DU3[ky];
    }
    """

    def test_ii_1_no_decomposition(self):
        outcome = slms(self.SOURCE)
        report = outcome.loops[-1]
        assert report.applied
        assert report.ii == 1
        assert report.decompositions == 0
        assert report.n_mis == 6
        check_equal(self.SOURCE, outcome)


class TestSection6Interchange:
    """§6: interchange turns the j-carried nest into an SLMSable one."""

    SETUP = (
        "float X[16][16];\n"
        "float t;\n"
        "for (i = 0; i < 16; i++) { for (j = 0; j < 16; j++) "
        "{ X[i][j] = 0.1 * i + j; } }\n"
    )
    NEST = (
        "for (i = 0; i < 16; i++) { for (j = 0; j < 15; j++) "
        "{ t = X[i][j]; X[i][j+1] = t; } }"
    )

    def test_slms_declines_before_interchange(self):
        outcome = slms(self.SETUP + self.NEST, SLMSOptions(enable_filter=False))
        assert not outcome.loops[-1].applied

    def test_slms_applies_after_interchange(self):
        from repro.transforms import interchange

        swapped = interchange(parse_stmt(self.NEST))
        prog = parse_program(self.SETUP)
        prog.body.append(swapped)
        outcome = slms(prog, SLMSOptions(enable_filter=False))
        report = outcome.loops[-1]
        assert report.applied and report.ii == 1
        base = run_program(parse_program(self.SETUP + self.NEST))
        out = run_program(outcome.program)
        ignore = {n for r in outcome.loops for n in r.new_scalars} | {"t"}
        assert state_equal(base, out, ignore=ignore)


class TestSection6Fusion:
    """§6: the fused loop pipelines at a valid II."""

    SETUP = (
        "float A[64], B[64], C[64];\n"
        "float t, q;\n"
        "for (i = 0; i < 64; i++) { A[i] = 0.01 * i; B[i] = 1.0; "
        "C[i] = 0.5; }\n"
    )
    L1 = "for (i = 1; i < 40; i++) { t = A[i-1]; B[i] = B[i] + t; A[i] = t + B[i]; }"
    L2 = "for (i = 1; i < 40; i++) { q = C[i-1]; B[i] = B[i] + q; C[i] = q * B[i]; }"

    def test_fuse_then_slms(self):
        from repro.transforms import fuse

        fused = fuse(parse_stmt(self.L1), parse_stmt(self.L2))
        prog = parse_program(self.SETUP)
        prog.body.append(fused)
        outcome = slms(prog, SLMSOptions(enable_filter=False))
        report = outcome.loops[-1]
        assert report.applied
        assert report.n_mis == 6
        base = run_program(
            parse_program(self.SETUP + self.L1 + "\n" + self.L2)
        )
        out = run_program(outcome.program)
        ignore = {n for r in outcome.loops for n in r.new_scalars} | {"t", "q"}
        assert state_equal(base, out, ignore=ignore)


class TestSection8UserInteraction:
    """§8: moving lw++ turns II=2 into II=1."""

    SETUP = """
    float x[128], y[128];
    float temp = 100.0;
    int lw;
    for (i = 0; i < 128; i++) { x[i] = 0.01 * i; y[i] = 0.02 * i; }
    """
    BEFORE = """
    lw = 6;
    for (j = 4; j < 100; j = j + 2) {
        temp -= x[lw] * y[j];
        lw++;
    }
    """
    AFTER = """
    lw = 6;
    for (j = 4; j < 100; j = j + 2) {
        lw++;
        temp -= x[lw] * y[j];
    }
    """

    def test_original_gets_ii_2(self):
        outcome = slms(self.SETUP + self.BEFORE, SLMSOptions(enable_filter=False))
        report = outcome.loops[-1]
        assert report.applied and report.ii == 2
        check_equal(self.SETUP + self.BEFORE, outcome)

    def test_after_edit_gets_ii_1(self):
        outcome = slms(self.SETUP + self.AFTER, SLMSOptions(enable_filter=False))
        report = outcome.loops[-1]
        assert report.applied and report.ii == 1
        check_equal(self.SETUP + self.AFTER, outcome)


class TestSection92FmaLoop:
    """§9.2: the floating-point intensive X[k] loop."""

    SOURCE = """
    float X[300];
    for (i = 0; i < 300; i++) X[i] = 1.0 + 0.001 * i;
    for (k = 1; k < 250; k++) {
        X[k] = X[k-1] * X[k-1] * X[k-1] * X[k-1] * X[k-1] +
               X[k+1] * X[k+1] * X[k+1] * X[k+1] * X[k+1];
    }
    """

    def test_decomposes_and_unrolls_twice(self):
        outcome = slms(self.SOURCE)
        report = outcome.loops[-1]
        assert report.applied
        assert report.decompositions == 1
        assert report.unroll == 2  # the paper's reg1/reg2 form
        check_equal(self.SOURCE, outcome)


class TestSection4FilterExample:
    """§4: the swap loop is filtered at ratio 6/7."""

    SOURCE = """
    float X[40][40];
    float CT;
    for (k = 0; k < 40; k++) {
        CT = X[k][1];
        X[k][1] = X[k][2] * 2;
        X[k][2] = CT;
    }
    """

    def test_filtered(self):
        outcome = slms(self.SOURCE)
        report = outcome.loops[-1]
        assert not report.applied
        assert report.filter_verdict is not None
        assert abs(report.filter_verdict.memory_ref_ratio - 6 / 7) < 1e-9


class TestFigure8MII:
    """Fig. 8: the two-cycle DDG where MII is 2, not 1."""

    def test_mii_2(self):
        from repro.analysis.ddg import Dependence, DependenceGraph
        from repro.analysis.delays import edge_delay
        from repro.core.mii import pmii_difmin
        from tests.reference_graphs import pmii_cycle_ratio

        g = DependenceGraph(n=4)
        for kind, src, dst, dist in [
            ("flow", 0, 1, 0),
            ("flow", 1, 2, 2),
            ("flow", 2, 3, 0),
            ("flow", 3, 0, 2),
            ("flow", 1, 3, 0),
        ]:
            g.add(
                Dependence(
                    kind=kind, src=src, dst=dst, var="v",
                    distance=dist, delay=edge_delay(src, dst),
                )
            )
        assert pmii_cycle_ratio(g) == 2
        assert pmii_difmin(g) == 2


class TestSection7IMSLimitations:
    """§7: machine-level MS failure modes SLMS sidesteps."""

    def test_loop_size_restriction(self):
        # Point 1: "compilers restrict MS to small size loops".
        from repro.backend.compiler import FinalCompiler
        from repro.machines import itanium2

        stmts = "".join(f"A[i] = A[i] + {k}.5;\n" for k in range(20))
        src = f"float A[64]; for (i = 0; i < 64; i++) {{ {stmts} }}"
        compiled = FinalCompiler(itanium2(), "icc_O3").compile(src)
        assert any(
            not r.attempted and "too large" in r.reason
            for r in compiled.ims_reports
        )

    def test_register_pressure_abort(self):
        # Fig. 11: long-latency producers force MaxLive past the file.
        import dataclasses

        from repro.backend.compiler import FinalCompiler
        from repro.machines import itanium2

        tiny = dataclasses.replace(itanium2(), num_registers=8)
        src = (
            "float A[64], B[64];"
            "for (i = 0; i < 64; i++) "
            "A[i] = B[i] * 1.5 + B[i+1] * 2.5 + B[i+2] * 3.5;"
        )
        compiled = FinalCompiler(tiny, "icc_O3").compile(src)
        assert not compiled.ims_applied
