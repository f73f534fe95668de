"""Schedule validator tests: it must accept every correct schedule the
pipeline emits and reject deliberately corrupted ones."""

import copy

import pytest

from repro.core.pipeline import slms
from repro.core.slms import SLMSOptions
from repro.lang.ast_nodes import For, ParGroup
from repro.lang.parser import parse_program
from repro.lang.visitors import substitute_index, walk
from repro.verify.schedule import validate_result

SRC_PLAIN = """
float a[256]; float b[256]; float c[256];
for (i = 0; i < 200; i += 1) {
    a[i] = b[i] * 2.0;
    c[i] = a[i] + b[i];
}
"""

# Two MIs with a distance-2 flow dependence (a -> c, reused at i+2).
SRC_FLOW = """
float a[300]; float b[300]; float c[300];
for (i = 1; i < 200; i += 1) {
    a[i] = b[i] * 2.0 + c[i];
    c[i+2] = a[i] + b[i+1];
}
"""

# Three MIs whose valid II is 2: a flow edge with distance 1 whose
# source sits on a later row than its destination.
SRC_II2 = """
float a[300]; float b[300]; float c[300];
for (i = 1; i < 200; i += 1) {
    b[i] = a[i-1] + b[i];
    a[i] = b[i] * 0.5;
    c[i] = a[i] + 1.0;
}
"""

# The paper's §3.3 loop: decomposition + carried reuse forces MVE (or
# scalar expansion) renaming of the decomposition temporaries.
SRC_EXPANSION = """
float a[64];
for (i = 0; i < 64; i += 1) { a[i] = 0.125 * i + 1.0; }
for (i = 2; i < 60; i += 1) {
    a[i] = a[i-1] + a[i-2] + a[i+1] + a[i+2];
}
"""


def transform(source, which=0, **opts):
    """Run SLMS; return (result, original_loop) for attempt ``which``.

    Loops are paired in body order, matching the pipeline's traversal
    (``walk`` visits siblings in reverse, so it can't be used here).
    """
    program = parse_program(source)
    loops = [s for s in program.body if isinstance(s, For)]
    outcome = slms(program, SLMSOptions(**opts))
    assert outcome.loops, "no loop attempted"
    return outcome.loops[which], loops[which]


def corrupt_kernel_row(result, offset=1):
    """Shift the first kernel-row statement's subscripts by ``offset``
    iterations (substitute_index is functional: reassign the copy)."""
    for stmt in result.stmts:
        for node in walk(stmt):
            if isinstance(node, For):
                row = node.body[0]
                if isinstance(row, ParGroup):
                    row.stmts[0] = substitute_index(
                        row.stmts[0], "i", offset
                    )
                else:
                    node.body[0] = substitute_index(row, "i", offset)
                return
    raise AssertionError("no kernel loop in emitted statements")


# ---------------------------------------------------------------------------
# Acceptance: valid schedules pass with a full structural replay
# ---------------------------------------------------------------------------


def test_accepts_plain_schedule():
    result, loop = transform(SRC_PLAIN, enable_filter=False)
    assert result.applied
    report = validate_result(result, loop)
    assert report.ok
    assert report.structural
    assert report.matched > 0


def test_accepts_flow_dependence_schedule():
    result, loop = transform(SRC_FLOW, enable_filter=False)
    assert result.applied
    report = validate_result(result, loop)
    assert report.ok
    assert report.structural


def test_accepts_ii2_schedule():
    result, loop = transform(SRC_II2, enable_filter=False)
    assert result.applied
    assert result.ii == 2
    report = validate_result(result, loop)
    assert report.ok
    assert report.structural


def test_accepts_mve_schedule():
    result, loop = transform(SRC_EXPANSION, which=1, expansion="mve")
    assert result.applied
    assert result.expansion == "mve"
    assert result.new_scalars
    report = validate_result(result, loop)
    assert report.ok
    assert report.structural


def test_accepts_scalar_expansion_schedule():
    result, loop = transform(SRC_EXPANSION, which=1, expansion="scalar")
    assert result.applied
    assert result.expansion == "scalar"
    report = validate_result(result, loop)
    assert report.ok
    assert report.structural


def test_accepts_aliased_stores_in_emission_order():
    """``C[4] = 1.5`` is both MI2 of iteration 0 and MI1 of iteration 2.
    The replay must take the first emitted copy as MI2 (row 2), not MI1
    (row 5), or the distance-2 flow edge MI2 -> MI0 reads as use before
    def (a false V205)."""
    source = """
    float C[96];
    float s = 0.5;
    for (i = 2; i < 5; i += 1) {
        s = C[i];
        C[i] = 1.5;
        C[i + 2] = 1.5;
    }
    """
    result, loop = transform(source, enable_filter=False)
    assert result.applied and result.ii == 2
    report = validate_result(result, loop)
    assert report.structural
    assert report.ok, [d.format() for d in report.diagnostics]


def test_declined_result_is_trivially_ok():
    # A tight recurrence: declined with "no MI can be decomposed".
    result, loop = transform(
        "float a[256];\n"
        "for (i = 2; i < 200; i += 1) { a[i] = a[i-1] * 0.5 + a[i-2]; }",
        enable_filter=False,
    )
    assert not result.applied
    report = validate_result(result, loop)
    assert report.ok
    assert not report.structural


# ---------------------------------------------------------------------------
# Rejection: deliberate corruption must be caught
# ---------------------------------------------------------------------------


def test_rejects_stage_offset_corruption():
    """Shift one kernel-row statement by a whole iteration: the replay
    must see a hole (and an overshoot) in that MI's coverage."""
    result, loop = transform(SRC_FLOW, enable_filter=False)
    assert result.applied
    bad = copy.deepcopy(result)
    corrupt_kernel_row(bad)
    report = validate_result(bad, loop)
    assert not report.ok
    codes = {d.code for d in report.diagnostics}
    assert codes & {"V204", "V207"}


def test_rejects_lowered_ii():
    """Claim a smaller II than the dependences allow: the re-derived
    modulo constraint d*II + (sigma_dst - sigma_src) >= delta fails."""
    result, loop = transform(SRC_II2, enable_filter=False)
    assert result.applied and result.ii == 2
    bad = copy.deepcopy(result)
    bad.ii = 1
    bad.stages = 3
    report = validate_result(bad, loop)
    assert not report.ok
    assert any(d.code == "V201" for d in report.diagnostics)


def test_rejects_inconsistent_bookkeeping():
    result, loop = transform(SRC_PLAIN, enable_filter=False)
    bad = copy.deepcopy(result)
    bad.n_mis = 99
    report = validate_result(bad, loop)
    assert not report.ok
    assert any(d.code == "V202" for d in report.diagnostics)


def test_rejects_corruption_in_plain_schedule():
    result, loop = transform(SRC_PLAIN, enable_filter=False)
    assert result.applied
    bad = copy.deepcopy(result)
    corrupt_kernel_row(bad, offset=2)
    report = validate_result(bad, loop)
    assert not report.ok


# ---------------------------------------------------------------------------
# Graceful skips: out-of-scope results yield N208 notes, not errors
# ---------------------------------------------------------------------------


def test_symbolic_bounds_skip_structural_replay():
    result, loop = transform(
        "float a[256]; float b[256]; int n = 100;\n"
        "for (i = 0; i < n; i += 1) { a[i] = b[i] * 2.0; }",
        enable_filter=False,
    )
    if not result.applied:
        pytest.skip("symbolic-bound loop declined on this build")
    report = validate_result(result, loop)
    assert report.ok  # L1 constraints still checked, no errors
    assert not report.structural
    assert any(d.code == "N208" for d in report.diagnostics)


def test_reduction_lanes_skip_validation():
    result, loop = transform(
        "float a[256]; float s = 0.0;\n"
        "for (i = 0; i < 200; i += 1) { s = s + a[i]; }",
        enable_filter=False,
        reduction_lanes=4,
        allow_reassociation=True,
    )
    if result.lanes < 2:
        pytest.skip("lane splitting did not engage")
    report = validate_result(result, loop)
    assert report.ok
    assert any(d.code == "N208" for d in report.diagnostics)
