"""Unit tests for fusion, interchange, distribution, reversal, peel, tiling."""

import pytest

from repro.lang import parse_program, parse_stmt, to_source
from repro.lang.ast_nodes import For
from repro.sim.interp import run_program, state_equal
from repro.transforms import (
    TransformError,
    can_fuse,
    distribute,
    fuse,
    interchange,
    peel,
    reverse,
    strip_mine,
    tile,
)

INIT = (
    "float A[40], B[40], C[40], X[12][12], Y[12][12];\n"
    "float t = 0.0, q = 0.0;\n"
    "for (i = 0; i < 40; i++) { A[i] = i * 0.5 + 1.0; B[i] = 40 - i; }\n"
    "for (i = 0; i < 12; i++) { for (j = 0; j < 12; j++) "
    "{ X[i][j] = i * 12 + j; } }\n"
)


def run_with(stmts_src_or_list, env=None):
    prog = parse_program(INIT)
    if isinstance(stmts_src_or_list, str):
        prog.body.extend(parse_program(stmts_src_or_list).body)
    else:
        prog.body.extend(stmts_src_or_list)
    return run_program(prog, env=env)


class TestFusion:
    def test_paper_fusable_pair(self):
        # §6: two loops with identical recurrences fuse into one.
        l1 = parse_stmt(
            "for (i = 1; i < 30; i++) { t = A[i-1]; B[i] = B[i] + t; A[i] = t + B[i]; }"
        )
        l2 = parse_stmt(
            "for (i = 1; i < 30; i++) { q = C[i-1]; B[i] = B[i] + q; C[i] = q * B[i]; }"
        )
        ok, reason = can_fuse(l1, l2)
        assert ok, reason
        fused = fuse(l1, l2)
        base = run_with(to_source(l1) + "\n" + to_source(l2))
        out = run_with([fused])
        assert state_equal(base, out)
        assert len(fused.body) == 6

    def test_negative_distance_blocks_fusion(self):
        # L2 reads A[i+1]: fused iteration i would read before L1 writes it.
        l1 = parse_stmt("for (i = 0; i < 30; i++) { A[i] = B[i] * 2.0; }")
        l2 = parse_stmt("for (i = 0; i < 30; i++) { C[i] = A[i+1]; }")
        ok, reason = can_fuse(l1, l2)
        assert not ok
        assert "fusion-preventing" in reason
        with pytest.raises(TransformError):
            fuse(l1, l2)

    def test_forward_distance_allows_fusion(self):
        l1 = parse_stmt("for (i = 1; i < 30; i++) { A[i] = B[i] * 2.0; }")
        l2 = parse_stmt("for (i = 1; i < 30; i++) { C[i] = A[i-1]; }")
        ok, reason = can_fuse(l1, l2)
        assert ok, reason
        fused = fuse(l1, l2)
        base = run_with(to_source(l1) + "\n" + to_source(l2))
        assert state_equal(base, run_with([fused]))

    def test_different_variable_names_renamed(self):
        l1 = parse_stmt("for (i = 0; i < 30; i++) { A[i] = A[i] + 1.0; }")
        l2 = parse_stmt("for (k = 0; k < 30; k++) { B[k] = B[k] * 2.0; }")
        fused = fuse(l1, l2)
        base = run_with(to_source(l1) + "\n" + to_source(l2))
        out = run_with([fused])
        # k is never assigned in the fused version.
        assert state_equal(base, out, ignore={"k"})

    def test_header_mismatch(self):
        l1 = parse_stmt("for (i = 0; i < 30; i++) { A[i] = 1.0; }")
        l2 = parse_stmt("for (i = 0; i < 20; i++) { B[i] = 1.0; }")
        assert not can_fuse(l1, l2)[0]

    def test_scalar_coupling_blocks(self):
        l1 = parse_stmt("for (i = 0; i < 30; i++) { t = A[i]; B[i] = t; }")
        l2 = parse_stmt("for (i = 0; i < 30; i++) { C[i] = t; }")
        ok, reason = can_fuse(l1, l2)
        assert not ok
        assert "scalar" in reason


class TestInterchange:
    def test_paper_interchange_example(self):
        # §6: for j { for i { t = a[i,j]; a[i,j+1] = t; } }
        nest = parse_stmt(
            "for (j = 0; j < 11; j++) { for (i = 0; i < 12; i++) "
            "{ t = X[i][j]; X[i][j+1] = t; } }"
        )
        swapped = interchange(nest)
        assert isinstance(swapped, For)
        assert to_source(swapped.init) == "i = 0;"
        base = run_with([nest.clone()])
        out = run_with([swapped])
        assert state_equal(base, out)

    def test_independent_nest_interchanges(self):
        nest = parse_stmt(
            "for (j = 0; j < 12; j++) { for (i = 0; i < 12; i++) "
            "{ Y[j][i] = X[j][i] * 2.0; } }"
        )
        swapped = interchange(nest)
        base = run_with([nest.clone()])
        assert state_equal(base, run_with([swapped]))

    def test_plus_minus_vector_blocks(self):
        # X[j][i] = X[j-1][i+1]: dependence vector (1, -1).
        nest = parse_stmt(
            "for (j = 1; j < 12; j++) { for (i = 0; i < 11; i++) "
            "{ X[j][i] = X[j-1][i+1] + 1.0; } }"
        )
        with pytest.raises(TransformError):
            interchange(nest)

    def test_plus_plus_vector_allows(self):
        nest = parse_stmt(
            "for (j = 1; j < 12; j++) { for (i = 1; i < 12; i++) "
            "{ X[j][i] = X[j-1][i-1] + 1.0; } }"
        )
        swapped = interchange(nest)
        base = run_with([nest.clone()])
        assert state_equal(base, run_with([swapped]))

    def test_imperfect_nest_rejected(self):
        nest = parse_stmt(
            "for (j = 0; j < 12; j++) { t = 0.0; for (i = 0; i < 12; i++) "
            "{ X[j][i] = t; } }"
        )
        with pytest.raises(TransformError):
            interchange(nest)

    def test_non_rectangular_rejected(self):
        nest = parse_stmt(
            "for (j = 0; j < 12; j++) { for (i = 0; i < j; i++) "
            "{ X[j][i] = 1.0; } }"
        )
        with pytest.raises(TransformError):
            interchange(nest)

    def test_carried_scalar_rejected(self):
        nest = parse_stmt(
            "for (j = 0; j < 12; j++) { for (i = 0; i < 12; i++) "
            "{ t = t + X[j][i]; } }"
        )
        with pytest.raises(TransformError):
            interchange(nest)


class TestDistribution:
    def test_independent_statements_split(self):
        loop = parse_stmt(
            "for (i = 0; i < 30; i++) { A[i] = A[i] + 1.0; B[i] = B[i] * 2.0; }"
        )
        loops = distribute(loop)
        assert len(loops) == 2
        base = run_with([loop.clone()])
        assert state_equal(base, run_with(list(loops)))

    @pytest.mark.parametrize(
        "body",
        [
            "C[i] = B[i]; A[i] = C[i] + 1.0;",
            # C[i] feeds the next iteration's A[i] = C[i-1]: the C loop
            # runs first although it comes second in the source.
            "A[i] = C[i-1]; C[i] = B[i];",
        ],
        ids=["in-source-order", "against-source-order"],
    )
    def test_dependent_statements_ordered(self, body):
        loop = parse_stmt(f"for (i = 1; i < 30; i++) {{ {body} }}")
        loops = distribute(loop)
        assert len(loops) == 2
        assert to_source(loops[0].body[0]) == "C[i] = B[i];"
        base = run_with([loop.clone()])
        assert state_equal(base, run_with(list(loops)))

    def test_cycle_stays_together(self):
        loop = parse_stmt(
            "for (i = 1; i < 30; i++) { A[i] = C[i-1]; C[i] = A[i-1] + 1.0; "
            "B[i] = 2.0; }"
        )
        loops = distribute(loop)
        sizes = sorted(len(lp.body) for lp in loops)
        assert sizes == [1, 2]
        base = run_with([loop.clone()])
        assert state_equal(base, run_with(list(loops)))

    def test_loop_carried_anti_ordering(self):
        # B[i] = A[i+1] must run before A gets overwritten.
        loop = parse_stmt(
            "for (i = 0; i < 30; i++) { B[i] = A[i+1]; A[i] = 0.0; }"
        )
        loops = distribute(loop)
        base = run_with([loop.clone()])
        assert state_equal(base, run_with(list(loops)))

    def test_independent_statements_keep_source_order(self):
        # D[i] = 2.0 depends on nothing; it stays after C[i] = A[i].
        loop = parse_stmt(
            "for (i = 0; i < 30; i++) "
            "{ A[i] = B[i] + 1.0; C[i] = A[i]; D[i] = 2.0; }"
        )
        loops = distribute(loop)
        assert [to_source(lp.body[0]) for lp in loops] == [
            "A[i] = B[i] + 1.0;", "C[i] = A[i];", "D[i] = 2.0;",
        ]


class TestReversal:
    def test_independent_loop_reverses(self):
        loop = parse_stmt("for (i = 0; i < 30; i++) { A[i] = A[i] * 2.0; }")
        rev = reverse(loop)
        base = run_with([loop.clone()])
        out = run_with([rev])
        assert state_equal(base, out, ignore={"i"})

    def test_carried_dependence_blocks(self):
        loop = parse_stmt("for (i = 1; i < 30; i++) { A[i] = A[i-1]; }")
        with pytest.raises(TransformError):
            reverse(loop)

    def test_accumulator_blocks(self):
        loop = parse_stmt("for (i = 0; i < 30; i++) { t += A[i]; }")
        with pytest.raises(TransformError):
            reverse(loop)

    def test_symbolic_bound_step1(self):
        loop = parse_stmt("for (i = 0; i < n; i++) { A[i] = A[i] + 1.0; }")
        rev = reverse(loop)
        for n in (0, 1, 17):
            base = run_with([loop.clone()], env={"n": n})
            out = run_with([rev], env={"n": n})
            assert state_equal(base, out, ignore={"i"})


class TestPeel:
    def test_front_peel(self):
        loop = parse_stmt("for (i = 0; i < 10; i++) { A[i] = A[i] + 1.0; }")
        stmts = peel(loop, 2, "front")
        base = run_with([loop.clone()])
        assert state_equal(base, run_with(stmts))
        assert to_source(stmts[0]) == "A[0] = A[0] + 1.0;"

    def test_back_peel(self):
        loop = parse_stmt("for (i = 0; i < 10; i++) { A[i] = A[i] + 1.0; }")
        stmts = peel(loop, 3, "back")
        base = run_with([loop.clone()])
        assert state_equal(base, run_with(stmts))

    def test_peel_entire_loop(self):
        loop = parse_stmt("for (i = 0; i < 3; i++) { A[i] = 9.0; }")
        stmts = peel(loop, 5, "front")
        base = run_with([loop.clone()])
        assert state_equal(base, run_with(stmts))

    def test_recurrence_peeled(self):
        loop = parse_stmt("for (i = 1; i < 12; i++) { A[i] = A[i-1] + B[i]; }")
        for where in ("front", "back"):
            stmts = peel(loop, 2, where)
            base = run_with([loop.clone()])
            assert state_equal(base, run_with(stmts)), where

    def test_symbolic_bound_rejected(self):
        loop = parse_stmt("for (i = 0; i < n; i++) { A[i] = 1.0; }")
        with pytest.raises(TransformError):
            peel(loop, 1)


class TestTiling:
    def test_strip_mine_semantics(self):
        loop = parse_stmt("for (i = 0; i < 37; i++) { A[i] = A[i] + 1.0; }")
        stripped = strip_mine(loop, 8)
        base = run_with([loop.clone()])
        out = run_with([stripped])
        assert state_equal(base, out, ignore={"is"})

    def test_strip_mine_recurrence(self):
        loop = parse_stmt("for (i = 1; i < 30; i++) { A[i] = A[i-1] * 1.5; }")
        stripped = strip_mine(loop, 4)
        base = run_with([loop.clone()])
        assert state_equal(base, run_with([stripped]), ignore={"is"})

    def test_tile_semantics(self):
        nest = parse_stmt(
            "for (j = 0; j < 12; j++) { for (i = 0; i < 12; i++) "
            "{ Y[j][i] = X[j][i] + 1.0; } }"
        )
        tiled = tile(nest, 4)
        base = run_with([nest.clone()])
        out = run_with(tiled)
        assert state_equal(base, out, ignore={"is"})

    def test_tile_illegal_nest_rejected(self):
        nest = parse_stmt(
            "for (j = 1; j < 12; j++) { for (i = 0; i < 11; i++) "
            "{ X[j][i] = X[j-1][i+1]; } }"
        )
        with pytest.raises(TransformError):
            tile(nest, 4)


class TestTransformThenSLMS:
    def test_interchange_enables_slms(self):
        """§6: interchange turns a non-SLMSable inner loop into II=1."""
        from repro import SLMSOptions, slms

        # Paper orientation: inner loop over j carries the flow dep
        # t = a[i,j] -> a[i,j+1] into the next j iteration.
        source = (
            "for (i = 0; i < 12; i++) { for (j = 0; j < 11; j++) "
            "{ t = X[i][j]; X[i][j+1] = t; } }"
        )
        nest = parse_stmt(source)
        options = SLMSOptions(enable_filter=False)

        # Direct SLMS on the inner loop fails (flow dep through X).
        prog_before = parse_program(INIT + source)
        before = slms(prog_before, options)
        assert not before.loops[-1].applied

        # After interchange the inner loop pipelines.
        swapped = interchange(nest)
        prog = parse_program(INIT)
        prog.body.append(swapped)
        after = slms(prog, options)
        assert after.loops[-1].applied
        base = run_with([nest.clone()])
        out = run_program(after.program)
        ignore = {n for r in after.loops for n in r.new_scalars} | {"t"}
        assert state_equal(base, out, ignore=ignore)
