"""Unit tests for dependence graph construction."""

from repro.analysis.ddg import build_ddg
from repro.analysis.loopinfo import LoopInfo
from repro.lang import parse_stmt


def ddg_of(source):
    loop = parse_stmt(source)
    info = LoopInfo.from_for(loop)
    assert info is not None
    return build_ddg(loop.body, info)


def find(graph, kind, src, dst, var, distance):
    return any(
        e.kind == kind
        and e.src == src
        and e.dst == dst
        and e.var == var
        and e.distance == distance
        for e in graph.edges
    )


class TestArrayEdges:
    def test_recurrence_self_flow(self):
        g = ddg_of("for (i = 1; i < 100; i++) { A[i] = A[i-1] + 1; }")
        assert find(g, "flow", 0, 0, "A", 1)
        assert g.precise

    def test_flow_between_mis(self):
        g = ddg_of(
            "for (i = 1; i < 100; i++) { A[i] = B[i]; C[i] = A[i-1]; }"
        )
        assert find(g, "flow", 0, 1, "A", 1)

    def test_intra_iteration_flow(self):
        g = ddg_of("for (i = 0; i < 100; i++) { A[i] = B[i]; C[i] = A[i]; }")
        assert find(g, "flow", 0, 1, "A", 0)

    def test_read_ahead_anti(self):
        # A[i+2] read in MI0, A[i] written in MI0: anti distance 2 self.
        g = ddg_of("for (i = 0; i < 98; i++) { A[i] = A[i+2]; }")
        assert find(g, "anti", 0, 0, "A", 2)

    def test_backward_positioned_flow(self):
        # Store in MI1 feeds the read in MI0 of the *next* iteration.
        g = ddg_of(
            "for (i = 1; i < 100; i++) { t = A[i-1]; A[i] = B[i]; }"
        )
        assert find(g, "flow", 1, 0, "A", 1)

    def test_independent_arrays_no_edges(self):
        g = ddg_of("for (i = 0; i < 100; i++) { A[i] = 1; B[i] = 2; }")
        assert g.edges == []

    def test_ziv_conflict_both_directions(self):
        g = ddg_of("for (i = 0; i < 100; i++) { A[0] = B[i]; C[i] = A[0]; }")
        assert find(g, "flow", 0, 1, "A", 0)
        assert find(g, "anti", 1, 0, "A", 1)

    def test_output_dependence(self):
        g = ddg_of("for (i = 1; i < 100; i++) { A[i] = 1; A[i-1] = 2; }")
        assert find(g, "output", 0, 1, "A", 1)

    def test_two_distance_pairs_both_present(self):
        # §3.6: B[i] = A[i-2] + A[i-3] has two distances to A[i] = ...
        g = ddg_of(
            "for (i = 3; i < 100; i++) { A[i] = B[i-1]; B[i] = A[i-2] + A[i-3]; }"
        )
        assert find(g, "flow", 0, 1, "A", 2)
        assert find(g, "flow", 0, 1, "A", 3)

    def test_delays_follow_positions(self):
        g = ddg_of(
            "for (i = 1; i < 100; i++) { A[i] = B[i]; x = 1.0; C[i] = A[i-1]; }"
        )
        edges = [e for e in g.edges if e.var == "A" and e.src == 0 and e.dst == 2]
        assert edges and all(e.delay == 2 for e in edges)

    def test_back_edge_delay_one(self):
        g = ddg_of(
            "for (i = 1; i < 100; i++) { t = A[i-1]; A[i] = B[i]; }"
        )
        edges = [e for e in g.edges if e.var == "A" and e.src == 1 and e.dst == 0]
        assert edges and all(e.delay == 1 for e in edges)


class TestImprecision:
    def test_non_affine_subscript_marks_imprecise(self):
        g = ddg_of("for (i = 0; i < 100; i++) { A[B[i]] = 1.0; A[i] = 2.0; }")
        assert not g.precise
        assert any("non-affine" in r for r in g.reasons)

    def test_call_marks_imprecise(self):
        g = ddg_of("for (i = 0; i < 100; i++) { A[i] = f(i); }")
        assert not g.precise

    def test_unknown_distance_marks_imprecise(self):
        g = ddg_of("for (i = 0; i < 100; i++) { A[i] = 1.0; x = A[j]; }")
        assert not g.precise

    def test_refuted_symbolic_stays_precise(self):
        # A[i] vs A[i+n] with 0 <= i < 100 and unknown n: cannot refute,
        # so imprecise; but A[2i] vs A[2i+1] is refuted by parity.
        g = ddg_of("for (i = 0; i < 50; i++) { A[2*i] = A[2*i+1]; }")
        assert g.precise
        assert g.edges == []


class TestGraphQueries:
    def test_loop_carried_filter(self):
        g = ddg_of(
            "for (i = 1; i < 100; i++) { A[i] = A[i-1]; B[i] = A[i]; }"
        )
        carried = g.loop_carried()
        assert all(e.distance >= 1 for e in carried)
        assert any(e.var == "A" for e in carried)

    def test_dominant_edges_pick_min_distance(self):
        g = ddg_of(
            "for (i = 3; i < 100; i++) { A[i] = 1.0; B[i] = A[i-2] + A[i-3]; }"
        )
        dom = g.dominant_edges()
        assert dom[(0, 1)][1] == 2  # min distance among {2, 3}

    def test_self_edges(self):
        g = ddg_of("for (i = 1; i < 100; i++) { A[i] = A[i-1]; }")
        assert g.self_edges(0)


class TestCompoundAndPredicated:
    def test_compound_array_assign(self):
        g = ddg_of("for (i = 1; i < 100; i++) { A[i] += A[i-1]; }")
        assert find(g, "flow", 0, 0, "A", 1)

    def test_predicated_mi_accesses_counted(self):
        g = ddg_of(
            "for (i = 1; i < 100; i++) { if (c) A[i] = 1.0; B[i] = A[i-1]; }"
        )
        assert find(g, "flow", 0, 1, "A", 1)
