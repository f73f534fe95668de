"""Unit tests for MII computation: cycle ratio, difMin, valid-II search."""

import pytest

from repro.analysis.ddg import Dependence, DependenceGraph, build_ddg
from repro.analysis.delays import edge_delay
from repro.analysis.loopinfo import LoopInfo
from repro.core.mii import (
    difmin_feasible,
    find_valid_ii,
    identity_feasible,
    pmii_cycle_ratio,
    pmii_difmin,
)
from repro.lang import parse_stmt


def graph_from(edges, n):
    g = DependenceGraph(n=n)
    for kind, src, dst, distance in edges:
        g.add(
            Dependence(
                kind=kind,
                src=src,
                dst=dst,
                var="v",
                distance=distance,
                delay=edge_delay(src, dst),
            )
        )
    return g


def ddg_of(source):
    loop = parse_stmt(source)
    info = LoopInfo.from_for(loop)
    return build_ddg(loop.body, info)


class TestDelays:
    def test_self_delay(self):
        assert edge_delay(3, 3) == 1

    def test_consecutive_delay(self):
        assert edge_delay(2, 3) == 1

    def test_forward_delay_is_span(self):
        assert edge_delay(1, 4) == 3

    def test_back_edge_delay(self):
        assert edge_delay(4, 1) == 1


class TestCycleRatio:
    def test_acyclic_graph_has_no_pmii(self):
        g = graph_from([("flow", 0, 1, 0)], 2)
        assert pmii_cycle_ratio(g) is None

    def test_self_loop_distance_one(self):
        g = graph_from([("flow", 0, 0, 1)], 1)
        assert pmii_cycle_ratio(g) == 1

    def test_self_loop_distance_two(self):
        # delay 1 over distance 2: ratio ceil(1/2) = 1.
        g = graph_from([("flow", 0, 0, 2)], 1)
        assert pmii_cycle_ratio(g) == 1

    def test_two_node_cycle(self):
        # 0->1 (delay 1, d 0), 1->0 (delay 1, d 1): (1+1)/1 = 2.
        g = graph_from([("flow", 0, 1, 0), ("flow", 1, 0, 1)], 2)
        assert pmii_cycle_ratio(g) == 2

    def test_figure8_graph(self):
        # Paper Fig. 8: nodes c,d,e,f at positions 0..3.
        # C1 = c->d->e->f->c with distances 0,2,0,2 (delay 1 each): MII 1.
        # C2 = c->d->f->c with d->f forward delay 2, distances 0,0,2: MII 2.
        g = graph_from(
            [
                ("flow", 0, 1, 0),
                ("flow", 1, 2, 2),
                ("flow", 2, 3, 0),
                ("flow", 3, 0, 2),
                ("flow", 1, 3, 0),
            ],
            4,
        )
        assert pmii_cycle_ratio(g) == 2

    def test_zero_distance_cycle_rejected(self):
        g = graph_from([("flow", 0, 1, 0), ("flow", 1, 0, 0)], 2)
        with pytest.raises(ValueError):
            pmii_cycle_ratio(g)


class TestDifMin:
    def test_agrees_with_cycle_ratio_on_small_graphs(self):
        cases = [
            graph_from([("flow", 0, 0, 1)], 1),
            graph_from([("flow", 0, 1, 0), ("flow", 1, 0, 1)], 2),
            graph_from(
                [
                    ("flow", 0, 1, 0),
                    ("flow", 1, 2, 2),
                    ("flow", 2, 3, 0),
                    ("flow", 3, 0, 2),
                    ("flow", 1, 3, 0),
                ],
                4,
            ),
            graph_from(
                [("flow", 0, 2, 0), ("flow", 2, 0, 3), ("anti", 1, 1, 1)], 3
            ),
        ]
        for g in cases:
            ratio = pmii_cycle_ratio(g)
            difmin = pmii_difmin(g)
            assert difmin == (ratio if ratio is not None else 1)

    def test_feasibility_monotone_in_ii(self):
        g = graph_from([("flow", 0, 1, 0), ("flow", 1, 0, 1)], 2)
        feasible = [difmin_feasible(g, ii) for ii in range(1, 5)]
        # Once feasible, stays feasible.
        first = feasible.index(True)
        assert all(feasible[first:])

    def test_infeasible_below_pmii(self):
        g = graph_from([("flow", 0, 1, 0), ("flow", 1, 0, 1)], 2)
        assert not difmin_feasible(g, 1)
        assert difmin_feasible(g, 2)


class TestValidII:
    def test_no_edges_gives_ii_1(self):
        g = graph_from([], 3)
        assert find_valid_ii(g, 3) == 1

    def test_dot_product_ii_1(self):
        # t = A[i]*B[i]; s = s + t; — anti back edge allows II=1.
        g = ddg_of(
            "for (i = 0; i < 100; i++) { t = A[i] * B[i]; s = s + t; }"
        )
        assert find_valid_ii(g, 2) == 1

    def test_flow_back_edge_forces_larger_ii(self):
        # Value defined in MI1 consumed by MI0 next iteration: II >= 2
        # is impossible with only 2 MIs -> None.
        g = graph_from([("flow", 1, 0, 1)], 2)
        assert find_valid_ii(g, 2) is None

    def test_flow_back_edge_with_three_mis(self):
        g = graph_from([("flow", 2, 0, 1)], 3)
        # slack = II - 2 >= 1 -> II = 3, but II < 3 required -> None.
        assert find_valid_ii(g, 3) is None
        # Distance 2 halves the requirement: 2*II - 2 >= 1 -> II = 2.
        g2 = graph_from([("flow", 2, 0, 2)], 3)
        assert find_valid_ii(g2, 3) == 2

    def test_ii_must_beat_sequential(self):
        g = graph_from([("flow", 1, 0, 1)], 2)
        assert find_valid_ii(g, 2, max_ii=10) is None

    @pytest.mark.parametrize(
        "src, ii, pmii",
        [
            ("for (i = 0; i < 50; i++) { t = A[i] * B[i]; s = s + t; }", 1, 2),
            ("for (i = 1; i < 50; i++) { A[i] = B[i]; C[i] = A[i-1]; }", 1, None),
            (
                "for (i = 1; i < 50; i++) { t = A[i-1]; A[i] = t + 1.0; B[i] = t; }",
                2,
                3,
            ),
        ],
        ids=["dot-product", "no-cycle", "carried-recurrence"],
    )
    def test_valid_ii_is_least_identity_feasible(self, src, ii, pmii):
        g = ddg_of(src)
        found = find_valid_ii(g, g.n)
        assert (found, pmii_cycle_ratio(g)) == (ii, pmii)
        assert identity_feasible(g, found)
        if found > 1:
            assert not identity_feasible(g, found - 1)

    def test_hydro_like_loop_ii_1(self):
        g = ddg_of(
            """
            for (ky = 1; ky < 100; ky++) {
                DU1[ky] = U1[ky+1] - U1[ky-1];
                U1[ky+101] = U1[ky] + 2.0 * DU1[ky];
            }
            """
        )
        assert find_valid_ii(g, 2) == 1
