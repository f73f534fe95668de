"""Unit tests for the scheduling backends (docs/SCHEDULERS.md).

Covers the backend names, the driver's default identity placement, the
exact branch-and-bound search (wins, proofs, budgets, the refine
fallback), the fixed-placement edge rule, and the shared source-level
resMII census.
"""

import pytest

from repro.analysis.ddg import Dependence, DependenceGraph
from repro.analysis.delays import edge_delay
from repro.core.mii import find_valid_ii, identity_feasible
from repro.core.pipeline import slms
from repro.core.schedulers import (
    SCHEDULER_NAMES,
    op_class_counts,
    resource_mii,
)
from repro.core.schedulers.exact import refine
from repro.core.slms import SLMSOptions
from repro.lang.parser import parse_program
from repro.machines.model import MachineModel, res_mii_for_counts
from repro.machines.presets import machine_by_name
from repro.workloads import get_workload


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


# A 3-MI graph where the identity placement needs II=2 (flow edge
# 1 -> 0 with distance 1: 1*II + (0-1) >= 1 forces II >= 2) but the
# permutation [1, 0, 2] is valid at II=1.
GAP_EDGES = [("flow", 1, 0, 1)]


class TestSchedulerNames:
    def test_names(self):
        assert SCHEDULER_NAMES == ("exact", "heuristic")

    def test_options_validate_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            SLMSOptions(scheduler="ilp")
        with pytest.raises(ValueError, match="sched_budget"):
            SLMSOptions(sched_budget=0)
        with pytest.raises(ValueError, match="unknown machine"):
            SLMSOptions(machine="z80")


class TestHeuristicPath:
    def test_driver_keeps_the_identity_placement(self):
        # kernel16 loop 1: the exact search reorders it to II 2; the
        # default path keeps the paper's placement at find_valid_ii's 3.
        report = slms(get_workload("kernel16").full_source()).loops[1]
        assert report.applied and report.ii == report.heuristic_ii == 3
        assert report.sched_order == list(range(report.n_mis))
        assert report.sched_proven is None and report.sched_nodes == 0


class TestExactBackend:
    def test_beats_identity_on_gap_graph(self):
        g = graph_from(GAP_EDGES, 3)
        assert find_valid_ii(g, g.n) == 2
        sched = refine(g, heuristic_ii=2)
        assert sched.ii == 1
        assert sched.order == (1, 0, 2)
        assert sched.proven_optimal
        assert not sched.exhausted

    def test_schedule_respects_all_edges(self):
        g = graph_from(
            [("flow", 1, 0, 1), ("flow", 0, 2, 0), ("anti", 2, 1, 1)], 3
        )
        sched = refine(g, g.n)
        assert sched.ii < g.n
        sigma = {v: r for r, v in enumerate(sched.order)}
        for edge in g.edges:
            need = 1 if edge.kind == "flow" else 0
            slack = edge.distance * sched.ii + (
                sigma[edge.dst] - sigma[edge.src]
            )
            assert slack >= need

    def test_identity_kept_when_already_optimal(self):
        g = graph_from([("flow", 0, 1, 0)], 2)
        sched = refine(g, g.n)
        assert sched.ii == 1 and sched.is_identity and sched.proven_optimal

    def test_infeasible_ii_detected_by_relaxation(self):
        # Self-dependence at distance 1 makes II=0 nonsense and the
        # positive-cycle test must reject nothing at II >= 1.
        g = graph_from([("flow", 0, 0, 1)], 2)
        assert refine(g, g.n).ii == 1

    def test_budget_exhaustion_is_flagged_not_proven(self):
        g = graph_from(GAP_EDGES, 3)
        sched = refine(g, heuristic_ii=2, budget_nodes=1)
        assert sched.ii == 2  # fell back to the identity placement
        assert sched.is_identity
        assert sched.exhausted
        assert not sched.proven_optimal

    def test_refine_honours_min_ii_floor(self):
        g = graph_from(GAP_EDGES, 3)
        sched = refine(g, heuristic_ii=2, min_ii=2)
        assert sched.ii == 2 and sched.is_identity
        assert sched.proven_optimal  # nothing below the floor was tried

    def test_refine_never_exceeds_heuristic_ii(self):
        for edges, n in [
            (GAP_EDGES, 3),
            ([("flow", 0, 1, 0), ("flow", 1, 0, 1)], 2),
            ([("flow", 2, 0, 1), ("flow", 0, 1, 0)], 4),
        ]:
            g = graph_from(edges, n)
            h_ii = find_valid_ii(g, g.n)
            if h_ii is None:
                continue
            sched = refine(g, h_ii)
            assert sched.ii <= h_ii


MIS_SRC = """\
float A[8];
float B[8];
int C[8];
int i;
for (i = 1; i < 8; i++) {
    A[i] = A[i - 1] * 2.0 + B[i];
    C[i] = C[i] + 1;
    B[i] = B[i] / 4.0;
}
"""


def _mis_and_types():
    program = parse_program(MIS_SRC)
    loop = next(s for s in program.body if hasattr(s, "body"))
    types = {"A": "float", "B": "float", "C": "int", "i": "int"}
    return list(loop.body), types


class TestResMII:
    def test_op_class_counts_census(self):
        mis, types = _mis_and_types()
        counts = op_class_counts(mis, types)
        # A[i], A[i-1], B[i] + compound C[i] (load+store) + B[i] twice.
        assert counts["mem"] == 7
        assert counts["fmul"] == 1
        assert counts["fadd"] == 1
        assert counts["div"] == 1
        # i-1 and the compound int increment are ALU work.
        assert counts["alu"] == 2

    def test_res_mii_for_counts_formula(self):
        machine = MachineModel(
            name="toy",
            issue_width=4,
            units={"mem": 2, "fadd": 1, "fmul": 1, "div": 1, "alu": 2},
            latencies={},
            num_registers=32,
        )
        counts = {"mem": 5, "fadd": 1, "alu": 2, "div": 0}
        # mem: ceil(5/2)=3 dominates; total 8 over width 4 gives 2.
        assert res_mii_for_counts(machine, counts) == 3

    def test_issue_width_bound(self):
        machine = MachineModel(
            name="narrow",
            issue_width=2,
            units={"mem": 4, "fadd": 4, "fmul": 4, "div": 4, "alu": 4},
            latencies={},
            num_registers=32,
        )
        counts = {"mem": 3, "alu": 3}
        assert res_mii_for_counts(machine, counts) == 3  # ceil(6/2)

    def test_branches_excluded(self):
        machine = machine_by_name("itanium2")
        assert res_mii_for_counts(machine, {"branch": 99}) == 1

    def test_source_res_mii_on_mis(self):
        mis, types = _mis_and_types()
        machine = machine_by_name("itanium2")
        expected = res_mii_for_counts(
            machine, op_class_counts(mis, types)
        )
        assert resource_mii(mis, machine, types) == expected
        assert expected >= 1

    def test_backend_res_mii_uses_shared_formula(self):
        # The machine-level resMII (backend/ims.py) and the shared
        # formula must agree on a hand-built census.
        from repro.backend.ims import res_mii as lir_res_mii
        from repro.backend.lir import Instr

        machine = machine_by_name("itanium2")
        instrs = [
            Instr(op="load", dst="r1", srcs=("A", "r0")),
            Instr(op="fadd", dst="r2", srcs=("r1", "r1")),
            Instr(op="store", dst=None, srcs=("A", "r0", "r2")),
        ]
        counts = {"mem": 2, "fadd": 1}
        assert lir_res_mii(instrs, machine) == res_mii_for_counts(
            machine, counts
        )


class TestIdentityFeasible:
    def test_matches_find_valid_ii_verdicts(self):
        g = graph_from(GAP_EDGES, 3)
        assert not identity_feasible(g, 1)
        assert identity_feasible(g, 2)
        assert find_valid_ii(g, g.n) == 2

    def test_unknown_dependence_kind_fails_closed(self):
        # One rule for every reader: a kind EDGE_NEED does not know is
        # an error, not a silent slack requirement of 0 or 1.
        g = graph_from([("input", 1, 0, 1)], 3)
        with pytest.raises(KeyError):
            find_valid_ii(g, g.n)
        with pytest.raises(KeyError):
            refine(g, 2)
