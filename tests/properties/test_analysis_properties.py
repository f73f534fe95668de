"""Property tests for the analysis layer.

* Fourier–Motzkin verdicts cross-checked against brute-force integer
  search over a bounded box;
* the difMin iterative-shortest-path PMII agrees with cycle-ratio
  enumeration on random dependence graphs;
* dependence-test soundness: a reported "no dependence" means the
  subscripts really never collide over the iteration space.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.analysis.affine import AffineExpr
from repro.analysis.ddg import Dependence, DependenceGraph
from repro.analysis.delays import edge_delay
from repro.analysis.deptests import test_dependence as dep_test
from repro.analysis.fourier_motzkin import (
    FEASIBLE,
    INFEASIBLE,
    IntegerSystem,
    is_feasible,
)
from repro.core.mii import difmin_feasible, pmii_difmin
from tests.reference_graphs import pmii_cycle_ratio

BOX = 7  # brute-force search box: [-BOX, BOX] per variable


@st.composite
def small_systems(draw):
    """2-3 variable systems with box bounds (so brute force is complete)."""
    n_vars = draw(st.integers(1, 3))
    variables = [f"x{k}" for k in range(n_vars)]
    system = IntegerSystem()
    # Box constraints make FEASIBLE/INFEASIBLE decidable by enumeration.
    for var in variables:
        system.add_ge({var: 1}, BOX)  # x >= -BOX
        system.add_ge({var: -1}, BOX)  # x <= BOX
    n_cons = draw(st.integers(1, 3))
    raw = []
    for _ in range(n_cons):
        coeffs = {
            var: draw(st.integers(-3, 3)) for var in variables
        }
        const = draw(st.integers(-6, 6))
        is_eq = draw(st.booleans())
        raw.append((coeffs, const, is_eq))
        if is_eq:
            system.add_eq(coeffs, const)
        else:
            system.add_ge(coeffs, const)
    return system, variables, raw


def brute_force(variables, raw):
    for point in itertools.product(range(-BOX, BOX + 1), repeat=len(variables)):
        env = dict(zip(variables, point))
        ok = True
        for coeffs, const, is_eq in raw:
            value = sum(coeffs.get(v, 0) * env[v] for v in variables) + const
            if is_eq and value != 0:
                ok = False
                break
            if not is_eq and value < 0:
                ok = False
                break
        if ok:
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(small_systems())
def test_fourier_motzkin_sound(sys_vars_raw):
    system, variables, raw = sys_vars_raw
    verdict = is_feasible(system)
    truth = brute_force(variables, raw)
    if verdict == FEASIBLE:
        assert truth, "claimed feasible but no integer point exists"
    elif verdict == INFEASIBLE:
        assert not truth, "claimed infeasible but an integer point exists"
    # MAYBE makes no claim.


@st.composite
def dependence_graphs(draw):
    n = draw(st.integers(1, 6))
    graph = DependenceGraph(n=n)
    n_edges = draw(st.integers(1, 10))
    for _ in range(n_edges):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        # Keep the DDG invariant: distance-0 edges go forward only;
        # self/backward edges carry distance >= 1.
        if dst > src:
            distance = draw(st.integers(0, 3))
        else:
            distance = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(["flow", "anti", "output"]))
        graph.add(
            Dependence(
                kind=kind, src=src, dst=dst, var="v",
                distance=distance, delay=edge_delay(src, dst),
            )
        )
    return graph


@settings(max_examples=120, deadline=None)
@given(dependence_graphs())
def test_difmin_matches_cycle_ratio(graph):
    ratio = pmii_cycle_ratio(graph)
    difmin = pmii_difmin(graph)
    expected = ratio if ratio is not None else 1
    assert difmin == expected


@settings(max_examples=120, deadline=None)
@given(dependence_graphs(), st.integers(1, 8))
def test_difmin_monotone(graph, ii):
    if difmin_feasible(graph, ii):
        assert difmin_feasible(graph, ii + 1)


@st.composite
def subscript_pairs(draw):
    a1 = draw(st.integers(-3, 3))
    b1 = draw(st.integers(-6, 6))
    a2 = draw(st.integers(-3, 3))
    b2 = draw(st.integers(-6, 6))
    return AffineExpr(a1, b1), AffineExpr(a2, b2)


@settings(max_examples=200, deadline=None)
@given(subscript_pairs(), st.integers(0, 4), st.integers(5, 25))
def test_dependence_no_means_no(pair, lo, span):
    """Soundness: 'independent' must survive exhaustive checking."""
    s1, s2 = pair
    hi = lo + span
    result = dep_test((s1,), (s2,), lo=lo, hi=hi, step=1)
    values1 = {s1.coeff * i + s1.offset: i for i in range(lo, hi)}
    conflict = None
    for i2 in range(lo, hi):
        address = s2.coeff * i2 + s2.offset
        if address in values1:
            conflict = (values1[address], i2)
            break
    if not result.exists:
        assert conflict is None, (s1, s2, conflict)
    if result.is_constant and conflict is not None:
        # The reported constant distance must describe every collision.
        i1, i2 = conflict
        assert i2 - i1 == result.distance


@settings(max_examples=100, deadline=None)
@given(subscript_pairs(), st.integers(2, 3))
def test_dependence_respects_step(pair, step):
    s1, s2 = pair
    result = dep_test((s1,), (s2,), step=step)
    if result.is_constant:
        # A constant distance d means subscripts match when iterations
        # differ by exactly d (in step units).
        d = result.distance
        i1 = 10 * step
        i2 = i1 + d * step
        assert s1.coeff * i1 + s1.offset == s2.coeff * i2 + s2.offset
