"""Property tests: classical loop transformations preserve semantics.

Unrolling, distribution, peeling and strip-mining are applied to
randomly generated affine loops (the transformations either succeed or
decline with :class:`TransformError`; success must be bit-exact).
Distribution's grouping and order of statements is checked against
networkx on random digraphs.
"""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.lang import parse_program, parse_stmt
from repro.sim.interp import run_program, state_equal
from repro.transforms import (
    TransformError,
    distribute,
    peel,
    reverse,
    strip_mine,
    unroll,
)
from repro.transforms.distribution import statement_groups

ARRAYS = ["A", "B", "C"]
SIZE = 48


@st.composite
def loop_sources(draw):
    """A random canonical loop over pre-initialized arrays."""
    n_stmts = draw(st.integers(1, 3))
    stmts = []
    for _ in range(n_stmts):
        dst = draw(st.sampled_from(ARRAYS))
        dst_off = draw(st.integers(-2, 2))
        src1 = draw(st.sampled_from(ARRAYS))
        src1_off = draw(st.integers(-2, 2))
        src2 = draw(st.sampled_from(ARRAYS))
        src2_off = draw(st.integers(-2, 2))
        op = draw(st.sampled_from(["+", "-", "*"]))

        def idx(off):
            if off == 0:
                return "i"
            return f"i + {off}" if off > 0 else f"i - {-off}"

        stmts.append(
            f"{dst}[{idx(dst_off)}] = {src1}[{idx(src1_off)}] {op} "
            f"{src2}[{idx(src2_off)}] * 0.5;"
        )
    lo = draw(st.integers(3, 5))
    hi = draw(st.integers(lo + 1, SIZE - 4))
    step = draw(st.sampled_from([1, 1, 2]))
    body = "\n".join(stmts)
    return f"for (i = {lo}; i < {hi}; i += {step}) {{\n{body}\n}}"


SETUP = (
    f"float A[{SIZE}], B[{SIZE}], C[{SIZE}];\n"
    f"for (i = 0; i < {SIZE}; i++) "
    "{ A[i] = 0.5 * i + 1.0; B[i] = 9.0 - 0.25 * i; C[i] = 0.125 * i; }\n"
)


def check_transform(loop_src, transform, ignore=()):
    loop = parse_stmt(loop_src)
    try:
        replacement = transform(loop)
    except TransformError:
        return  # declining is always acceptable
    if not isinstance(replacement, list):
        replacement = [replacement]
    base = run_program(parse_program(SETUP + loop_src))
    prog = parse_program(SETUP)
    prog.body.extend(replacement)
    out = run_program(prog)
    assert state_equal(base, out, ignore=set(ignore)), loop_src


@settings(max_examples=80, deadline=None)
@given(loop_sources(), st.integers(2, 4))
def test_unroll_preserves_semantics(loop_src, factor):
    check_transform(loop_src, lambda lp: unroll(lp, factor))


@settings(max_examples=80, deadline=None)
@given(loop_sources())
def test_distribute_preserves_semantics(loop_src):
    check_transform(loop_src, distribute)


@st.composite
def digraphs(draw):
    """A digraph on 1..10 nodes; self-loops and repeated edges allowed."""
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=3 * n))


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_statement_groups_match_networkx(graph):
    n, edges = graph
    groups = statement_groups(n, edges)
    reference = nx.DiGraph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(edges)
    assert sorted(groups) == sorted(
        sorted(comp) for comp in nx.strongly_connected_components(reference)
    )
    position = {v: k for k, group in enumerate(groups) for v in group}
    assert all(position[src] <= position[dst] for src, dst in edges)
    # Among components free to go next, the smallest statement first.
    condensed = nx.condensation(reference)
    first = {c: min(condensed.nodes[c]["members"]) for c in condensed}
    assert [group[0] for group in groups] == [
        first[c]
        for c in nx.lexicographical_topological_sort(condensed, key=first.get)
    ]


@settings(max_examples=60, deadline=None)
@given(loop_sources(), st.integers(1, 4),
       st.sampled_from(["front", "back"]))
def test_peel_preserves_semantics(loop_src, count, where):
    check_transform(loop_src, lambda lp: peel(lp, count, where))


@settings(max_examples=60, deadline=None)
@given(loop_sources(), st.integers(2, 8))
def test_strip_mine_preserves_semantics(loop_src, width):
    check_transform(loop_src, lambda lp: strip_mine(lp, width), ignore={"is"})


@settings(max_examples=60, deadline=None)
@given(loop_sources())
def test_reverse_preserves_semantics(loop_src):
    # reverse() must either decline (loop-carried dep) or be exact;
    # the loop variable's final value legitimately differs.
    check_transform(loop_src, reverse, ignore={"i"})


@settings(max_examples=40, deadline=None)
@given(loop_sources(), st.integers(2, 3))
def test_unroll_then_slms(loop_src, factor):
    """Composition: unroll, then SLMS the unrolled main loop."""
    from repro import SLMSOptions, slms

    loop = parse_stmt(loop_src)
    try:
        replacement = unroll(loop, factor)
    except TransformError:
        return
    prog = parse_program(SETUP)
    prog.body.extend(replacement)
    outcome = slms(prog, SLMSOptions(enable_filter=False))
    base = run_program(parse_program(SETUP + loop_src))
    out = run_program(outcome.program)
    ignore = {n for r in outcome.loops for n in r.new_scalars}
    ignore |= {k for k in out if k.endswith("Arr") and k not in base}
    assert state_equal(base, out, ignore=ignore), loop_src
