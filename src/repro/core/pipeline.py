"""User-facing SLMS entry points.

:func:`slms` transforms a whole program: every *innermost* canonical
for loop is attempted (outer loops of a nest keep their structure — a
loop whose body still contains a loop is skipped, matching the paper's
inner-loop focus), declarations for introduced temporaries are inserted
ahead of the loop, and a per-loop report is returned.

:func:`slms_loop` is the one-loop convenience used throughout the tests
and examples: give it source text (or a parsed program), get back the
transformed program plus the :class:`~repro.core.slms.SLMSResult`.

Each per-loop report holds the source loop it is about
(``SLMSResult.loop``), so ``slms advise`` and ``slms explain`` render
the driver's own reports instead of walking the program again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.names import NamePool, all_names
from repro.core.slms import SLMSOptions, SLMSResult, slms_for_loop
from repro.lang.ast_nodes import Decl, For, Program, Stmt, While
from repro.lang.parser import parse_program
from repro.lang.visitors import walk
from repro.obs import get_tracer


@dataclass
class ProgramSLMSResult:
    """Whole-program transformation outcome."""

    program: Program
    loops: List[SLMSResult] = field(default_factory=list)

    @property
    def applied_count(self) -> int:
        return sum(1 for r in self.loops if r.applied)

    @property
    def any_applied(self) -> bool:
        return self.applied_count > 0


def _collect_types(program: Program) -> Dict[str, str]:
    types: Dict[str, str] = {}
    for node in walk(program):
        if isinstance(node, Decl):
            types[node.name] = node.type
    return types


def _is_innermost(loop: For) -> bool:
    for stmt in loop.body:
        for node in walk(stmt):
            if isinstance(node, (For, While)):
                return False
    return True


def slms(
    program: Union[Program, str],
    options: Optional[SLMSOptions] = None,
    types: Optional[Dict[str, str]] = None,
) -> ProgramSLMSResult:
    """Apply SLMS to every innermost canonical loop of a program.

    Accepts a parsed :class:`Program` or source text.  The input is
    never mutated; the result holds the transformed copy and one
    :class:`SLMSResult` per attempted loop (applied or declined, with
    the reason).  ``types`` supplies declarations for names declared
    outside the given fragment (array element types drive the type of
    decomposition temporaries).
    """
    if isinstance(program, str):
        program = parse_program(program)
    options = options or SLMSOptions()
    pool = NamePool(all_names(program))
    merged_types = _collect_types(program)
    if types:
        # Caller-supplied types win: used when transforming a kernel
        # excerpt whose declarations live elsewhere.  Their names are
        # also reserved so fresh temporaries cannot collide with them.
        merged_types.update(types)
        pool.reserve(types.keys())
    types = merged_types
    reports: List[SLMSResult] = []

    def try_reduction_lanes(loop: For) -> Optional[SLMSResult]:
        """§5 lane splitting: split the reduction, pipeline the lane
        loop, and stitch preheader/remainder/merge around it."""
        if options.reduction_lanes < 2:
            return None
        from repro.core.reductions import find_reduction, split_reduction

        from repro.analysis.loopinfo import LoopInfo

        header = LoopInfo.from_for(loop)
        if header is None:
            return None
        info = find_reduction(
            loop.body, header.var, options.allow_reassociation
        )
        if info is None:
            return None
        split = split_reduction(
            loop, info, pool,
            lanes=options.reduction_lanes,
            elem_type=types.get(info.var, "float"),
        )
        if split is None:
            return None
        result = slms_for_loop(split.main_loop, pool, options, types)
        if not result.applied:
            return None  # fall back to the un-split path
        result.new_decls = split.new_decls + result.new_decls
        result.new_scalars = split.lane_names + result.new_scalars
        result.stmts = (
            split.preheader + result.stmts + [split.remainder] + split.merge
        )
        result.unroll = max(result.unroll, options.reduction_lanes)
        result.lanes = options.reduction_lanes
        return result

    tracer = get_tracer()

    def transform_block(stmts: List[Stmt]) -> List[Stmt]:
        out: List[Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, For) and _is_innermost(stmt):
                with tracer.span("slms.loop", index=len(reports)) as span:
                    result = try_reduction_lanes(stmt)
                    if result is None:
                        result = slms_for_loop(stmt, pool, options, types)
                    result.loop = stmt
                    span.set(
                        applied=result.applied,
                        reason=result.reason,
                        ii=result.ii,
                    )
                if options.verify and result.applied:
                    # Imported lazily: verify depends on core for the
                    # result types, so the top level must not cycle.
                    from repro.verify.ir_check import check_result
                    from repro.verify.schedule import validate_result

                    result.diagnostics.extend(
                        validate_result(result, stmt).diagnostics
                    )
                    result.diagnostics.extend(check_result(result, stmt))
                reports.append(result)
                if result.applied:
                    out.extend(result.new_decls)
                    out.extend(result.stmts)
                else:
                    out.append(stmt.clone())
            elif isinstance(stmt, For):
                new_loop = stmt.clone()
                new_loop.body = transform_block(new_loop.body)
                out.append(new_loop)
            elif isinstance(stmt, While):
                new_loop = stmt.clone()
                new_loop.body = transform_block(new_loop.body)
                out.append(new_loop)
            else:
                out.append(stmt.clone())
        return out

    transformed = Program(transform_block(list(program.body)), program.loc)
    return ProgramSLMSResult(program=transformed, loops=reports)


def slms_loop(
    source: Union[Program, str],
    options: Optional[SLMSOptions] = None,
) -> Tuple[Program, SLMSResult]:
    """Transform a program containing (at least) one loop; return the
    transformed program and the report for the *first* attempted loop."""
    outcome = slms(source, options)
    if not outcome.loops:
        raise ValueError("no canonical innermost for loop found")
    return outcome.program, outcome.loops[0]
