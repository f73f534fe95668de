"""Differential oracle: does SLMS preserve the semantics of a case?

Each fuzz case runs through four layers of checking, every one against
the same untransformed *reference interpreter* run:

1. **differential** — transform with :func:`repro.core.pipeline.slms`
   (``verify=True``) and re-interpret the transformed source over
   randomized initial stores; final memory and live scalar state must
   be bit-identical (:func:`repro.sim.interp.state_equal`).
2. **backend** — compile both the original and the transformed program
   through :class:`repro.backend.compiler.FinalCompiler` and execute
   the LIR on :func:`repro.sim.executor.execute`; both functional
   states must again match the reference.
3. **validator cross-check** — every loop SLMS *applied* must also
   satisfy the V2xx schedule validator; a validator error on a case
   the oracle accepts (or vice versa) is its own failure class
   (``validator-disagreement``), never silently dropped.
4. **metamorphic** — composing SLMS with the classical transforms must
   not change meaning: reversing a loop twice then pipelining behaves
   like pipelining alone, and unrolling before SLMS behaves like SLMS
   alone.
5. **scheduler** (opt-in, ``--oracle-scheduler``) — the exact
   branch-and-bound backend must agree with the heuristic on every
   apply/decline verdict, never produce a larger II (its refine search
   falls back to the heuristic's placement), pass the V2xx validator on
   everything it applies, and preserve semantics bit-exactly.  Any
   violation is a ``scheduler-divergence``.

Every source-level run goes through the tree-walking reference
interpreter, once per randomized store
(:func:`repro.sim.interp.run_program_batched`); the compiled oracle of
:mod:`repro.sim.interp_compile` is not used here, because a fuzz program
runs too few times to repay its compilation.

Verdicts are deterministic functions of ``(case, OracleConfig)``: the
randomized stores derive from the case seed via ``numpy``'s counter
based generator, never from global state.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.pipeline import ProgramSLMSResult, slms
from repro.core.slms import SLMSOptions
from repro.defaults import DEFAULT_COMPILER, DEFAULT_MACHINE
from repro.fuzz.generator import FuzzCase
from repro.lang.ast_nodes import For, Program, Stmt, While
from repro.lang.parser import parse_program
from repro.lang.printer import to_source
from repro.obs import get_tracer
from repro.sim.interp import InterpError, run_program_batched, state_equal
from repro.transforms.errors import TransformError
from repro.transforms.reversal import reverse
from repro.transforms.unroll import unroll


# Failure classes, most severe first.  ``invalid-case`` means the
# *generator* produced a program the reference interpreter rejects —
# a fuzzer bug, reported loudly rather than masked.
FAILURE_CLASSES: Tuple[str, ...] = (
    "crash",                   # pipeline raised on a legal program
    "invalid-case",            # reference interpreter rejected the input
    "lint-false-negative",     # reference trapped OOB but lint saw nothing
    "differential",            # transformed source diverges from reference
    "backend-differential",    # compiled LIR diverges from reference
    "ir-invariant",            # V21x cross-phase IR invariant violated
    "validator-disagreement",  # V2xx validator and oracle disagree
    "scheduler-divergence",    # exact backend loses to / disagrees with
                               # the heuristic, or breaks validation
    "metamorphic-reversal",    # reversal o reversal then SLMS diverges
    "metamorphic-unroll",      # unroll then SLMS diverges
)

# The V21x band is the cross-phase IR checker; its findings get their
# own failure class so an IR bug is never misfiled as a scheduler bug.
_IR_CODES = frozenset(
    {"V210", "V211", "V212", "V213", "V214", "V215", "V216", "V217"}
)

_OOB_TRAP = re.compile(r"index -?\d+ out of bounds .* of '(\w+)'")


# Fixed budgets of every oracle evaluation.  They shape each verdict,
# so changing one changes what a recorded seed reproduces: the number
# of randomized initial stores per case, the step budget of every
# reference-interpreter and LIR run and the metamorphic unroll factor.
# The exact scheduler (layer 5) searches within SLMSOptions' default
# budget, which shapes its verdicts the same way.
_N_ENVS = 2
_MAX_STEPS = 2_000_000
_UNROLL_FACTOR = 2


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for one oracle evaluation (part of the determinism key)."""

    machine: str = DEFAULT_MACHINE
    compiler: str = DEFAULT_COMPILER
    backend: bool = True
    metamorphic: bool = True
    # Differential scheduler oracle (layer 5): re-run SLMS with the
    # exact branch-and-bound backend and compare against the heuristic.
    scheduler_oracle: bool = False

    def __post_init__(self) -> None:
        from repro.backend.compiler import compiler_by_name
        from repro.machines.presets import machine_by_name

        # Unknown names would otherwise fail every case in its worker.
        machine_by_name(self.machine)
        compiler_by_name(self.compiler)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class CaseOutcome:
    """Oracle verdict for one case.

    ``status`` is ``"ok"`` (every check passed — possibly with zero
    loops transformed), ``"declined"`` (SLMS applied to no loop; the
    decline reasons are recorded), or ``"fail"`` with a
    ``failure_class`` from :data:`FAILURE_CLASSES` and a human-readable
    ``detail``.
    """

    seed: int
    profile: str
    status: str
    failure_class: Optional[str] = None
    detail: str = ""
    applied_loops: int = 0
    declined_loops: int = 0
    decline_reasons: List[str] = field(default_factory=list)
    validator_codes: List[str] = field(default_factory=list)
    checks_run: List[str] = field(default_factory=list)
    source: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def to_dict(self, include_source: bool = False) -> Dict[str, Any]:
        payload = {
            "seed": self.seed,
            "profile": self.profile,
            "status": self.status,
            "failure_class": self.failure_class,
            "detail": self.detail,
            "applied_loops": self.applied_loops,
            "declined_loops": self.declined_loops,
            "decline_reasons": self.decline_reasons,
            "validator_codes": self.validator_codes,
            "checks_run": self.checks_run,
        }
        if include_source:
            payload["source"] = self.source
        return payload


# ---------------------------------------------------------------------------
# randomized initial stores


def make_env(case: FuzzCase, env_index: int = 0) -> Dict[str, Any]:
    """Deterministic randomized initial store for ``case``.

    Int arrays get small magnitudes (recurrences stay far from
    overflow even before the generator's value wrapping); float arrays
    get dyadic rationals so every arithmetic result is exact in both
    the source interpreter and the LIR executor.
    """
    rng = np.random.default_rng(
        (int(case.seed) * 1_000_003 + env_index) % (2**63)
    )
    env: Dict[str, Any] = {}
    for name in sorted(case.arrays):
        shape = case.arrays[name]
        if case.types.get(name) == "int":
            env[name] = rng.integers(-9, 10, size=shape).astype(np.int64)
        else:
            env[name] = (
                rng.integers(-64, 65, size=shape) / 8.0
            ).astype(np.float64)
    return env


# ---------------------------------------------------------------------------
# loop rewriting helpers (metamorphic variants)


def _map_innermost(
    program: Program,
    fn: Callable[[For], Union[For, List[Stmt]]],
) -> Program:
    """Clone ``program`` with ``fn`` applied to every innermost for loop.

    ``fn`` may return a replacement loop or a statement list (unroll).
    Raises whatever ``fn`` raises — callers treat
    :class:`TransformError` as "variant not applicable".
    """

    def is_innermost(loop: For) -> bool:
        return not any(
            isinstance(node, (For, While))
            for stmt in loop.body
            for node in _walk_stmt(stmt)
        )

    def rewrite(stmts: List[Stmt]) -> List[Stmt]:
        out: List[Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, For):
                if is_innermost(stmt):
                    replaced = fn(stmt.clone())
                    if isinstance(replaced, list):
                        out.extend(replaced)
                    else:
                        out.append(replaced)
                else:
                    loop = stmt.clone()
                    loop.body = rewrite(loop.body)
                    out.append(loop)
            elif isinstance(stmt, While):
                loop = stmt.clone()
                loop.body = rewrite(loop.body)
                out.append(loop)
            else:
                out.append(stmt.clone())
        return out

    return Program(rewrite(list(program.body)), program.loc)


def _walk_stmt(stmt: Stmt):
    from repro.lang.visitors import walk

    return walk(stmt)


# ---------------------------------------------------------------------------
# the oracle


def _reference_states(
    program: Program, envs: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    outcomes = run_program_batched(program, envs, max_steps=_MAX_STEPS)
    for out in outcomes:
        if isinstance(out, InterpError):
            raise out
    return outcomes


def _divergence(
    ref: Dict[str, Any], out: Dict[str, Any], label: str
) -> Optional[str]:
    """None when states agree; a short description otherwise.

    Names present only in ``out`` are SLMS/compiler temporaries and are
    ignored; every name the reference knows must match bit-exactly.
    """
    if state_equal(ref, out, ignore=set(out) - set(ref)):
        return None
    bad = []
    for name in sorted(ref):
        if name not in out:
            bad.append(f"{name} missing")
            continue
        va, vb = ref[name], out[name]
        if isinstance(va, np.ndarray) and isinstance(vb, np.ndarray):
            if va.shape != vb.shape or not np.array_equal(
                va, vb, equal_nan=True
            ):
                bad.append(name)
        elif va != vb and not (va != va and vb != vb):  # NaN-tolerant
            bad.append(f"{name} ({va!r} != {vb!r})")
    return f"{label}: state mismatch on {', '.join(bad) or '<unknown>'}"


def run_case(
    case: FuzzCase, config: Optional[OracleConfig] = None
) -> CaseOutcome:
    """Run every oracle layer over ``case`` and classify the outcome."""
    config = config or OracleConfig()
    tracer = get_tracer()
    outcome = _run_case_inner(case, config)
    if tracer.enabled:
        tracer.event(
            "fuzz.case",
            seed=case.seed,
            profile=case.profile,
            status=outcome.status,
            applied=outcome.applied_loops,
            declined=outcome.declined_loops,
        )
        if outcome.failed:
            tracer.event(
                "fuzz.divergence",
                seed=case.seed,
                profile=case.profile,
                failure_class=outcome.failure_class,
                detail=outcome.detail,
            )
    return outcome


def _run_case_inner(case: FuzzCase, config: OracleConfig) -> CaseOutcome:
    outcome = CaseOutcome(
        seed=case.seed, profile=case.profile, status="ok", source=case.source
    )

    def fail(cls: str, detail: str) -> CaseOutcome:
        outcome.status = "fail"
        outcome.failure_class = cls
        outcome.detail = detail
        return outcome

    try:
        program = parse_program(case.source)
    except Exception as exc:
        return fail("invalid-case", f"parse failed: {exc}")

    envs = [make_env(case, j) for j in range(_N_ENVS)]

    # ---- reference runs ---------------------------------------------------
    outcome.checks_run.append("reference")
    try:
        refs = _reference_states(program, envs)
    except InterpError as exc:
        trap = _OOB_TRAP.search(str(exc))
        if trap is not None:
            # An out-of-bounds trap is the expected outcome for ``oob``
            # cases; the contract is that ``slms lint`` statically flags
            # the trapping array — a trap lint missed is a hole in the
            # bounds prover (a false negative), reported loudly.
            outcome.checks_run.append("lint-oob")
            problem = _lint_covers_trap(program, trap.group(1))
            if problem:
                return fail("lint-false-negative", f"{exc}; {problem}")
            outcome.detail = (
                f"reference trapped ({exc}); lint flagged the subscript"
            )
            return outcome
        return fail("invalid-case", f"reference interpreter rejected: {exc}")

    # ---- SLMS + source-level differential --------------------------------
    outcome.checks_run.append("differential")
    try:
        result: ProgramSLMSResult = slms(
            program.clone(), SLMSOptions(verify=True)
        )
    except Exception as exc:
        return fail("crash", f"slms raised {type(exc).__name__}: {exc}")

    outcome.applied_loops = result.applied_count
    outcome.declined_loops = len(result.loops) - result.applied_count
    outcome.decline_reasons = [
        r.reason for r in result.loops if not r.applied
    ]
    outcome.validator_codes = sorted(
        {
            d.code
            for r in result.loops
            for d in r.diagnostics
            if d.severity == "error"
        }
    )

    diffs: List[str] = []
    outs = run_program_batched(
        result.program, envs, max_steps=_MAX_STEPS
    )
    for j, out in enumerate(outs):
        if isinstance(out, InterpError):
            diffs.append(f"env{j}: transformed program raised: {out}")
            continue
        problem = _divergence(refs[j], out, f"env{j}")
        if problem:
            diffs.append(problem)
    if diffs:
        return fail("differential", "; ".join(diffs))

    # ---- validator cross-check -------------------------------------------
    # The differential oracle accepted the transform; a V2xx error now
    # means the static validator disagrees with the dynamic truth.
    # V21x errors are the cross-phase IR checker's and carry their own
    # class so IR bugs are never misfiled as scheduler bugs.
    outcome.checks_run.append("validator")
    ir_codes = [c for c in outcome.validator_codes if c in _IR_CODES]
    if ir_codes:
        return fail(
            "ir-invariant",
            "IR invariant violated on an applied result: "
            + ", ".join(ir_codes),
        )
    if outcome.validator_codes:
        return fail(
            "validator-disagreement",
            "oracle accepts but validator errors: "
            + ", ".join(outcome.validator_codes),
        )

    # ---- differential scheduler oracle -----------------------------------
    if config.scheduler_oracle:
        outcome.checks_run.append("scheduler")
        problem = _scheduler_check(program, result, envs, refs)
        if problem:
            return fail("scheduler-divergence", problem)

    # ---- backend differential --------------------------------------------
    if config.backend:
        outcome.checks_run.append("backend")
        failure = _backend_check(
            program, result.program, envs, refs, config
        )
        if failure:
            return fail(*failure)

    # ---- metamorphic variants --------------------------------------------
    if config.metamorphic:
        problem = _metamorphic_reversal(program, envs, refs)
        if problem is not None:
            outcome.checks_run.append("metamorphic-reversal")
            if problem:
                return fail("metamorphic-reversal", problem)
        problem = _metamorphic_unroll(program, envs, refs)
        if problem is not None:
            outcome.checks_run.append("metamorphic-unroll")
            if problem:
                return fail("metamorphic-unroll", problem)

    if outcome.applied_loops == 0 and outcome.declined_loops > 0:
        outcome.status = "declined"
    return outcome


def _lint_covers_trap(program: Program, array: str) -> str:
    """Empty string when ``slms lint`` flags a subscript of ``array``
    (A301/A302); otherwise a description of the false negative."""
    from repro.verify.lint import lint_program

    diags = lint_program(program)
    hits = [
        d
        for d in diags
        if d.code in ("A301", "A302") and f"{array!r}" in d.message
    ]
    if hits:
        return ""
    flagged = sorted(
        {d.code for d in diags if d.code in ("A301", "A302")}
    )
    return (
        f"lint did not flag any subscript of {array!r} "
        f"(bounds findings present: {flagged or 'none'})"
    )


def _scheduler_check(
    program: Program,
    heuristic: ProgramSLMSResult,
    envs: List[Dict[str, Any]],
    refs: List[Dict[str, Any]],
) -> str:
    """Empty string when the exact backend agrees with the heuristic.

    The refine architecture makes four properties structural; each one
    is re-checked dynamically here so a regression in the scheduler
    surfaces as its own failure class:

    * both backends attempt the same loops and reach the same
      apply/decline verdicts (exact refines placement only, it never
      changes the decomposition or the filter path);
    * on every applied loop ``exact II ≤ heuristic II`` (identity at
      the heuristic's II is the refine fallback);
    * the exact placement passes the V2xx schedule validator;
    * the exact-scheduled program is bit-identical to the reference.
    """
    try:
        exact = slms(
            program.clone(),
            SLMSOptions(verify=True, scheduler="exact"),
        )
    except Exception as exc:
        return f"exact slms raised {type(exc).__name__}: {exc}"

    if len(exact.loops) != len(heuristic.loops):
        return (
            f"backends attempted different loop counts: heuristic "
            f"{len(heuristic.loops)}, exact {len(exact.loops)}"
        )
    for idx, (h, e) in enumerate(zip(heuristic.loops, exact.loops)):
        if h.applied != e.applied:
            return (
                f"loop {idx}: verdict mismatch — heuristic "
                f"{'applied' if h.applied else f'declined ({h.reason})'}, "
                f"exact "
                f"{'applied' if e.applied else f'declined ({e.reason})'}"
            )
        if not h.applied:
            continue
        if e.ii > h.ii:
            return (
                f"loop {idx}: exact II {e.ii} exceeds heuristic II {h.ii}"
            )
    exact_codes = sorted(
        {
            d.code
            for r in exact.loops
            for d in r.diagnostics
            if d.severity == "error"
        }
    )
    if exact_codes:
        return (
            "exact placement fails validation: " + ", ".join(exact_codes)
        )

    outs = run_program_batched(
        exact.program, envs, max_steps=_MAX_STEPS
    )
    for j, out in enumerate(outs):
        if isinstance(out, InterpError):
            return f"exact/env{j}: transformed program raised: {out}"
        problem = _divergence(refs[j], out, f"exact/env{j}")
        if problem:
            return problem
    return ""


def _backend_check(
    base: Program,
    transformed: Program,
    envs: List[Dict[str, Any]],
    refs: List[Dict[str, Any]],
    config: OracleConfig,
) -> Optional[Tuple[str, str]]:
    """``None`` on success, else ``(failure_class, detail)``."""
    from repro.backend.compiler import FinalCompiler
    from repro.machines.presets import machine_by_name
    from repro.sim.executor import execute
    from repro.verify.ir_check import check_module

    machine = machine_by_name(config.machine)
    compiler = FinalCompiler(machine, config.compiler)
    for label, prog in (("base", base), ("slms", transformed)):
        try:
            compiled = compiler.compile(prog.clone())
        except Exception as exc:
            return (
                "backend-differential",
                f"{label}: compile raised {type(exc).__name__}: {exc}",
            )
        # Static LIR soundness before dynamic execution: opcodes,
        # register files, arrays, constant addresses, block-final
        # conditional branches (V212-V217).
        ir_errors = [
            d
            for d in check_module(
                compiled.module,
                machine if compiled.alloc is not None else None,
            )
            if d.severity == "error"
        ]
        if ir_errors:
            return (
                "ir-invariant",
                f"{label}: LIR invariant violated: "
                + "; ".join(d.format() for d in ir_errors[:4]),
            )
        for j, env in enumerate(envs):
            try:
                run = execute(
                    compiled.module,
                    machine,
                    env=env,
                    max_steps=_MAX_STEPS,
                )
            except Exception as exc:
                return (
                    "backend-differential",
                    f"{label}/env{j}: execute raised "
                    f"{type(exc).__name__}: {exc}",
                )
            problem = _divergence(refs[j], run.state, f"{label}/env{j}")
            if problem:
                return ("backend-differential", problem)
    return None


def _run_variant(
    variant: Program,
    envs: List[Dict[str, Any]],
    refs: List[Dict[str, Any]],
    label: str,
) -> str:
    """Empty string when the SLMS'd variant matches the reference."""
    try:
        result = slms(variant, SLMSOptions())
    except Exception as exc:
        return f"{label}: slms raised {type(exc).__name__}: {exc}"
    outs = run_program_batched(
        result.program, envs, max_steps=_MAX_STEPS
    )
    for j, out in enumerate(outs):
        if isinstance(out, InterpError):
            return f"{label}/env{j}: variant raised: {out}"
        problem = _divergence(refs[j], out, f"{label}/env{j}")
        if problem:
            return problem
    return ""


def _metamorphic_reversal(
    program: Program,
    envs: List[Dict[str, Any]],
    refs: List[Dict[str, Any]],
) -> Optional[str]:
    """Reverse every innermost loop twice, re-pipeline, compare.

    Returns ``None`` when no loop is reversible (check not applicable),
    ``""`` on success, or a failure description.  Reversal must be an
    involution at the source level before semantics are even consulted.
    """
    reversed_any = False

    def rev2(loop: For) -> For:
        nonlocal reversed_any
        once = reverse(loop)
        twice = reverse(once)
        if to_source(Program([twice])) != to_source(Program([loop])):
            raise _InvolutionBroken(
                to_source(Program([loop])), to_source(Program([twice]))
            )
        reversed_any = True
        return twice

    try:
        variant = _map_innermost(program, rev2)
    except _InvolutionBroken as exc:
        return f"reverse(reverse(loop)) != loop:\n{exc}"
    except TransformError:
        return None
    except Exception as exc:  # reversal crashed on a legal loop
        return f"reversal raised {type(exc).__name__}: {exc}"
    if not reversed_any:
        return None
    return _run_variant(variant, envs, refs, "reverse2")


class _InvolutionBroken(Exception):
    def __init__(self, before: str, after: str):
        super().__init__(f"--- before ---\n{before}\n--- after ---\n{after}")


def _metamorphic_unroll(
    program: Program,
    envs: List[Dict[str, Any]],
    refs: List[Dict[str, Any]],
) -> Optional[str]:
    """Unroll every innermost loop, then SLMS the result, compare."""
    unrolled_any = False

    def unroll_one(loop: For) -> List[Stmt]:
        nonlocal unrolled_any
        stmts = unroll(loop, _UNROLL_FACTOR)
        unrolled_any = True
        return stmts

    try:
        variant = _map_innermost(program, unroll_one)
    except TransformError:
        return None
    except Exception as exc:
        return f"unroll raised {type(exc).__name__}: {exc}"
    if not unrolled_any:
        return None
    return _run_variant(variant, envs, refs, "unroll")


def check_source(
    source: str,
    seed: Optional[int] = None,
    config: Optional[OracleConfig] = None,
) -> CaseOutcome:
    """Oracle entry point for bare source text (corpus replay)."""
    case = FuzzCase.from_source(source, seed=seed)
    return run_case(case, config)
