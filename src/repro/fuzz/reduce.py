"""Delta-debugging reducer: shrink a failing case to a minimal loop.

Given a program the oracle rejects, the reducer searches for the
smallest variant that still fails *with the same failure class*:

* drop whole statements (and the declarations they orphan),
* drop loops other than the one that matters,
* simplify expressions (replace a subtree by one of its operands or by
  a literal),
* shrink the trip count and array extents.

The search is the classic ddmin fixpoint — keep applying the cheapest
rewrite that preserves the failure until nothing applies — and is
deterministic: candidate order is structural, never randomized.

``slms fuzz --save-failures DIR`` writes reduced counterexamples as
corpus files (:func:`write_corpus_entry`, read back by
:func:`load_corpus`).  Moved into ``tests/fuzz/corpus/``, they are
replayed by ``tests/fuzz/test_corpus_replay.py`` on every pytest run,
so every divergence the fuzzer ever finds becomes a permanent
regression test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.fuzz.generator import FuzzCase
from repro.fuzz.oracle import CaseOutcome, OracleConfig, run_case
from repro.lang.ast_nodes import (
    BinOp,
    Decl,
    Expr,
    FloatLit,
    For,
    If,
    IntLit,
    Program,
    Stmt,
    Ternary,
    UnaryOp,
    Var,
    While,
)
from repro.lang.parser import parse_program
from repro.lang.printer import to_source
from repro.lang.visitors import walk
from repro.obs import get_tracer


@dataclass
class ReductionResult:
    """Outcome of one reduction run."""

    original: str
    reduced: str
    failure_class: str
    outcome: CaseOutcome
    steps: int = 0
    tests: int = 0

    @property
    def shrank(self) -> bool:
        return len(self.reduced) < len(self.original)


@dataclass
class _Reducer:
    oracle_seed: int
    failure_class: str
    config: OracleConfig
    max_tests: int = 2000
    tests: int = 0
    steps: int = 0
    last_outcome: Optional[CaseOutcome] = None

    def still_fails(self, program: Program) -> bool:
        """True when the candidate fails with the original class."""
        if self.tests >= self.max_tests:
            return False
        self.tests += 1
        try:
            source = to_source(program)
            case = FuzzCase.from_source(source, seed=self.oracle_seed)
            outcome = run_case(case, self.config)
        except Exception:
            return False  # a candidate the frontend rejects is useless
        if outcome.failed and outcome.failure_class == self.failure_class:
            self.last_outcome = outcome
            return True
        return False


def reduce_case(
    case: FuzzCase,
    outcome: CaseOutcome,
    config: Optional[OracleConfig] = None,
    max_tests: int = 2000,
) -> ReductionResult:
    """Shrink ``case`` while preserving ``outcome.failure_class``."""
    if not outcome.failed:
        raise ValueError("reduce_case needs a failing outcome")
    config = config or OracleConfig()
    red = _Reducer(
        oracle_seed=case.seed,
        failure_class=outcome.failure_class or "",
        config=config,
        max_tests=max_tests,
    )
    program = parse_program(case.source)
    assert red.still_fails(program), "failure did not reproduce"
    best = program

    changed = True
    while changed and red.tests < red.max_tests:
        changed = False
        for rewrite in (_drop_statements, _simplify_exprs, _shrink_ints):
            candidate = rewrite(best, red)
            if candidate is not None:
                best = candidate
                red.steps += 1
                changed = True

    reduced_src = to_source(best)
    final = red.last_outcome or outcome
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "fuzz.reduced",
            seed=case.seed,
            profile=case.profile,
            failure_class=red.failure_class,
            from_bytes=len(case.source),
            to_bytes=len(reduced_src),
            steps=red.steps,
            tests=red.tests,
        )
    return ReductionResult(
        original=case.source,
        reduced=reduced_src,
        failure_class=red.failure_class,
        outcome=final,
        steps=red.steps,
        tests=red.tests,
    )


# ---------------------------------------------------------------------------
# rewrites — each returns a smaller failing program or None


def _body_paths(program: Program) -> List[Tuple[List[Stmt], int]]:
    """Every (statement-list, index) pair, outermost first."""
    paths: List[Tuple[List[Stmt], int]] = []

    def visit(stmts: List[Stmt]) -> None:
        for i, stmt in enumerate(stmts):
            paths.append((stmts, i))
            if isinstance(stmt, (For, While)):
                visit(stmt.body)
            elif isinstance(stmt, If):
                visit(stmt.then)
                visit(stmt.els)

    visit(program.body)
    return paths


def _drop_statements(program: Program, red: _Reducer) -> Optional[Program]:
    """Try deleting one statement anywhere (deepest lists last)."""
    n_paths = len(_body_paths(program))
    for k in range(n_paths):
        trial = program.clone()
        paths = _body_paths(trial)
        if k >= len(paths):
            break
        stmts, i = paths[k]
        del stmts[i]
        trial = _prune_unused_decls(trial)
        if red.still_fails(trial):
            return trial
    return None


def _prune_unused_decls(program: Program) -> Program:
    used = set()
    for node in walk(program):
        if isinstance(node, Var):
            used.add(node.name)
        elif hasattr(node, "name") and not isinstance(node, Decl):
            used.add(getattr(node, "name"))

    def keep(stmt: Stmt) -> bool:
        return not (isinstance(stmt, Decl) and stmt.name not in used)

    return Program(
        [s for s in program.body if keep(s)], program.loc
    )


def _expr_slots(
    program: Program,
) -> List[Tuple[object, str, Expr]]:
    """(owner, attribute, expr) for every replaceable expression slot."""
    slots: List[Tuple[object, str, Expr]] = []
    for node in walk(program):
        for attr in ("value", "cond", "then", "els", "left", "right",
                     "operand"):
            child = getattr(node, attr, None)
            if isinstance(child, Expr) and not isinstance(
                child, (IntLit, FloatLit, Var)
            ):
                slots.append((node, attr, child))
    return slots


def _replacements(expr: Expr) -> List[Expr]:
    if isinstance(expr, BinOp):
        return [expr.left, expr.right]
    if isinstance(expr, UnaryOp):
        return [expr.operand]
    if isinstance(expr, Ternary):
        return [expr.then, expr.els]
    return []


def _simplify_exprs(program: Program, red: _Reducer) -> Optional[Program]:
    """Replace one expression subtree by one of its operands."""
    n_slots = len(_expr_slots(program))
    for k in range(n_slots):
        base_slots = _expr_slots(program)
        if k >= len(base_slots):
            break
        for choice in range(len(_replacements(base_slots[k][2]))):
            trial = program.clone()
            slots = _expr_slots(trial)
            if k >= len(slots):
                break
            owner, attr, expr = slots[k]
            options = _replacements(expr)
            if choice >= len(options):
                continue
            setattr(owner, attr, options[choice].clone())
            if red.still_fails(trial):
                return trial
    return None


def _int_literals(program: Program) -> List[IntLit]:
    return [n for n in walk(program) if isinstance(n, IntLit)]


def _shrink_ints(program: Program, red: _Reducer) -> Optional[Program]:
    """Halve one integer literal (trip counts, extents, offsets)."""
    n = len(_int_literals(program))
    for k in range(n):
        current = _int_literals(program)[k].value
        for smaller in {current // 2, current - 1, 0, 1, 2}:
            if smaller == current or smaller < 0:
                continue
            trial = program.clone()
            lits = _int_literals(trial)
            if k >= len(lits):
                break
            lits[k].value = smaller
            if red.still_fails(trial):
                return trial
    return None


# ---------------------------------------------------------------------------
# corpus persistence


def corpus_filename(
    failure_class: str, seed: int, profile: str
) -> str:
    slug = re.sub(r"[^a-z0-9]+", "_", failure_class.lower()).strip("_")
    return f"{slug}_{profile}_{seed}.c"


def write_corpus_entry(failure, directory: Path) -> Path:
    """Write one fuzz failure (``repro.fuzz.session.FuzzFailure``),
    reduced if available, as a replayable corpus file.

    The header comment records the provenance :func:`load_corpus` reads
    back, and the failure's notes; the replay harness strips it and
    feeds the body back through the oracle.
    """
    header = [
        f"/* fuzz counterexample: {failure.failure_class}",
        f" * generator seed {failure.seed}, profile {failure.profile}",
        f" * detail: {failure.detail[:200]}",
    ]
    if failure.notes:
        header.append(f" * {failure.notes}")
    header.append(" */")
    path = Path(directory) / corpus_filename(
        failure.failure_class, failure.seed, failure.profile
    )
    path.write_text(
        "\n".join(header) + "\n" + (failure.reduced or failure.source)
    )
    return path


@dataclass
class CorpusEntry:
    path: Path
    source: str
    header: str = ""
    expect_seed: Optional[int] = None


def load_corpus(directory: Path) -> List[CorpusEntry]:
    """Read every ``.c`` file in ``directory``, splitting off the header."""
    directory = Path(directory)
    entries: List[CorpusEntry] = []
    if not directory.is_dir():
        return entries
    for path in sorted(directory.glob("*.c")):
        text = path.read_text()
        header = ""
        if text.startswith("/*"):
            end = text.find("*/")
            if end != -1:
                header = text[: end + 2]
                text = text[end + 2 :].lstrip("\n")
        match = re.search(r"generator seed (\d+)", header)
        entries.append(
            CorpusEntry(
                path=path,
                source=text,
                header=header,
                expect_seed=int(match.group(1)) if match else None,
            )
        )
    return entries
