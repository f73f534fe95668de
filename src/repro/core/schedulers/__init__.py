"""Source-level scheduling backends (docs/SCHEDULERS.md).

The paper's scheduler is *implicit*: SLMS never reorders MIs, so the
placement is fixed (MI at list position ``m`` of iteration ``k`` sits at
row ``k·II + m``) and "scheduling" is the smallest-II search of
:func:`repro.core.mii.find_valid_ii` under the per-edge rule
:data:`repro.core.mii.EDGE_NEED`.  ``SLMSOptions(scheduler="exact")``
adds one question on top — *is that fixed placement optimal for this MI
partition?* — answered by :func:`repro.core.schedulers.exact.refine`,
the one call the driver makes into this package.

A :class:`SourceSchedule` is an II plus a permutation ``order`` of the
MI list: ``order[r]`` is the input index of the MI placed at intra-
iteration row offset ``r``.  Because every downstream pass (MVE, scalar
expansion, emission, the V2xx validator) works off list position, a
non-identity permutation is applied by simply reordering the MI list
and rebuilding the DDG — the permuted body is sequentially equivalent
(distance-0 dependences force relative order to be preserved;
distance ≥ 1 dependences are between iterations and hold under any
intra-iteration order).

``resource_mii`` is a *source-level* resMII lifted from the
machine-level formula in ``backend/ims.py`` — per-iteration op-class
census divided by the parametric FU mix of ``machines/model.py``.  The
paper's scheduler deliberately ignores resources (§7), so resMII is
reported, never enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lang.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Stmt,
    Ternary,
    UnaryOp,
)
from repro.lang.visitors import walk
from repro.machines.model import MachineModel, res_mii_for_counts

#: The values ``SLMSOptions.scheduler`` accepts: the paper's fixed
#: placement and the exact placement search.
SCHEDULER_NAMES = ("exact", "heuristic")


@dataclass(frozen=True)
class SourceSchedule:
    """One scheduler answer: an II and an MI placement.

    ``order`` is a permutation of ``range(n)``; ``order[r]`` is the
    index, in the scheduler's input MI list, of the MI placed at row
    offset ``r``.  The identity permutation is the paper's placement.

    ``proven_optimal`` means the search *proved* no smaller II admits
    any placement (for the given MI partition).  ``exhausted`` records
    that the node budget ran out somewhere below the returned II, so a
    smaller II may exist — such results are never reported as optimal.
    """

    ii: int
    order: Tuple[int, ...]
    backend: str
    proven_optimal: bool = False
    exhausted: bool = False
    nodes: int = 0

    @property
    def is_identity(self) -> bool:
        return self.order == tuple(range(len(self.order)))


def op_class_counts(
    mis: List[Stmt], types: Optional[Dict[str, str]] = None
) -> Dict[str, int]:
    """Per-iteration op-class census of an MI list (source level).

    Mirrors the backend's classification without lowering: every array
    reference is one ``mem`` access (a compound store like ``A[i] += e``
    is a load *and* a store), float add/sub is ``fadd``, float multiply
    ``fmul``, divide/mod ``div``, and integer/compare/select arithmetic
    ``alu``.  Scalar reads/writes are register traffic and free; the
    loop branch is excluded, as in ``backend/ims.py``'s ``res_mii``.
    """
    from repro.core.slms import _infer_type

    types = dict(types or {})
    counts = {"alu": 0, "fadd": 0, "fmul": 0, "div": 0, "mem": 0}

    def classify(node) -> None:
        if isinstance(node, ArrayRef):
            counts["mem"] += 1
        elif isinstance(node, BinOp):
            if node.op in ("/", "%"):
                counts["div"] += 1
            elif node.op in ("+", "-"):
                if _infer_type(node, types) == "float":
                    counts["fadd"] += 1
                else:
                    counts["alu"] += 1
            elif node.op == "*":
                if _infer_type(node, types) == "float":
                    counts["fmul"] += 1
                else:
                    counts["alu"] += 1
            else:  # comparisons, &&, ||
                counts["alu"] += 1
        elif isinstance(node, UnaryOp):
            if node.op != "+":
                counts["alu"] += 1
        elif isinstance(node, (Ternary, Call)):
            counts["alu"] += 1

    for stmt in mis:
        for node in walk(stmt):
            classify(node)
        if isinstance(stmt, Assign) and stmt.op is not None:
            # Compound form: the operator is not a BinOp node in the
            # AST, and an ArrayRef target is read *and* written.
            if isinstance(stmt.target, ArrayRef):
                counts["mem"] += 1
            is_float = "float" in (
                _infer_type(stmt.target, types),
                _infer_type(stmt.value, types),
            )
            if stmt.op in ("/", "%"):
                counts["div"] += 1
            elif stmt.op in ("+", "-"):
                counts["fadd" if is_float else "alu"] += 1
            elif stmt.op == "*":
                counts["fmul" if is_float else "alu"] += 1
            else:
                counts["alu"] += 1
    return counts


def resource_mii(
    mis: List[Stmt],
    machine: MachineModel,
    types: Optional[Dict[str, str]] = None,
) -> int:
    """Source-level resMII: ``max over classes ⌈uses/units⌉`` plus the
    issue-width bound, via the formula shared with ``backend/ims.py``."""
    return res_mii_for_counts(machine, op_class_counts(mis, types))
