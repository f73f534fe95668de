"""Structured diagnostics for the static verification layer.

Every check in :mod:`repro.verify` reports its findings as
:class:`Diagnostic` records — severity, a stable code, a
:class:`~repro.lang.errors.SourceLocation`, and a human message — so the
CLI can render them as compiler-style ``file:line:col:`` lines, emit
them as JSON, or promote warnings to errors (``--Werror``) without the
checks knowing how they will be displayed.

Codes are grouped by family:

* ``E1xx`` / ``W1xx`` / ``N1xx`` — semantic checker (:mod:`repro.verify.semantic`);
* ``V2xx`` / ``N2xx`` — schedule validator (:mod:`repro.verify.schedule`)
  and the cross-phase IR invariant checker (:mod:`repro.verify.ir_check`,
  ``V21x``);
* ``A3xx`` — the dataflow lint pass (:mod:`repro.verify.lint`).

The full registry lives in :data:`DIAGNOSTIC_CODES`; ``docs/VERIFY.md``
and ``docs/ANALYSIS.md`` document each code with an example.

Machine-readable output is versioned: every ``--json`` emitter stamps
its payload with :data:`DIAG_SCHEMA` so downstream consumers can detect
format drift (pinned in ``tests/verify/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.lang.errors import SourceLocation

# Severities, ordered weakest to strongest.
NOTE = "note"
WARNING = "warning"
ERROR = "error"

_SEVERITY_RANK = {NOTE: 0, WARNING: 1, ERROR: 2}

#: Registry of every diagnostic code with a one-line description.
DIAGNOSTIC_CODES: Dict[str, str] = {
    # -- semantic checker ---------------------------------------------------
    "E101": "scalar is read before any definition can reach it",
    "E102": "duplicate declaration of the same name in one scope",
    "E104": "array subscript has floating-point type",
    "E105": "subscript count does not match the declared rank",
    "E106": "constant subscript is outside the declared bounds",
    "E109": "subscripting a name declared as a scalar",
    "E110": "a declared array is used as a bare scalar",
    "E111": "break/continue outside any loop",
    "E112": "constant integer division or modulo by zero",
    "W103": "declaration shadows an outer declaration",
    "W107": "loop-range subscript can exceed the declared bounds",
    "W108": "float-valued expression assigned to an int scalar",
    "W113": "opaque call defeats dependence analysis",
    "W115": "first iteration reads a scalar before its in-loop definition",
    "N120": "loop is not in canonical counted form; SLMS will decline",
    # -- schedule validator -------------------------------------------------
    "V201": "dependence edge violates d*II + sigma(dst) - sigma(src) >= delta",
    "V202": "II / stage-count bookkeeping is inconsistent",
    "V203": "re-derived dependence graph is imprecise for an applied result",
    "V204": "prologue+kernel+epilogue do not cover the iteration space exactly",
    "V205": "emitted statement order violates a dependence",
    "V206": "MVE/scalar-expansion renaming is not def-use consistent",
    "V207": "emitted statement matches no multi-instruction",
    "N208": "structural validation skipped for this result shape",
    # -- cross-phase IR invariant checker ------------------------------------
    "V210": "MI partition does not cover the loop body exactly once",
    "V211": "introduced scalar is used before any definition reaches it",
    "V212": "LIR instruction has an unknown opcode or branch target",
    "V213": "LIR register operand is outside the register file",
    "V214": "LIR memory operation names an undeclared array",
    "V215": "LIR instruction operand shape is unsound for its opcode",
    "V216": "LIR constant address is outside the array's extent",
    "V217": "LIR conditional branch is not the last instruction of its block",
    # -- dataflow lint (slms lint) -------------------------------------------
    "A301": "array subscript range is provably out of bounds",
    "A302": "array subscript cannot be proven in bounds",
    "A303": "every array subscript in the loop is proven in bounds",
    "A304": "stored value is overwritten before any read (dead store)",
    "A305": "scalar may be read before initialization",
    "A306": "estimated register pressure exceeds the machine register file",
    "A307": "loop register-pressure estimate",
}

#: Version tag for the diagnostics JSON wire format (``slms check --json``
#: and ``slms lint --json``).  Bump on any change to the payload shape.
DIAG_SCHEMA = "slms-diag/1"


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a static check.

    ``severity`` is :data:`ERROR`, :data:`WARNING`, or :data:`NOTE`;
    ``code`` is a key of :data:`DIAGNOSTIC_CODES`; ``loc`` is the best
    known source position (``SourceLocation(0, 0)`` means unknown and is
    never printed).
    """

    severity: str
    code: str
    loc: SourceLocation
    message: str

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")

    def format(self, path: Optional[str] = None) -> str:
        """Compiler-style one-liner: ``file:line:col: severity: [code] msg``."""
        parts: List[str] = []
        if path:
            parts.append(path)
        if self.loc.line > 0:
            parts.append(str(self.loc))
        prefix = ":".join(parts)
        body = f"{self.severity}: [{self.code}] {self.message}"
        return f"{prefix}: {body}" if prefix else body

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation for ``slms check --json``."""
        return {
            "severity": self.severity,
            "code": self.code,
            "line": self.loc.line,
            "col": self.loc.col,
            "message": self.message,
        }


def error(code: str, loc: Optional[SourceLocation], message: str) -> Diagnostic:
    return Diagnostic(ERROR, code, loc or SourceLocation(), message)


def warning(code: str, loc: Optional[SourceLocation], message: str) -> Diagnostic:
    return Diagnostic(WARNING, code, loc or SourceLocation(), message)


def note(code: str, loc: Optional[SourceLocation], message: str) -> Diagnostic:
    return Diagnostic(NOTE, code, loc or SourceLocation(), message)


def has_errors(diags: Iterable[Diagnostic], werror: bool = False) -> bool:
    """True when any diagnostic is an error (warnings too under --Werror)."""
    floor = WARNING if werror else ERROR
    return any(
        _SEVERITY_RANK[d.severity] >= _SEVERITY_RANK[floor] for d in diags
    )


def json_payload(
    path: str,
    diags: Iterable[Diagnostic],
    werror: bool = False,
    **extra: object,
) -> Dict[str, object]:
    """The shared ``--json`` shape for ``slms check`` / ``slms lint``.

    Always carries :data:`DIAG_SCHEMA` under ``"schema"`` plus the file,
    overall verdict, and the sorted diagnostic list; subcommand-specific
    fields ride along via ``extra``.
    """
    diags = sort_diagnostics(diags)
    payload: Dict[str, object] = {
        "schema": DIAG_SCHEMA,
        "file": path,
        "ok": not has_errors(diags, werror=werror),
        "diagnostics": [d.to_dict() for d in diags],
    }
    payload.update(extra)
    return payload


def sort_diagnostics(diags: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable order: by source position, severe first at equal positions."""
    return sorted(
        diags,
        key=lambda d: (
            d.loc.line,
            d.loc.col,
            -_SEVERITY_RANK[d.severity],
            d.code,
        ),
    )


@dataclass
class DiagnosticBag:
    """Mutable collector shared by the checker passes."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def error(self, code: str, loc, message: str) -> None:
        self.add(error(code, loc, message))

    def warning(self, code: str, loc, message: str) -> None:
        self.add(warning(code, loc, message))

    def note(self, code: str, loc, message: str) -> None:
        self.add(note(code, loc, message))

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)
