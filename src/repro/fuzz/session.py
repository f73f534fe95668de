"""Fuzz sessions: seed-schedule, fan-out, report, failure persistence.

A session is a deterministic function of ``(master seed, iterations,
profile, oracle config)``: the per-case seeds come from
:func:`repro.fuzz.generator.case_seeds` before any work is scheduled,
each case is evaluated by a pure module-level worker function, and
results are collected in schedule order through
:func:`repro.harness.engine.run_tasks`.  Consequences:

* ``--workers 4`` produces byte-identical reports to ``--workers 1``;
* re-running with the same seed reproduces the same report;
* the JSON report contains no wall-clock or host-specific fields — the
  determinism test diffs two runs byte-for-byte.

Failing cases are reduced in-worker (delta debugging is deterministic
too) and the parent optionally writes them under ``--save-failures``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.fuzz.generator import (
    PROFILES,
    case_seeds,
    generate_case,
)
from repro.fuzz.oracle import OracleConfig, run_case
from repro.fuzz.reduce import reduce_case, write_corpus_entry
from repro.harness.engine import check_settings, run_tasks
from repro.harness.faults import RunJournal, is_failed
from repro.obs import digest_of, get_metrics, get_tracer

REPORT_SCHEMA = "slms-fuzz/1"

# Oracle runs one failing case may spend on delta debugging.
_MAX_REDUCE_TESTS = 400


@dataclass(frozen=True)
class FuzzSessionConfig:
    """Inputs of one session (everything the report is a function of)."""

    master_seed: int = 0
    iterations: int = 100
    profile: str = "all"  # a PROFILES key, or "all" to rotate
    workers: Optional[int] = 1
    oracle: OracleConfig = field(default_factory=OracleConfig)
    reduce_failures: bool = True

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError(
                f"iterations must be >= 0, got {self.iterations}"
            )
        check_settings(self.workers)

    def profiles_schedule(self) -> List[str]:
        """Profile of case *i* is ``schedule[i % len(schedule)]``."""
        if self.profile == "all":
            return sorted(PROFILES)
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}; choose from "
                f"{sorted(PROFILES)} or 'all'"
            )
        return [self.profile]


@dataclass
class FuzzFailure:
    """One failing case, ready to persist and replay."""

    seed: int
    profile: str
    failure_class: str
    detail: str
    source: str
    reduced: str = ""
    # Side observations that must not be lost but are not the failure
    # itself — e.g. "reducer-error: ..." when delta debugging crashed
    # and the unreduced source was kept.
    notes: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "failure_class": self.failure_class,
            "detail": self.detail,
            "source": self.source,
            "reduced": self.reduced,
            "notes": self.notes,
        }


@dataclass
class FuzzReport:
    """Aggregated session outcome; ``to_json`` is byte-deterministic."""

    master_seed: int
    iterations: int
    profile: str
    oracle: Dict[str, Any]
    status_counts: Dict[str, int] = field(default_factory=dict)
    failure_counts: Dict[str, int] = field(default_factory=dict)
    decline_reasons: Dict[str, int] = field(default_factory=dict)
    applied_loops: int = 0
    declined_loops: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "master_seed": self.master_seed,
            "iterations": self.iterations,
            "profile": self.profile,
            "oracle": dict(sorted(self.oracle.items())),
            "status_counts": dict(sorted(self.status_counts.items())),
            "failure_counts": dict(sorted(self.failure_counts.items())),
            "decline_reasons": dict(sorted(self.decline_reasons.items())),
            "applied_loops": self.applied_loops,
            "declined_loops": self.declined_loops,
            "failures": [f.to_dict() for f in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def summary_line(self) -> str:
        parts = [
            f"{self.iterations} cases",
            f"seed {self.master_seed}",
            f"profile {self.profile}",
            f"{self.status_counts.get('ok', 0)} ok",
            f"{self.status_counts.get('declined', 0)} declined",
            f"{len(self.failures)} failures",
        ]
        return ", ".join(parts)


def _eval_case(task: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: generate, judge, and maybe reduce one case.

    Must stay a picklable module-level function of one picklable
    argument (see :func:`repro.harness.engine.run_tasks`); returns
    plain dicts so the parent never unpickles custom types.
    """
    config = OracleConfig(**task["oracle"])
    case = generate_case(task["seed"], task["profile"])
    outcome = run_case(case, config)
    payload = outcome.to_dict()
    payload["source"] = case.source
    payload["reduced"] = ""
    payload["notes"] = ""
    if outcome.failed and task["reduce"]:
        try:
            reduction = reduce_case(
                case, outcome, config, max_tests=_MAX_REDUCE_TESTS
            )
            payload["reduced"] = reduction.reduced
        except Exception as exc:
            # The reducer must never mask the finding — keep the
            # unreduced source, but record that reduction crashed so
            # the reducer bug is triaged too instead of vanishing.
            payload["reduced"] = case.source
            payload["notes"] = (
                f"reducer-error: {type(exc).__name__}: {exc}"
            )
    return payload


def _harness_error_payload(failure, task: Dict[str, Any]) -> Dict[str, Any]:
    """Case payload for a task the harness failed (crash/hang/timeout).

    A worker that dies or hangs yields a
    :class:`~repro.harness.faults.FailedResult` instead of an oracle
    payload; surface it as its own ``harness-error`` failure class so a
    chaotic environment never silently shrinks the session.
    """
    return {
        "status": "error",
        "failure_class": "harness-error",
        "detail": f"{failure.kind} in {failure.phase}: {failure.message}",
        "seed": task["seed"],
        "profile": task["profile"],
        "source": "",
        "reduced": "",
        "notes": "",
        "applied_loops": 0,
        "declined_loops": 0,
        "decline_reasons": [],
    }


def run_fuzz_session(
    config: FuzzSessionConfig,
    journal_path: Optional[str] = None,
    resume: bool = False,
) -> FuzzReport:
    """Run one session; deterministic in ``config``.

    ``journal_path`` checkpoints each completed case to a
    :class:`~repro.harness.faults.RunJournal` keyed by the case's
    content hash; ``resume=True`` replays its ``ok`` records, so an
    interrupted session picks up where it was killed and produces the
    same report an uninterrupted run would.
    """
    tracer = get_tracer()
    schedule = config.profiles_schedule()
    seeds = case_seeds(config.master_seed, config.iterations)
    tasks = [
        {
            "seed": seed,
            "profile": schedule[i % len(schedule)],
            "oracle": config.oracle.to_dict(),
            "reduce": config.reduce_failures,
        }
        for i, seed in enumerate(seeds)
    ]
    journal = (
        RunJournal(journal_path, resume=resume) if journal_path else None
    )

    with tracer.span(
        "fuzz.session",
        master_seed=config.master_seed,
        iterations=config.iterations,
        profile=config.profile,
    ) as span:
        try:
            raw = run_tasks(
                _eval_case,
                tasks,
                workers=config.workers,
                journal=journal,
                keys=[digest_of(task) for task in tasks] if journal else None,
            )
        finally:
            if journal is not None:
                journal.close()
        raw = [
            _harness_error_payload(item, tasks[i]) if is_failed(item) else item
            for i, item in enumerate(raw)
        ]
        report = FuzzReport(
            master_seed=config.master_seed,
            iterations=config.iterations,
            profile=config.profile,
            oracle=config.oracle.to_dict(),
        )
        for payload in raw:
            status = payload["status"]
            report.status_counts[status] = (
                report.status_counts.get(status, 0) + 1
            )
            report.applied_loops += payload["applied_loops"]
            report.declined_loops += payload["declined_loops"]
            for reason in payload["decline_reasons"]:
                report.decline_reasons[reason] = (
                    report.decline_reasons.get(reason, 0) + 1
                )
            if status in ("fail", "error"):
                cls = payload["failure_class"] or "unknown"
                report.failure_counts[cls] = (
                    report.failure_counts.get(cls, 0) + 1
                )
                report.failures.append(
                    FuzzFailure(
                        seed=payload["seed"],
                        profile=payload["profile"],
                        failure_class=cls,
                        detail=payload["detail"],
                        source=payload["source"],
                        reduced=payload["reduced"],
                        notes=payload.get("notes", ""),
                    )
                )
        registry = get_metrics()
        registry.counter("fuzz.cases").inc(config.iterations)
        registry.counter("fuzz.failures").inc(len(report.failures))
        registry.counter("fuzz.applied_loops").inc(report.applied_loops)
        if tracer.enabled:
            span.set(
                failures=len(report.failures),
                ok=report.status_counts.get("ok", 0),
                declined=report.status_counts.get("declined", 0),
            )
    return report


def save_failures(report: FuzzReport, directory: Path) -> List[Path]:
    """Write each failure as a corpus file
    (:func:`~repro.fuzz.reduce.write_corpus_entry`) for later triage."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [write_corpus_entry(failure, directory)
            for failure in report.failures]


__all__ = [
    "REPORT_SCHEMA",
    "FuzzSessionConfig",
    "FuzzFailure",
    "FuzzReport",
    "run_fuzz_session",
    "save_failures",
]
