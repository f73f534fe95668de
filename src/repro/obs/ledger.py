"""The run ledger: a durable, append-only history of engine runs.

The tracer and metrics registry (PR 3) and the cache tiers (PR 7) emit
rich telemetry — spans, counters, per-tier hit rates, fault journal
records — but all of it dies with the process.  The ledger is the
durable complement: every CLI engine run (``sweep`` / ``bench`` /
``fuzz`` / ``trace``) appends **one** self-contained JSON line
(schema ``slms-ledger/1``) capturing

* what ran — ``kind``, ``label``, a ``config`` summary and its
  canonical-JSON ``config_digest``;
* what came out — ``result_digest`` (for sweeps: the SHA-256 of
  ``SweepResult.to_json()``, directly comparable with the frozen
  digest pinned in ``BENCH_sweep.json``);
* what it cost — wall clock, per-phase *work* seconds
  (``phase_times``) vs. seconds *served from the phase cache*
  (``cached_phase_times``), full-cache traffic, per-tier hit rates,
  per-experiment latency percentiles;
* what went wrong — fault-layer counts (failures / retries /
  quarantined / timeouts);
* where it ran — an environment fingerprint (python, platform, CPU
  count, engine version).

Entries are *content addressed*: ``id`` is the SHA-256 of the
canonical JSON of everything else in the record, so a ledger line can
be verified, deduplicated and referenced by unambiguous prefix.  The
store is one JSONL file under ``SLMS_LEDGER_DIR`` (default
``~/.cache/slms/ledger``), appended with line-grained flushes and read
with the same torn-tail tolerance as the fault journal
(:class:`repro.harness.faults.RunJournal`): a half-written final line
from a killed process is skipped, never fatal.  Set ``SLMS_LEDGER=0``
to disable recording entirely.

The ledger is observability, never correctness: every I/O failure
degrades to a no-op, and recording cannot change results (the frozen
sweep digest is unchanged with the ledger enabled — that is a CI
gate).  Consumers: ``slms report`` (dashboard), ``slms obs diff``
(regression sentinel), ``slms obs bench-export`` (BENCH-schema
records), and the upcoming ``slms serve`` (per-request history).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

LEDGER_SCHEMA = "slms-ledger/1"

#: The run kinds a ledger entry may carry.
LEDGER_KINDS = ("sweep", "bench", "fuzz", "trace", "serve")


def default_ledger_dir() -> Path:
    env = os.environ.get("SLMS_LEDGER_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "slms" / "ledger"


def ledger_enabled() -> bool:
    """Recording is on unless ``SLMS_LEDGER`` says otherwise."""
    return os.environ.get("SLMS_LEDGER", "1").lower() not in (
        "0", "false", "no", "off",
    )


def digest_of(payload: Any) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def read_jsonl(path: str | Path) -> Iterator[Dict[str, Any]]:
    """The JSON-object lines of a JSONL file, in file order.

    The one reader of the append-only stores (the ledger, the fault
    journal): blank lines, undecodable ones (the torn tail a killed
    writer leaves) and lines holding a JSON value that is not an object
    are skipped, and a missing or unreadable file yields nothing.
    """
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    yield record
    except OSError:
        return


def environment_fingerprint() -> Dict[str, Any]:
    """Where a run happened, as far as perf comparability goes."""
    # Local import: obs stays import-light and cycle-free (expcache
    # pulls in the backend/core layers).
    from repro.harness.expcache import ENGINE_VERSION

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "engine_version": ENGINE_VERSION,
    }


def make_entry(
    kind: str,
    label: str,
    *,
    config: Optional[Mapping[str, Any]] = None,
    result_digest: Optional[str] = None,
    experiments: int = 0,
    workers: int = 1,
    wall_s: float = 0.0,
    phase_times: Optional[Mapping[str, float]] = None,
    cached_phase_times: Optional[Mapping[str, float]] = None,
    cache: Optional[Mapping[str, Any]] = None,
    tiers: Optional[Mapping[str, Mapping[str, Any]]] = None,
    faults: Optional[Mapping[str, int]] = None,
    latency: Optional[Mapping[str, float]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one ledger record (without its content-addressed id).

    Every argument is plain JSON-able data — the CLI composes entries
    from :class:`~repro.harness.engine.EngineStats` / sweep / fuzz
    reports so this module never imports the harness.  ``config`` is a
    small summary of the run's inputs; its canonical digest
    (``config_digest``) is what the regression sentinel uses to decide
    two entries are comparable.
    """
    if kind not in LEDGER_KINDS:
        raise ValueError(
            f"unknown ledger kind {kind!r}; expected one of {LEDGER_KINDS}"
        )
    config = dict(config or {})
    entry: Dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "ts": round(time.time(), 3),
        "kind": kind,
        "label": label,
        "config": config,
        "config_digest": digest_of(config),
        "result_digest": result_digest,
        "experiments": int(experiments),
        "workers": int(workers),
        "wall_s": round(float(wall_s), 6),
        "phase_times": {
            k: round(float(v), 6) for k, v in (phase_times or {}).items()
        },
        "cached_phase_times": {
            k: round(float(v), 6)
            for k, v in (cached_phase_times or {}).items()
        },
        "cache": dict(cache or {}),
        "tiers": {t: dict(rec) for t, rec in (tiers or {}).items()},
        "faults": dict(faults or {}),
        "latency": {
            k: round(float(v), 6) for k, v in (latency or {}).items()
        },
        "env": environment_fingerprint(),
    }
    if extra:
        entry["extra"] = dict(extra)
    return entry


def entry_from_stats(
    kind: str,
    label: str,
    stats: Mapping[str, Any],
    *,
    config: Optional[Mapping[str, Any]] = None,
    result_digest: Optional[str] = None,
    latency: Optional[Mapping[str, float]] = None,
    cached_phase_times: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """Ledger record from an ``EngineStats.to_dict()`` payload."""
    tiers = {
        tier: {
            "hits": rec.get("hits", 0),
            "misses": rec.get("misses", 0),
            "hit_rate": rec.get("hit_rate", 0.0),
        }
        for tier, rec in (stats.get("phase_cache") or {}).items()
    }
    faults = {
        name: int(stats.get(name, 0))
        for name in ("failures", "retries", "quarantined", "timeouts",
                     "journal_hits")
        if stats.get(name)
    }
    return make_entry(
        kind,
        label,
        config=config,
        result_digest=result_digest,
        experiments=int(stats.get("experiments", 0)),
        workers=int(stats.get("workers", 1)),
        wall_s=float(stats.get("wall_s", 0.0)),
        phase_times=stats.get("phase_totals_s") or {},
        cached_phase_times=(
            cached_phase_times
            if cached_phase_times is not None
            else stats.get("cached_phase_totals_s") or {}
        ),
        cache={
            "hits": int(stats.get("cache_hits", 0)),
            "misses": int(stats.get("cache_misses", 0)),
            "hit_rate": float(stats.get("cache_hit_rate", 0.0)),
            "evictions": int(stats.get("cache_evictions", 0)),
        },
        tiers=tiers,
        faults=faults,
        latency=latency,
        extra={"worker_utilization": stats.get("worker_utilization", 0.0)},
    )


class RunLedger:
    """Append-only JSONL store of ledger entries.

    One file (``ledger.jsonl``) per directory; writes are appended and
    flushed per line so a SIGKILL loses at most the in-flight entry,
    and :func:`read_jsonl` skips undecodable lines (torn tails) exactly
    as it does for :class:`~repro.harness.faults.RunJournal`.  All I/O
    errors degrade to no-ops/empty reads — the ledger must never take a
    run down.
    """

    FILENAME = "ledger.jsonl"

    def __init__(self, directory: Optional[str | Path] = None):
        self.dir = Path(directory) if directory else default_ledger_dir()
        self.path = self.dir / self.FILENAME

    # -- writing -------------------------------------------------------
    def append(self, entry: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        """Seal ``entry`` with its content-addressed id and persist it.

        Returns the sealed record, or ``None`` when the write failed
        (read-only filesystem and the like — silently tolerated).
        """
        record = dict(entry)
        record.pop("id", None)
        record["id"] = digest_of(record)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
        except OSError:
            return None
        return record

    # -- reading -------------------------------------------------------
    def entries(
        self, kind: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """All decodable records, oldest first (torn tails skipped).

        ``limit`` keeps only the newest ``limit`` of them (0 keeps none);
        a negative limit raises :class:`ValueError`.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"entry limit must be >= 0, got {limit}")
        records = [
            record
            for record in read_jsonl(self.path)
            if record.get("schema") == LEDGER_SCHEMA
            and (kind is None or record.get("kind") == kind)
        ]
        if limit is not None:
            records = records[-limit:] if limit else []
        return records

    def latest(self, kind: Optional[str] = None) -> Optional[Dict[str, Any]]:
        records = self.entries(kind=kind)
        return records[-1] if records else None

    def resolve(self, ref: str, kind: Optional[str] = None) -> Dict[str, Any]:
        """Find one entry by reference.

        ``HEAD`` is the newest entry, ``HEAD~N`` the N-th before it
        (git-style), anything else an unambiguous ``id`` prefix.
        Raises :class:`ValueError` with the valid options when the
        reference is unknown or ambiguous.
        """
        records = self.entries(kind=kind)
        if not records:
            raise ValueError(
                f"ledger at {self.path} has no entries"
                + (f" of kind {kind!r}" if kind else "")
            )
        ref = ref.strip()
        if ref.upper() == "HEAD":
            return records[-1]
        if ref.upper().startswith("HEAD~"):
            try:
                back = int(ref[5:])
            except ValueError:
                raise ValueError(f"bad ledger reference {ref!r}") from None
            if back < 0 or back >= len(records):
                raise ValueError(
                    f"{ref} is out of range: ledger has "
                    f"{len(records)} entr(ies)"
                )
            return records[-1 - back]
        matches = [
            record for record in records
            if str(record.get("id", "")).startswith(ref)
        ]
        if not matches:
            raise ValueError(
                f"no ledger entry matches {ref!r}; "
                "use HEAD, HEAD~N or an id prefix (see 'slms obs ledger')"
            )
        distinct = {record["id"] for record in matches}
        if len(distinct) > 1:
            raise ValueError(
                f"ambiguous ledger reference {ref!r} "
                f"({len(distinct)} matches); use a longer prefix"
            )
        return matches[-1]

    def verify(self) -> List[str]:
        """Re-derive every entry's content address; returns problems."""
        problems: List[str] = []
        for pos, record in enumerate(self.entries()):
            body = {k: v for k, v in record.items() if k != "id"}
            expect = digest_of(body)
            if record.get("id") != expect:
                problems.append(
                    f"entry[{pos}] id {str(record.get('id'))[:12]}… does not "
                    f"match its content (expected {expect[:12]}…)"
                )
        return problems


def render_entries(entries: Iterable[Mapping[str, Any]]) -> str:
    """One-line-per-entry listing for ``slms obs ledger``."""
    lines: List[str] = []
    for record in entries:
        ts = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(record.get("ts", 0))
        )
        digest = record.get("result_digest") or ""
        faults = record.get("faults") or {}
        flag = " FAULTS" if faults.get("failures") else ""
        lines.append(
            f"{str(record.get('id', ''))[:12]}  {ts}  "
            f"{record.get('kind', '?'):<5} "
            f"{record.get('experiments', 0):>4} exp "
            f"{record.get('wall_s', 0.0):>8.3f}s  "
            f"{digest[:12]}{'…' if digest else '':<1}  "
            f"{record.get('label', '')}{flag}"
        )
    return "\n".join(lines)
