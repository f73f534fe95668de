"""``slms report``: terminal + self-contained HTML dashboard.

The report aggregates what the rest of the obs layer records —

* the **ledger trajectory** (``slms-ledger/1`` entries: wall clock,
  result digests, cache hit rates, fault counts over time),
* a **profiler table** (an ``slms-profile/1`` fold of the latest run's
  phase work),
* **cache-tier stats** (per-tier hit/miss from the phase cache),
* a **fault-journal summary** (ok/failed record counts from an
  ``slms-journal/1`` checkpoint file)

— into one document.  The HTML renderer is deliberately primitive:
pure stdlib string assembly, one ``<style>`` block, no scripts, no
external URLs of any kind, so the file can be attached to a CI run or
mailed around and will render identically forever.  ``slms serve``
(ROADMAP) will stream the same :func:`build_report` payload as JSON.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.obs.ledger import read_jsonl

REPORT_SCHEMA = "slms-report/1"


# ---------------------------------------------------------------------------
# Fault-journal summary
# ---------------------------------------------------------------------------

def summarize_journal(path: Union[str, Path]) -> Dict[str, Any]:
    """Torn-tail-tolerant summary of an ``slms-journal/1`` file.

    Counts records by status; a missing or unreadable file is an empty
    summary, not an error, because the journal is optional telemetry.
    """
    statuses: Dict[str, int] = {}
    records = 0
    for record in read_jsonl(path):
        records += 1
        status = str(record.get("status", "unknown"))
        statuses[status] = statuses.get(status, 0) + 1
    return {
        "path": str(path),
        "records": records,
        "ok": statuses.get("ok", 0),
        "failed": sum(
            count for status, count in statuses.items() if status != "ok"
        ),
        "statuses": dict(sorted(statuses.items())),
    }


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def build_report(
    entries: Sequence[Mapping[str, Any]],
    *,
    profile: Optional[Mapping[str, Any]] = None,
    journal: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the dashboard payload.

    ``entries`` is a ledger trajectory, oldest first (the shape
    :meth:`RunLedger.entries` returns); the most recent entry is the
    "current run" whose cache/fault detail gets the spotlight.
    ``profile`` is an optional ``slms-profile/1`` dict; ``journal`` an
    optional :func:`summarize_journal` result.
    """
    entries = [dict(e) for e in entries]
    head = entries[-1] if entries else None
    digests = {
        str(e.get("result_digest")) for e in entries if e.get("result_digest")
    }
    report: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "runs": len(entries),
        "kinds": sorted({str(e.get("kind", "?")) for e in entries}),
        "distinct_result_digests": len(digests),
        "head": head,
        "trajectory": [
            {
                "id": str(e.get("id", ""))[:12],
                "ts": e.get("ts"),
                "kind": e.get("kind"),
                "label": e.get("label"),
                "experiments": e.get("experiments"),
                "workers": e.get("workers"),
                "wall_s": e.get("wall_s"),
                "result_digest": str(e.get("result_digest") or "")[:12],
                "cache_hit_rate": (e.get("cache") or {}).get("hit_rate"),
                "failures": (e.get("faults") or {}).get("failures", 0),
            }
            for e in entries
        ],
    }
    if profile:
        report["profile"] = dict(profile)
    if journal:
        report["journal"] = dict(journal)
    return report


# ---------------------------------------------------------------------------
# Terminal renderer
# ---------------------------------------------------------------------------

def _fmt_s(value: Any) -> str:
    try:
        return f"{float(value):.3f}"
    except (TypeError, ValueError):
        return "-"


def render_report_text(report: Mapping[str, Any]) -> str:
    lines: List[str] = []
    lines.append(
        f"slms report — {report.get('runs', 0)} run(s), "
        f"kinds: {', '.join(report.get('kinds') or []) or 'none'}, "
        f"{report.get('distinct_result_digests', 0)} distinct result "
        "digest(s)"
    )
    trajectory = report.get("trajectory") or []
    if trajectory:
        lines.append("")
        lines.append(
            f"{'id':<13} {'kind':<6} {'label':<22} {'exps':>5} "
            f"{'wall s':>9} {'hit rate':>9} {'digest':<13}"
        )
        for row in trajectory:
            rate = row.get("cache_hit_rate")
            rate_s = f"{rate:.1%}" if isinstance(rate, (int, float)) else "-"
            lines.append(
                f"{row.get('id', ''):<13} {str(row.get('kind', '')):<6} "
                f"{str(row.get('label', ''))[:22]:<22} "
                f"{row.get('experiments') or 0:>5} "
                f"{_fmt_s(row.get('wall_s')):>9} {rate_s:>9} "
                f"{row.get('result_digest', ''):<13}"
            )
    head = report.get("head") or {}
    phase_times = head.get("phase_times") or {}
    if phase_times:
        lines.append("")
        lines.append("latest run phase work (s):")
        for phase, seconds in phase_times.items():
            lines.append(f"  {phase:<12} {_fmt_s(seconds)}")
    cached = head.get("cached_phase_times") or {}
    if cached:
        lines.append("latest run seconds served from cache:")
        for phase, seconds in cached.items():
            lines.append(f"  {phase:<12} {_fmt_s(seconds)}")
    tiers = head.get("tiers") or {}
    if tiers:
        lines.append("")
        lines.append("phase-cache tiers (latest run):")
        for tier, stats in tiers.items():
            hits = (stats or {}).get("hits", 0)
            misses = (stats or {}).get("misses", 0)
            total = hits + misses
            rate = f"{hits / total:.1%}" if total else "-"
            lines.append(
                f"  {tier:<12} hits={hits:<6} misses={misses:<6} rate={rate}"
            )
    latency = head.get("latency") or {}
    if latency:
        lines.append("")
        lines.append(
            "latency: "
            + "  ".join(f"{k}={latency[k]}" for k in sorted(latency))
        )
    profile = report.get("profile") or {}
    rows = profile.get("rows") or []
    if rows:
        lines.append("")
        lines.append("profiler (top spans by total time):")
        lines.append(
            f"  {'span':<24} {'count':>7} {'total ms':>12} {'self ms':>12}"
        )
        for row in rows[:15]:
            lines.append(
                f"  {str(row.get('name', '')):<24} {row.get('count', 0):>7} "
                f"{row.get('total_ms', 0.0):>12.3f} "
                f"{row.get('self_ms', 0.0):>12.3f}"
            )
    journal = report.get("journal") or {}
    if journal.get("records"):
        lines.append("")
        lines.append(
            f"fault journal {journal.get('path')}: "
            f"{journal['records']} record(s), {journal.get('ok', 0)} ok, "
            f"{journal.get('failed', 0)} failed"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# HTML renderer (self-contained: inline CSS, no scripts, no URLs)
# ---------------------------------------------------------------------------

_CSS = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2rem auto; max-width: 72rem; color: #1a1a2e;
       background: #fafafa; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #1a1a2e; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { border: 1px solid #ccc; padding: 0.3rem 0.5rem;
         text-align: right; }
th { background: #e8e8f0; }
td.l, th.l { text-align: left; }
tr.head-run { background: #eef6ee; }
.digest { color: #555; }
.fail { color: #a00; font-weight: bold; }
.summary { color: #333; }
"""


def _cell(value: Any, left: bool = False) -> str:
    cls = ' class="l"' if left else ""
    return f"<td{cls}>{html.escape(str(value))}</td>"


def render_report_html(report: Mapping[str, Any]) -> str:
    """Single-file dashboard: one ``<style>`` block, zero external refs."""
    parts: List[str] = []
    parts.append("<!DOCTYPE html>")
    parts.append('<html lang="en"><head><meta charset="utf-8">')
    parts.append("<title>slms report</title>")
    parts.append(f"<style>{_CSS}</style></head><body>")
    parts.append("<h1>slms report</h1>")
    parts.append(
        '<p class="summary">'
        f"{report.get('runs', 0)} run(s) &middot; kinds: "
        f"{html.escape(', '.join(report.get('kinds') or []) or 'none')} "
        f"&middot; {report.get('distinct_result_digests', 0)} distinct "
        "result digest(s)</p>"
    )

    trajectory = report.get("trajectory") or []
    if trajectory:
        parts.append("<h2>Run trajectory</h2><table>")
        parts.append(
            '<tr><th class="l">id</th><th class="l">kind</th>'
            '<th class="l">label</th><th>experiments</th><th>workers</th>'
            '<th>wall s</th><th>cache hit rate</th><th>failures</th>'
            '<th class="l">result digest</th></tr>'
        )
        for index, row in enumerate(trajectory):
            rate = row.get("cache_hit_rate")
            rate_s = f"{rate:.1%}" if isinstance(rate, (int, float)) else "-"
            failures = row.get("failures", 0)
            fail_cell = (
                f'<td class="fail">{failures}</td>'
                if failures
                else _cell(failures)
            )
            klass = ' class="head-run"' if index == len(trajectory) - 1 else ""
            parts.append(
                f"<tr{klass}>"
                + _cell(row.get("id", ""), left=True)
                + _cell(row.get("kind", ""), left=True)
                + _cell(row.get("label", ""), left=True)
                + _cell(row.get("experiments") or 0)
                + _cell(row.get("workers") or "-")
                + _cell(_fmt_s(row.get("wall_s")))
                + _cell(rate_s)
                + fail_cell
                + f'<td class="l digest">'
                f"{html.escape(str(row.get('result_digest', '')))}</td>"
                + "</tr>"
            )
        parts.append("</table>")

    head = report.get("head") or {}
    phase_times = head.get("phase_times") or {}
    cached = head.get("cached_phase_times") or {}
    if phase_times or cached:
        parts.append("<h2>Latest run phases</h2><table>")
        parts.append(
            '<tr><th class="l">phase</th><th>work s</th>'
            "<th>served from cache s</th></tr>"
        )
        for phase in sorted(set(phase_times) | set(cached)):
            parts.append(
                "<tr>"
                + _cell(phase, left=True)
                + _cell(_fmt_s(phase_times.get(phase, 0.0)))
                + _cell(_fmt_s(cached.get(phase, 0.0)))
                + "</tr>"
            )
        parts.append("</table>")

    tiers = head.get("tiers") or {}
    if tiers:
        parts.append("<h2>Phase-cache tiers (latest run)</h2><table>")
        parts.append(
            '<tr><th class="l">tier</th><th>hits</th><th>misses</th>'
            "<th>hit rate</th></tr>"
        )
        for tier, stats in tiers.items():
            hits = (stats or {}).get("hits", 0)
            misses = (stats or {}).get("misses", 0)
            total = hits + misses
            rate = f"{hits / total:.1%}" if total else "-"
            parts.append(
                "<tr>"
                + _cell(tier, left=True)
                + _cell(hits)
                + _cell(misses)
                + _cell(rate)
                + "</tr>"
            )
        parts.append("</table>")

    latency = head.get("latency") or {}
    if latency:
        parts.append("<h2>Latency percentiles (latest run)</h2><table><tr>")
        for key in sorted(latency):
            parts.append(f"<th>{html.escape(key)}</th>")
        parts.append("</tr><tr>")
        for key in sorted(latency):
            parts.append(_cell(latency[key]))
        parts.append("</tr></table>")

    profile = report.get("profile") or {}
    rows = profile.get("rows") or []
    if rows:
        parts.append("<h2>Profiler</h2><table>")
        parts.append(
            '<tr><th class="l">span</th><th>count</th><th>total ms</th>'
            "<th>self ms</th><th>min ms</th><th>max ms</th></tr>"
        )
        for row in rows:
            parts.append(
                "<tr>"
                + _cell(row.get("name", ""), left=True)
                + _cell(row.get("count", 0))
                + _cell(f"{row.get('total_ms', 0.0):.3f}")
                + _cell(f"{row.get('self_ms', 0.0):.3f}")
                + _cell(f"{row.get('min_ms', 0.0):.3f}")
                + _cell(f"{row.get('max_ms', 0.0):.3f}")
                + "</tr>"
            )
        parts.append("</table>")

    journal = report.get("journal") or {}
    if journal.get("records"):
        parts.append("<h2>Fault journal</h2>")
        parts.append(
            '<p class="summary">'
            f"{html.escape(str(journal.get('path', '')))}: "
            f"{journal['records']} record(s), {journal.get('ok', 0)} ok, "
            f'<span class="{"fail" if journal.get("failed") else "summary"}">'
            f"{journal.get('failed', 0)} failed</span></p>"
        )

    env = head.get("env") or {}
    if env:
        parts.append("<h2>Environment</h2>")
        parts.append(
            '<p class="summary">'
            + html.escape(
                "  ".join(f"{k}={env[k]}" for k in sorted(env))
            )
            + "</p>"
        )
    parts.append("</body></html>")
    return "\n".join(parts)
