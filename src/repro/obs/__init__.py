"""Observability: tracing, metrics, ledger and exporters for SLMS.

Zero-dependency.  The ambient tracer defaults to a no-op singleton so
an untraced pipeline pays one attribute check per instrumentation site;
enable collection for a scope with::

    from repro.obs import tracing

    with tracing() as tr:
        run_experiment(...)
    print(render_trace(tr.to_dict()))

Beyond the per-process tracer/metrics pair, the package carries the
durable half of the stack: the append-only run ledger
(:mod:`repro.obs.ledger`), the deterministic profiler
(:mod:`repro.obs.profile`), the regression sentinel
(:mod:`repro.obs.diff`) and the ``slms report`` dashboard renderers
(:mod:`repro.obs.report`).  See ``docs/OBSERVABILITY.md`` for the
schemas and a regression-triage walkthrough.
"""

from repro.obs.diff import (
    DiffFinding,
    diff_against_bench,
    diff_entries,
    diff_payload,
    has_failures,
    render_diff,
)
from repro.obs.export import (
    format_metrics,
    render_trace,
    result_payload,
    to_chrome_trace,
    validate_trace,
    write_chrome_trace,
    write_json_trace,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    default_ledger_dir,
    digest_of,
    entry_from_stats,
    environment_fingerprint,
    ledger_enabled,
    make_entry,
    read_jsonl,
    render_entries,
)
from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    get_metrics,
    merged,
    metrics_scope,
    set_metrics,
)
from repro.obs.profile import (
    PROFILE_SCHEMA,
    Profile,
    ProfileRow,
    fold_trace,
    latency_percentiles,
    profile_results,
    render_profile,
)
from repro.obs.report import (
    REPORT_SCHEMA,
    build_report,
    render_report_html,
    render_report_text,
    summarize_journal,
)
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_SCHEMA,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "LEDGER_SCHEMA",
    "METRICS_SCHEMA",
    "NULL_TRACER",
    "PROFILE_SCHEMA",
    "REPORT_SCHEMA",
    "TRACE_SCHEMA",
    "DiffFinding",
    "MetricsRegistry",
    "NullTracer",
    "Profile",
    "ProfileRow",
    "RunLedger",
    "Tracer",
    "build_report",
    "default_ledger_dir",
    "diff_against_bench",
    "diff_entries",
    "diff_payload",
    "digest_of",
    "entry_from_stats",
    "environment_fingerprint",
    "fold_trace",
    "format_metrics",
    "get_metrics",
    "get_tracer",
    "has_failures",
    "latency_percentiles",
    "ledger_enabled",
    "make_entry",
    "merged",
    "metrics_scope",
    "profile_results",
    "read_jsonl",
    "render_diff",
    "render_entries",
    "render_profile",
    "render_report_html",
    "render_report_text",
    "render_trace",
    "result_payload",
    "set_metrics",
    "set_tracer",
    "summarize_journal",
    "to_chrome_trace",
    "tracing",
    "validate_trace",
    "write_chrome_trace",
    "write_json_trace",
]
