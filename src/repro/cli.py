"""Command-line interface: ``slms``.

Subcommands
-----------

``slms transform FILE``
    Apply SLMS to a C-subset source file and print the transformed
    program (``--paper`` for the paper's ``||`` notation, ``--force``
    to bypass the §4 filter, ``--expansion`` to pick MVE / scalar
    expansion).

``slms figure NAME``
    Regenerate one of the paper's figures (``fig14`` … ``fig22``,
    ``text_bundles``, or ``all``); ``--quick`` trims the workload list.

``slms bench WORKLOAD``
    Run a single workload comparison on a machine/compiler pair
    (``--profile`` prints per-phase wall-clock times).

``slms sweep [WORKLOAD ...]``
    The full workloads × machine/compiler matrix (default: every corpus
    workload × the paper's pairs).  ``--csv``/``--json`` export the
    matrix; ``--workers`` fans experiments out over processes,
    ``--no-cache`` bypasses the on-disk result cache, ``--profile``
    prints per-phase totals and ``--bench-json`` writes the
    machine-readable perf record (``BENCH_sweep.json``).  ``--timeout``
    bounds each experiment's wall clock, and ``--journal``/``--resume``
    checkpoint completed experiments so a killed sweep picks up where
    it stopped (see ``docs/ROBUSTNESS.md``); a failed cell is reported
    and exits 1 instead of aborting the matrix.

``slms cache stats|clear``
    Inspect or empty the cache: ``stats`` lists every tier's entries and
    lifetime hit/miss/eviction counters, ``clear --tiers`` empties the
    named tiers.

``slms trace WORKLOAD``
    Run one workload comparison with the observability layer enabled
    and print the decision log: filter verdict, per-candidate-II search,
    decomposition rounds, expansion choice, phase spans.  ``--trace-out``
    writes the JSON trace, ``--chrome-out`` the Chrome ``trace_event``
    form (loadable in chrome://tracing), ``--metrics`` the metrics dump;
    ``--json`` emits everything as one machine-readable object.  The
    ``figure``/``bench``/``sweep`` subcommands accept
    ``--trace/--trace-out/--metrics`` to observe whole harness runs.

``slms explain FILE``
    Per-loop SLC diagnostics: filter verdict, multi-instructions,
    dependence edges, II search outcome and the Fig. 1 table view
    (``--dot`` additionally prints the dependence graph in DOT;
    ``--check`` also runs the semantic checker).

``slms check FILE``
    Static verification: semantic-check the source, transform every
    canonical loop, and validate each emitted schedule independently
    (``--json`` for machine-readable output, ``--Werror`` to fail on
    warnings).

``slms lint FILE``
    Dataflow lint (A3xx series): interval-analysis proofs of array
    subscript bounds, dead-store and use-before-initialization
    warnings, and a liveness-derived register-pressure estimate
    checked against ``--machine``.  ``--json`` emits the shared
    ``slms-diag/1`` payload; ``--Werror`` fails on warnings, ``--notes``
    shows the informational findings.

``slms advise FILE``
    SLMS applicability: the driver's own verdict on each innermost
    loop — pipelined or declined, and why — with its recMII estimate,
    II/stage counts and actionable suggestions (``--json`` for the
    ``slms-advise/1`` payload).

``slms report``
    Dashboard over the run ledger: every ``sweep``/``bench``/``fuzz``/
    ``trace`` invocation appends one ``slms-ledger/1`` record (under
    ``$SLMS_LEDGER_DIR``; disable with ``SLMS_LEDGER=0``), and this
    renders the trajectory — wall clock, result digests, cache-tier
    rates, fault counts — as a terminal table or a self-contained
    HTML file (``--html``); ``--trace-in`` folds a JSON trace into a
    profiler table, ``--journal`` summarizes a checkpoint journal.

``slms obs ledger|diff|bench-export``
    Ledger tools: ``ledger`` lists recorded runs (``--verify`` re-checks
    content addresses); ``diff`` is the regression sentinel — it
    compares two entries (``HEAD~1 HEAD`` by default, or ``--bench``
    against the BENCH_sweep.json trajectory), hard-fails on result-
    digest changes, tolerance-gates wall/phase drift, and exits 1 on
    regression; ``bench-export`` emits a BENCH-schema history entry
    from a sweep ledger record.

``slms serve``
    The long-running compilation service (``docs/SERVING.md``): JSON
    protocol ``slms-serve/1`` over HTTP, request coalescing through
    the content-addressed experiment key, bounded admission with 429
    shedding, per-request timeouts/retry via the fault layer, poison-
    request quarantine, ``/healthz`` + ``/statsz``, and SIGTERM
    draining.  ``slms serve-bench`` is the concurrent-client load
    harness (writes ``BENCH_serve.json``).

Bad input never produces a traceback, and exit codes are uniform
across subcommands: **0** success, **1** failures (failed experiments,
fuzz findings, ``check`` errors, or an internal error — set
``SLMS_DEBUG=1`` for the traceback), **2** usage/input errors (bad
flags, unknown names, ``file:line:col: error: …`` frontend
diagnostics), **130** on Ctrl-C and **143** on SIGTERM (both with a
note that checkpointed partial results can be resumed via
``--resume``).

``transform``, ``advise``, ``bench``, ``trace`` and ``sweep`` are the
operations ``slms serve`` serves: each builds the params a client would
send (only the flags the user set) and passes them through
:meth:`repro.serve.session.Session.validate` before any work, cache
lookup or journal write, then renders what
:class:`~repro.serve.session.Session` returns.  The CLI and the server
therefore accept and refuse exactly the same inputs, with the same
messages.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.defaults import (
    DEFAULT_COMPILER,
    DEFAULT_MACHINE,
    DEFAULT_SCHED_BUDGET,
)

#: The SLMS option flags, each declared once: request param -> (flag,
#: argparse keywords).  A command takes the subset it names; a flag the
#: user leaves unset stays out of the request, so ``SLMSOptions``
#: supplies its default.
_OPTION_FLAGS: Dict[str, tuple] = {
    "force": ("--force", dict(
        action="store_const", const=True,
        help="bypass the §4 bad-case filter (§8's \"do it anyway\")",
    )),
    "enable_filter": ("--no-filter", dict(
        action="store_const", const=False,
        help="disable the §4 bad-case filter",
    )),
    "expansion": ("--expansion", dict(
        metavar="MODE",
        help="false-dependence removal: auto, mve, scalar or none",
    )),
    "reduction_lanes": ("--reduction-lanes", dict(
        type=int, metavar="N",
        help="split min/max reductions into N lanes (§5's max-loop MVE)",
    )),
    "allow_reassociation": ("--allow-reassociation", dict(
        action="store_const", const=True,
        help="permit lane-splitting sum/product reductions "
        "(reassociates floating point)",
    )),
    "scheduler": ("--scheduler", dict(
        metavar="NAME",
        help="scheduling backend: heuristic (the paper's placement) or "
        "exact (branch-and-bound; see docs/SCHEDULERS.md)",
    )),
    "sched_budget": ("--sched-budget", dict(
        type=int, metavar="N",
        help="exact-backend placement-attempt budget "
        f"(default {DEFAULT_SCHED_BUDGET})",
    )),
    "machine": ("--machine", dict(
        metavar="NAME",
        help="machine preset for the informational resMII floor "
        "(default: none)",
    )),
}


def _add_option_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    for key in keys:
        flag, kwargs = _OPTION_FLAGS[key]
        parser.add_argument(flag, dest=key, **kwargs)


def _request(args: argparse.Namespace, *keys: str,
             **given: Any) -> Dict[str, Any]:
    """The params a client would send: each of ``keys`` the user set
    (an unset flag reads None), plus ``given``."""
    params = {
        key: getattr(args, key)
        for key in keys
        if getattr(args, key, None) is not None
    }
    params.update(given)
    return params


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_out(path: str, text: str, what: str) -> None:
    """Write one output file and say so on stderr."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"# {what} written to {path}", file=sys.stderr)


def _report_status(loop: Dict[str, Any]) -> str:
    """One ``transform --report`` line, from a loop of the ``compile``
    payload (:func:`repro.serve.session.loop_report_dict`)."""
    if not loop["applied"]:
        return f"declined: {loop['reason']}"
    status = (
        f"applied II={loop['ii']} stages={loop['stages']} "
        f"expansion={loop['expansion']}"
    )
    if "heuristic_ii" in loop:  # a backend other than the heuristic
        status += (
            f" scheduler={loop['scheduler']}"
            f" heuristic_ii={loop['heuristic_ii']}"
            f" proven={loop['sched_proven']}"
        )
    if "res_mii" in loop:
        status += f" res_mii={loop['res_mii']}"
    return status


def _cmd_transform(args: argparse.Namespace) -> int:
    from repro.serve.session import Session

    params = _request(
        args, *_OPTION_FLAGS, "style", source=_read_source(args.file)
    )
    payload = Session().handle("compile", params)
    print(payload["source"])
    if args.report:
        print("/*", file=sys.stderr)
        for idx, loop in enumerate(payload["loops"]):
            print(f" loop {idx}: {_report_status(loop)}", file=sys.stderr)
        print("*/", file=sys.stderr)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro import slms
    from repro.core.explain import ddg_to_dot, explain
    from repro.lang.parser import parse_program
    from repro.serve.session import options_from_params

    options = options_from_params(_request(args, *_OPTION_FLAGS))
    program = parse_program(_read_source(args.file))

    if args.check:
        from repro.verify import check_program, has_errors

        diags = check_program(program)
        print(f"===== semantic check: {len(diags)} finding(s) =====")
        for diag in diags:
            print(diag.format(args.file))
        if has_errors(diags):
            print("(semantic errors; the filter verdicts below may be moot)")
        print()
    outcome = slms(program, options)
    for idx, report in enumerate(outcome.loops):
        if idx:
            print()
        print(f"===== loop {idx} =====")
        print(explain(report.loop, report))
        if args.dot and report.ddg is not None:
            print()
            print(ddg_to_dot(report.ddg, report.final_mis or None))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Full static verification of one source file.

    Runs the semantic checker over the program, then transforms every
    canonical loop with the schedule validator enabled and reports its
    findings alongside.  Exit status 1 when any error (or, under
    ``--Werror``, any warning) is found.
    """
    from repro import slms
    from repro.lang.parser import parse_program
    from repro.serve.session import options_from_params
    from repro.verify import check_program, has_errors, sort_diagnostics
    from repro.verify.diagnostics import json_payload

    options = options_from_params(
        _request(args, *_OPTION_FLAGS), verify=True
    )
    program = parse_program(_read_source(args.file))
    diags = list(check_program(program))
    outcome = slms(program, options)
    loop_reports = []
    for idx, report in enumerate(outcome.loops):
        loop_reports.append(
            {
                "loop": idx,
                "applied": report.applied,
                "ii": report.ii,
                "stages": report.stages,
                "reason": report.reason,
                "diagnostics": [d.to_dict() for d in report.diagnostics],
            }
        )
        diags.extend(report.diagnostics)
    diags = sort_diagnostics(diags)

    failed = has_errors(diags, werror=args.werror)
    if args.json:
        print(
            json.dumps(
                json_payload(
                    args.file, diags, werror=args.werror,
                    loops=loop_reports,
                ),
                indent=2,
            )
        )
    else:
        for diag in diags:
            print(diag.format(args.file))
        applied = sum(1 for r in outcome.loops if r.applied)
        validated = sum(
            1
            for r in outcome.loops
            if r.applied and not has_errors(r.diagnostics)
        )
        print(
            f"{args.file}: {len(diags)} finding(s); "
            f"{applied}/{len(outcome.loops)} loop(s) transformed, "
            f"{validated}/{applied} schedule(s) validated"
        )
    return 1 if failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Dataflow lint: bounds proofs, dead stores, use-before-init, and
    the register-pressure estimate for one source file."""
    from repro.lang.parser import parse_program
    from repro.machines.presets import machine_by_name
    from repro.verify import has_errors
    from repro.verify.diagnostics import json_payload
    from repro.verify.lint import lint_program

    source = _read_source(args.file)
    program = parse_program(source)
    machine = None if args.machine == "none" else machine_by_name(args.machine)
    with _Observed(args):
        diags = lint_program(program, machine)

    failed = has_errors(diags, werror=args.werror)
    if args.json:
        print(
            json.dumps(
                json_payload(
                    args.file, diags, werror=args.werror,
                    machine=args.machine,
                ),
                indent=2,
            )
        )
        return 1 if failed else 0
    shown = [d for d in diags if args.notes or d.severity != "note"]
    for diag in shown:
        print(diag.format(args.file))
    errors = sum(1 for d in diags if d.severity == "error")
    warnings = sum(1 for d in diags if d.severity == "warning")
    print(
        f"{args.file}: {errors} error(s), {warnings} warning(s), "
        f"{len(diags) - errors - warnings} note(s)"
    )
    return 1 if failed else 0


def _cmd_advise(args: argparse.Namespace) -> int:
    """SLMS applicability report: the driver's verdict per loop, its
    recMII estimate, and actionable suggestions."""
    from repro.core.advisor import render_advice
    from repro.serve.session import Session

    params = _request(args, *_OPTION_FLAGS, source=_read_source(args.file))
    with _Observed(args):
        payload = Session().handle("advise", params)

    if args.json:
        out = {"schema": payload["schema"], "file": args.file,
               "loops": payload["loops"]}
        print(json.dumps(out, indent=2))
        return 0
    if not payload["loops"]:
        print(f"{args.file}: no innermost canonical loop candidates")
        return 0
    for idx, advice in enumerate(payload["loops"]):
        if idx:
            print()
        print(f"===== loop {idx} =====")
        print(render_advice(advice))
    return 0


def _print_phases(phase_totals, file=None) -> None:
    file = file if file is not None else sys.stdout
    print("per-phase wall clock:", file=file)
    for phase in ("parse", "transform", "compile", "simulate", "verify",
                  "cache", "total"):
        if phase in phase_totals:
            print(f"  {phase:<10} {phase_totals[phase]:8.3f} s", file=file)


def _ledger_append(entry) -> None:
    """Best-effort ledger recording: observability must never take a
    CLI run down (or even print), so every failure is swallowed."""
    try:
        from repro.obs import RunLedger, ledger_enabled

        if not ledger_enabled():
            return
        RunLedger().append(entry)
    except Exception:
        pass


def _ledger_experiment(kind: str, res, **config: Any) -> None:
    """Record one ``bench`` or ``trace`` experiment in the ledger."""
    from repro.obs import digest_of, make_entry

    # Timing stays out of the digest: two identical runs differ only
    # in wall clock.
    payload = res.to_dict()
    payload.pop("phase_times", None)
    payload.pop("cached_phase_times", None)
    _ledger_append(
        make_entry(
            kind,
            f"{res.workload}@{res.machine}/{res.compiler}",
            config={
                "workload": res.workload,
                "machine": res.machine,
                "compiler": res.compiler,
                **config,
            },
            result_digest=digest_of(payload),
            experiments=1,
            workers=1,
            wall_s=res.phase_times.get(
                "total", sum(res.phase_times.values())
            ),
            phase_times=res.phase_times,
            cached_phase_times=res.cached_phase_times,
        )
    )


def _print_tier_rates(stats, file=None) -> None:
    """Phase-cache traffic for freshly-run experiments in one engine
    call (nothing to print when every result came from the full cache)."""
    file = file if file is not None else sys.stdout
    tiers = ("transform", "compile", "simulate", "verify")
    traffic = {
        tier: (stats.tier_hits.get(tier, 0), stats.tier_misses.get(tier, 0))
        for tier in tiers
    }
    if not any(h + m for h, m in traffic.values()):
        return
    print("phase-cache hit rates:", file=file)
    for tier, (hits, misses) in traffic.items():
        total = hits + misses
        rate = f"{hits / total:6.1%}" if total else "     -"
        print(
            f"  {tier:<10} {rate}  ({hits} hit(s) / {misses} miss(es))",
            file=file,
        )


class _Observed:
    """Tracing/metrics scope for a CLI command, driven by its flags.

    Enables the ambient tracer when any of ``--trace``/``--trace-out``/
    ``--chrome-out`` is set and always collects metrics into a fresh
    registry; on exit writes/prints whatever the flags asked for.
    """

    def __init__(self, args):
        self._trace_out = getattr(args, "trace_out", None)
        self._chrome_out = getattr(args, "chrome_out", None)
        self._show_trace = getattr(args, "trace", False)
        self._show_metrics = getattr(args, "metrics", False)
        self.tracing = bool(
            self._show_trace or self._trace_out or self._chrome_out
        )

    def __enter__(self):
        from repro.obs import MetricsRegistry, Tracer, set_metrics, set_tracer

        self._prev_registry = set_metrics(MetricsRegistry())
        self._prev_tracer = set_tracer(Tracer() if self.tracing else None)
        return self

    def __exit__(self, exc_type, exc, tb):
        from repro.obs import (
            format_metrics,
            get_metrics,
            get_tracer,
            render_trace,
            set_metrics,
            set_tracer,
            to_chrome_trace,
        )

        tracer = get_tracer()
        registry = get_metrics()
        set_tracer(self._prev_tracer)
        set_metrics(self._prev_registry)
        if exc_type is not None:
            return False
        if self.tracing:
            trace = tracer.to_dict()
            if self._trace_out:
                _write_out(self._trace_out,
                           json.dumps(trace, indent=1) + "\n", "trace")
            if self._chrome_out:
                _write_out(self._chrome_out,
                           json.dumps(to_chrome_trace(trace), indent=1)
                           + "\n", "chrome trace")
            if self._show_trace:
                print(render_trace(trace), file=sys.stderr)
        if self._show_metrics:
            print(format_metrics(registry.to_dict()), file=sys.stderr)
        return False


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", action="store_true",
                        help="collect a pipeline trace and print the "
                        "decision log to stderr")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the JSON trace (implies tracing)")
    parser.add_argument("--chrome-out", metavar="PATH",
                        help="write a Chrome trace_event file for "
                        "chrome://tracing (implies tracing)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics registry dump to stderr")


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness.figures import FIGURES, run_figure
    from repro.harness.report import render_figure

    names = sorted(FIGURES) if args.name == "all" else [args.name]
    with _Observed(args):
        for name in names:
            result = run_figure(
                name,
                quick=args.quick,
                workers=args.workers,
                use_cache=not args.no_cache,
            )
            print(render_figure(result))
            print()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.serve.session import Session

    params = _request(args, "workload", "machine", "compiler")
    session = Session()
    session.validate("bench", params)
    with _Observed(args):
        res = session.bench_result(params)
    print(f"workload:  {res.workload} ({res.suite})")
    print(f"machine:   {res.machine}   compiler: {res.compiler}")
    print(f"SLMS:      {'applied, II=' + str(res.ii) if res.slms_applied else 'declined (' + res.slms_reason + ')'}")
    print(f"cycles:    {res.base_cycles} -> {res.slms_cycles} "
          f"(speedup {res.speedup:.3f}x)")
    print(f"energy:    {res.base_energy / 1000:.1f} nJ -> "
          f"{res.slms_energy / 1000:.1f} nJ")
    print(f"machine MS: before={res.ims_base} after={res.ims_slms}")
    if args.profile:
        _print_phases(res.phase_times)
    _ledger_experiment("bench", res)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.sweep import bench_record
    from repro.serve.session import Session, SessionConfig, sweep_workloads

    params = _request(args, "suites", "workers")
    if args.workloads:
        params["workloads"] = args.workloads
    if args.pairs:
        params["pairs"] = []
        for spec in args.pairs:
            machine, _, compiler = spec.partition("/")
            if not compiler:
                raise ValueError(
                    f"bad pair {spec!r}; expected MACHINE/COMPILER"
                )
            params["pairs"].append([machine, compiler])

    # Engine workers default to one per CPU here, not the server's 1.
    session = Session(
        SessionConfig(use_cache=not args.no_cache, workers=None)
    )
    session.validate("sweep", params)
    workloads = [wl.name for wl in sweep_workloads(params)]
    journal_path = args.resume or args.journal
    with _Observed(args):
        sweep = session.sweep_result(
            params,
            task_timeout_s=args.timeout,
            journal_path=journal_path,
            resume=bool(args.resume),
        )

    wrote_stdout = False
    exports = (
        (args.csv, sweep.to_csv().rstrip("\n") + "\n"),
        (args.json, sweep.to_json() + "\n"),
    )
    for path, payload in exports:
        if not path:
            continue
        if path == "-":
            sys.stdout.write(payload)
            wrote_stdout = True
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(payload)
    if not wrote_stdout and not (args.csv or args.json):
        matrix = sweep.speedup_matrix()
        columns = sorted({key for row in matrix.values() for key in row})
        print("workload".ljust(14) + "".join(c.rjust(18) for c in columns))
        for workload, row in matrix.items():
            cells = "".join(
                (f"{row[c]:.3f}x" if c in row else "-").rjust(18)
                for c in columns
            )
            print(workload.ljust(14) + cells)

    stats = sweep.stats
    if stats is not None:
        extras = ""
        if stats.journal_hits:
            extras += f", journal: {stats.journal_hits} replay(s)"
        if stats.retries:
            extras += f", {stats.retries} retry(ies)"
        print(
            f"# {stats.experiments} experiments in {stats.wall_s:.2f} s "
            f"({stats.workers} worker(s), cache: {stats.cache_hits} hit(s) / "
            f"{stats.cache_misses} miss(es){extras})",
            file=sys.stderr,
        )
        if args.profile:
            _print_phases(stats.phase_totals, file=sys.stderr)
            _print_tier_rates(stats, file=sys.stderr)
            print(
                f"worker utilization: {stats.utilization:.1%} "
                f"(busy {stats.phase_totals.get('total', 0.0):.3f} s over "
                f"{stats.workers} worker(s) × {stats.wall_s:.3f} s wall)",
                file=sys.stderr,
            )
    if args.bench_json:
        label = "sweep:" + (
            ",".join(workloads) if workloads else "all_workloads"
        )
        with open(args.bench_json, "w", encoding="utf-8") as handle:
            json.dump(bench_record(sweep, label=label), handle, indent=2)
            handle.write("\n")

    if stats is not None:
        from repro.obs import entry_from_stats, profile_results
        from repro.serve.session import sweep_digest

        try:
            folded = profile_results(sweep.results)
        except Exception:
            folded = {}
        # Raw-bytes sha256 of to_json(): byte-comparable with the
        # frozen result_digest_sha256 pinned in BENCH_sweep.json (and
        # with the digest the serve layer reports for the same sweep).
        digest = sweep_digest(sweep)
        _ledger_append(
            entry_from_stats(
                "sweep",
                "sweep:" + (",".join(workloads) if workloads else "all"),
                stats.to_dict(),
                config={
                    "workloads": workloads or "all",
                    "pairs": args.pairs or "default",
                },
                result_digest=digest,
                latency=folded.get("latency"),
            )
        )
    if sweep.failures:
        print(f"# {len(sweep.failures)} experiment(s) FAILED:",
              file=sys.stderr)
        for fr in sweep.failures:
            print(
                f"#   {fr.task}: {fr.kind} in {fr.phase}: {fr.message} "
                f"({fr.attempts} attempt(s)"
                + (", quarantined)" if fr.quarantined else ")"),
                file=sys.stderr,
            )
        if journal_path:
            print(
                f"# completed results are journaled in {journal_path}; "
                "re-run with --resume to retry only the failures",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """One traced workload comparison: the introspection entry point."""
    from repro.obs import (
        format_metrics,
        render_trace,
        write_chrome_trace,
        write_json_trace,
    )
    from repro.serve.session import Session, trace_payload

    params = _request(args, "workload", "machine", "compiler", "verify")
    session = Session()
    session.validate("trace", params)
    res, trace, metrics = session.trace_result(params)
    if args.trace_out:
        write_json_trace(trace, args.trace_out)
    if args.chrome_out:
        write_chrome_trace(trace, args.chrome_out)
    _ledger_experiment(
        "trace", res, verify=params.get("verify", session.config.verify)
    )
    if args.json:
        print(json.dumps(trace_payload(res, trace, metrics), indent=1))
        return 0
    print(f"== trace: {res.workload} on {res.machine}/{res.compiler} ==")
    print(render_trace(trace))
    print()
    status = (
        f"applied, II={res.ii}"
        if res.slms_applied
        else f"declined ({res.slms_reason})"
    )
    print(f"SLMS:    {status}")
    print(f"cycles:  {res.base_cycles} -> {res.slms_cycles} "
          f"(speedup {res.speedup:.3f}x)")
    if args.trace_out:
        print(f"trace:   {args.trace_out}")
    if args.chrome_out:
        print(f"chrome:  {args.chrome_out} (open in chrome://tracing)")
    if args.metrics:
        print()
        print(format_metrics(metrics))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz.oracle import OracleConfig
    from repro.fuzz.session import (
        FuzzSessionConfig,
        run_fuzz_session,
        save_failures,
    )

    oracle = OracleConfig(
        machine=args.machine,
        compiler=args.compiler,
        backend=not args.no_backend,
        metamorphic=not args.no_metamorphic,
        scheduler_oracle=args.oracle_scheduler,
    )
    config = FuzzSessionConfig(
        master_seed=args.seed,
        iterations=args.iterations,
        profile=args.profile,
        workers=args.workers,
        oracle=oracle,
        reduce_failures=not args.no_reduce,
    )
    import time as _time

    t_start = _time.perf_counter()
    with _Observed(args):
        report = run_fuzz_session(
            config,
            journal_path=args.resume or args.journal,
            resume=bool(args.resume),
        )
    fuzz_wall = _time.perf_counter() - t_start

    import hashlib

    from repro.obs import make_entry

    _ledger_append(
        make_entry(
            "fuzz",
            f"fuzz:seed={config.master_seed},n={config.iterations}",
            config={
                "master_seed": config.master_seed,
                "iterations": config.iterations,
                "profile": config.profile,
                "oracle": config.oracle.to_dict(),
            },
            # The report is byte-deterministic, so its sha256 is the
            # session's result digest (any drift is a real change).
            result_digest=hashlib.sha256(
                report.to_json().encode("utf-8")
            ).hexdigest(),
            experiments=config.iterations,
            workers=config.workers or 1,
            wall_s=fuzz_wall,
            faults={"failures": len(report.failures)},
        )
    )

    if args.json:
        _write_out(args.json, report.to_json(), "report")

    print(f"fuzz: {report.summary_line()}")
    if report.decline_reasons:
        print("decline reasons:")
        for reason, count in sorted(
            report.decline_reasons.items(), key=lambda kv: -kv[1]
        ):
            print(f"  {count:6d}  {reason}")
    if report.failures:
        print(f"FAILURES ({len(report.failures)}):")
        for failure in report.failures:
            print(
                f"  [{failure.failure_class}] seed {failure.seed} "
                f"profile {failure.profile}: {failure.detail[:120]}"
            )
        if args.save_failures:
            written = save_failures(report, args.save_failures)
            print(f"wrote {len(written)} failing case(s) to "
                  f"{args.save_failures}")
        return 1
    return 0


def _cmd_sched(args: argparse.Namespace) -> int:
    """Scheduler-backend tools (docs/SCHEDULERS.md)."""
    from repro.core.schedulers.compare import (
        compare_schedulers,
        render_compare,
    )

    report = compare_schedulers(
        workloads=args.workloads or None,
        machine=args.machine,
        budget=args.budget,
    )
    if args.json:
        _write_out(args.json, report.to_json(), "report")
    print(render_compare(report))
    return 0 if report.clean else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.harness.expcache import PhaseCache

    store = PhaseCache.shared(args.dir)
    if args.action == "stats":
        stats = store.stats()
        print(f"cache dir: {stats['dir']}")
        for tier in store.TIERS:
            rec = stats["tiers"][tier]
            life = rec["lifetime"]
            total = life["hits"] + life["misses"]
            rate = f"{life['hits'] / total:.1%}" if total else "-"
            line = (
                f"  {tier:<10} {rec['entries']:5d} entr(ies) "
                f"{rec['bytes']:>10d} bytes  "
                f"lifetime {life['hits']} hit(s) / {life['misses']} "
                f"miss(es) [{rate}], {life['evictions']} eviction(s)"
            )
            if rec["corrupt"]:
                line += f"  {rec['corrupt']} corrupt"
            print(line)
    else:  # clear
        tiers = (
            [t.strip() for t in args.tiers.split(",") if t.strip()]
            if args.tiers
            else list(store.TIERS)
        )
        removed = store.clear(tiers)
        print(
            f"removed {removed} entr(ies) [{', '.join(tiers)}] "
            f"from {store.dir}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Dashboard over the run ledger: terminal view and/or HTML file."""
    from repro.obs import (
        RunLedger,
        build_report,
        fold_trace,
        render_report_html,
        render_report_text,
        summarize_journal,
    )

    ledger = RunLedger(args.ledger_dir)
    entries = ledger.entries(kind=args.kind, limit=args.limit)
    profile = None
    if args.trace_in:
        with open(args.trace_in, "r", encoding="utf-8") as handle:
            profile = fold_trace(json.load(handle)).to_dict()
    journal = summarize_journal(args.journal) if args.journal else None
    report = build_report(entries, profile=profile, journal=journal)
    if args.html:
        _write_out(args.html, render_report_html(report) + "\n", "report")
    if args.json_out:
        _write_out(args.json_out, json.dumps(report, indent=1) + "\n",
                   "report JSON")
    if not args.html or args.text:
        print(render_report_text(report))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Ledger maintenance and the regression sentinel."""
    from repro.obs import (
        RunLedger,
        diff_against_bench,
        diff_entries,
        diff_payload,
        has_failures,
        render_diff,
        render_entries,
    )

    ledger = RunLedger(args.ledger_dir)

    if args.action == "ledger":
        entries = ledger.entries(kind=args.kind, limit=args.limit)
        if args.verify:
            problems = ledger.verify()
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            if problems:
                return 1
            # verify() checks the whole ledger, whatever --kind/--limit.
            print(f"# {len(ledger.entries())} entr(ies) in the ledger, "
                  "all content addresses ok", file=sys.stderr)
        if not entries:
            print(f"# no matching entries in the ledger at {ledger.path}",
                  file=sys.stderr)
            return 0
        print(render_entries(entries))
        return 0

    if args.action == "diff":
        kind = args.kind or "sweep"
        new = ledger.resolve(args.new, kind=kind)
        if args.bench:
            with open(args.bench, "r", encoding="utf-8") as handle:
                bench = json.load(handle)
            findings = diff_against_bench(
                new, bench,
                wall_tol=args.wall_tol, phase_tol=args.phase_tol,
            )
            old_label = args.bench
            old = {"id": bench.get("result_digest_sha256", "")}
        else:
            old = ledger.resolve(args.old, kind=kind)
            findings = diff_entries(
                old, new,
                wall_tol=args.wall_tol,
                phase_tol=args.phase_tol,
                allow_config_drift=args.allow_config_drift,
            )
            old_label = f"{args.old} ({str(old.get('id', ''))[:12]})"
        if args.json:
            print(json.dumps(diff_payload(findings, old, new), indent=2))
        else:
            print(
                render_diff(
                    findings,
                    old_label=old_label,
                    new_label=f"{args.new} ({str(new.get('id', ''))[:12]})",
                )
            )
        return 1 if has_failures(findings) else 0

    # bench-export: a BENCH_sweep.json history entry from the ledger,
    # so future PRs stop hand-writing phase totals.
    entry = ledger.resolve(args.ref, kind="sweep")
    tiers = entry.get("tiers") or {}
    record = {
        "pr": args.pr,
        "label": args.label or entry.get("label", ""),
        "engine_version": (entry.get("env") or {}).get("engine_version", ""),
        "experiments": entry.get("experiments", 0),
        "cache_hits": (entry.get("cache") or {}).get("hits", 0),
        "cache_misses": (entry.get("cache") or {}).get("misses", 0),
        "cache_hit_rate": (entry.get("cache") or {}).get("hit_rate", 0.0),
        "workers": entry.get("workers", 1),
        "wall_s": round(float(entry.get("wall_s", 0.0)), 3),
        "phase_totals_s": {
            phase: round(float(seconds), 3)
            for phase, seconds in (entry.get("phase_times") or {}).items()
        },
        "phase_cache_hit_rates": {
            tier: rec.get("hit_rate", 0.0) for tier, rec in tiers.items()
        },
    }
    if args.pr is None:
        record.pop("pr")
    payload = json.dumps(record, indent=1)
    if args.out:
        _write_out(args.out, payload + "\n", "bench entry")
    else:
        print(payload)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived compilation service (docs/SERVING.md)."""
    from repro.harness.faults import FaultPlan
    from repro.serve.server import ServeConfig, serve_forever
    from repro.serve.session import SessionConfig

    session = SessionConfig(
        machine=args.machine,
        compiler=args.compiler,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        verify=not args.no_verify,
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        timeout_s=None if args.timeout == 0 else args.timeout,
        crash_strikes=args.crash_strikes,
        fault_plan=FaultPlan.from_env(),
        session=session,
        enable_sleep=args.enable_sleep,
        trace_out=args.trace_out,
    )
    return serve_forever(config)


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """Concurrent-client load harness over in-process servers."""
    from repro.serve.loadgen import run_serve_bench

    record = run_serve_bench(
        out_path=args.out,
        clients=args.clients,
        per_client=args.requests,
        chaos=not args.no_chaos,
        full=args.full,
        sweep_workers=args.sweep_workers,
        cache_dir=args.cache_dir,
    )

    from repro.obs import make_entry

    _ledger_append(
        make_entry(
            "serve",
            record["label"],
            config={
                "clients": args.clients,
                "requests_per_client": args.requests,
                "chaos": not args.no_chaos,
                "full": args.full,
            },
            result_digest=(
                record.get("digest_phase", {}).get("result_digest_sha256")
            ),
            experiments=record["latency_phase"]["requests"],
            wall_s=record["latency_phase"]["wall_s"],
            latency=record["latency"],
            faults={
                "shed": record["shed_count"],
                "chaos_failed": record.get("chaos_phase", {}).get(
                    "failed", 0
                ),
            },
            extra={"throughput_rps": record["throughput_rps"],
                   "coalesce_rate": record["coalesce_rate"]},
        )
    )
    print(
        f"serve-bench: {record['latency_phase']['requests']} requests, "
        f"p50={record['latency']['p50']:.3f}s "
        f"p99={record['latency']['p99']:.3f}s "
        f"{record['throughput_rps']:.1f} req/s, "
        f"coalesce_rate={record['coalesce_rate']:.2f}, "
        f"shed={record['shed_count']}"
    )
    if args.expect_digest:
        got = record.get("digest_phase", {}).get("result_digest_sha256")
        if got != args.expect_digest:
            print(
                f"error: served sweep digest {got} != expected "
                f"{args.expect_digest}",
                file=sys.stderr,
            )
            return 1
        print(f"# served sweep digest matches {got[:16]}…")
    return 0


class _Terminated(BaseException):
    """SIGTERM, surfaced as an exception for the exit-code boundary.

    A ``BaseException`` (like ``KeyboardInterrupt``) so no library
    ``except Exception`` handler can swallow a termination request.
    """


def _install_sigterm() -> None:
    import signal

    def raise_terminated(signum, frame):
        raise _Terminated()

    try:
        signal.signal(signal.SIGTERM, raise_terminated)
    except ValueError:  # pragma: no cover - not the main thread
        pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="slms",
        description="Source Level Modulo Scheduling "
        "(Ben-Asher & Meisler, ICPP 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_transform = sub.add_parser("transform", help="SLMS a source file")
    p_transform.add_argument("file")
    p_transform.add_argument("--paper", dest="style", action="store_const",
                             const="paper",
                             help="print kernels in the paper's || notation")
    _add_option_flags(p_transform, *_OPTION_FLAGS)
    p_transform.add_argument("--report", action="store_true",
                             help="print per-loop reports to stderr")
    p_transform.set_defaults(func=_cmd_transform)

    p_explain = sub.add_parser(
        "explain", help="per-loop SLC diagnostics for a source file"
    )
    p_explain.add_argument("file")
    _add_option_flags(p_explain, "force", "enable_filter",
                      "reduction_lanes", "allow_reassociation")
    p_explain.add_argument("--dot", action="store_true",
                           help="also print the dependence graph as DOT")
    p_explain.add_argument("--check", action="store_true",
                           help="run the semantic checker before the "
                           "per-loop verdicts")
    p_explain.set_defaults(func=_cmd_explain)

    p_check = sub.add_parser(
        "check", help="static verification: semantic checker + "
        "independent schedule validation"
    )
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true",
                         help="emit diagnostics as JSON")
    p_check.add_argument("--Werror", dest="werror", action="store_true",
                         help="treat warnings as errors")
    _add_option_flags(p_check, "enable_filter")
    p_check.set_defaults(func=_cmd_check)

    p_lint = sub.add_parser(
        "lint", help="dataflow lint: subscript-bounds proofs, dead "
        "stores, use-before-init, register pressure"
    )
    p_lint.add_argument("file")
    p_lint.add_argument("--machine", default=DEFAULT_MACHINE,
                        help="machine model for the register-pressure "
                        "check ('none' to skip it)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit diagnostics as JSON "
                        "(schema slms-diag/1)")
    p_lint.add_argument("--Werror", dest="werror", action="store_true",
                        help="treat warnings as errors")
    p_lint.add_argument("--notes", action="store_true",
                        help="also print note-severity findings")
    _add_obs_flags(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    p_advise = sub.add_parser(
        "advise", help="SLMS applicability: the driver's verdict per "
        "loop, recMII estimate, and suggestions"
    )
    p_advise.add_argument("file")
    _add_option_flags(p_advise, "force", "enable_filter", "scheduler",
                      "machine")
    p_advise.add_argument("--json", action="store_true",
                          help="emit the per-loop advice as JSON")
    _add_obs_flags(p_advise)
    p_advise.set_defaults(func=_cmd_advise)

    p_figure = sub.add_parser("figure", help="regenerate a paper figure")
    p_figure.add_argument("name")
    p_figure.add_argument("--quick", action="store_true")
    p_figure.add_argument("--workers", type=int, default=None, metavar="N",
                          help="experiment processes (default: one per CPU)")
    p_figure.add_argument("--no-cache", action="store_true",
                          help="bypass the experiment result cache")
    _add_obs_flags(p_figure)
    p_figure.set_defaults(func=_cmd_figure)

    p_bench = sub.add_parser("bench", help="run one workload comparison")
    p_bench.add_argument("workload")
    p_bench.add_argument("--machine")
    p_bench.add_argument("--compiler")
    p_bench.add_argument("--profile", action="store_true",
                         help="print per-phase wall-clock times")
    _add_obs_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_sweep = sub.add_parser(
        "sweep", help="workloads × machine/compiler matrix"
    )
    p_sweep.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                         help="workload names (default: the whole corpus)")
    p_sweep.add_argument("--suite", dest="suites", action="append",
                         metavar="SUITE",
                         help="add every workload of a suite "
                         "(livermore/linpack/nas/stone; repeatable)")
    p_sweep.add_argument("--pairs", nargs="+", metavar="MACHINE/COMPILER",
                         help="machine/compiler pairs "
                         "(default: the paper's five)")
    p_sweep.add_argument("--csv", metavar="PATH",
                         help="write the matrix as CSV ('-' for stdout)")
    p_sweep.add_argument("--json", metavar="PATH",
                         help="write the matrix as JSON ('-' for stdout)")
    p_sweep.add_argument("--workers", type=int, default=None, metavar="N",
                         help="experiment processes (default: one per CPU; "
                         "1 = serial)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="bypass the experiment result cache")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         metavar="SECS",
                         help="per-experiment wall-clock limit (a stuck "
                         "task fails instead of stalling the sweep)")
    ckpt = p_sweep.add_mutually_exclusive_group()
    ckpt.add_argument("--journal", metavar="PATH",
                      help="checkpoint completed experiments to PATH "
                      "(starts fresh, overwriting any previous journal)")
    ckpt.add_argument("--resume", metavar="PATH",
                      help="resume from the journal at PATH: replay its "
                      "completed results, re-run everything else")
    p_sweep.add_argument("--profile", action="store_true",
                         help="print per-phase wall-clock totals")
    p_sweep.add_argument("--bench-json", nargs="?", const="BENCH_sweep.json",
                         metavar="PATH",
                         help="write the machine-readable perf record "
                         "(default path: BENCH_sweep.json)")
    _add_obs_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_trace = sub.add_parser(
        "trace", help="traced single-workload run with the decision log"
    )
    p_trace.add_argument("workload")
    p_trace.add_argument("--machine")
    p_trace.add_argument("--compiler")
    p_trace.add_argument("--no-verify", dest="verify",
                         action="store_const", const=False,
                         help="skip the interpreter oracle (faster)")
    p_trace.add_argument("--trace-out", metavar="PATH",
                         help="write the JSON trace")
    p_trace.add_argument("--chrome-out", metavar="PATH",
                         help="write a Chrome trace_event file for "
                         "chrome://tracing")
    p_trace.add_argument("--metrics", action="store_true",
                         help="also print the metrics registry dump")
    p_trace.add_argument("--json", action="store_true",
                         help="emit result + trace + metrics as one "
                         "JSON object")
    p_trace.set_defaults(func=_cmd_trace)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random loops vs. the SLMS oracle",
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="master seed for the case schedule")
    p_fuzz.add_argument("--iterations", type=int, default=100,
                        help="number of cases to generate and judge")
    p_fuzz.add_argument("--profile", default="all",
                        help="generator profile name, or 'all' to rotate")
    p_fuzz.add_argument("--workers", type=int, default=1,
                        help="parallel case evaluation (report is "
                        "worker-count-invariant)")
    p_fuzz.add_argument("--machine", default=DEFAULT_MACHINE)
    p_fuzz.add_argument("--compiler", default=DEFAULT_COMPILER)
    p_fuzz.add_argument("--save-failures", metavar="DIR",
                        help="write failing cases (reduced when possible) "
                        "into DIR")
    p_fuzz.add_argument("--json", metavar="PATH",
                        help="write the deterministic session report")
    p_fuzz.add_argument("--no-backend", action="store_true",
                        help="skip the compile+execute differential layer")
    p_fuzz.add_argument("--no-metamorphic", action="store_true",
                        help="skip reversal/unroll metamorphic checks")
    p_fuzz.add_argument("--oracle-scheduler", action="store_true",
                        help="differential scheduler oracle: run the "
                        "exact backend alongside the heuristic and "
                        "flag any loop where it loses, disagrees, or "
                        "breaks validation (docs/SCHEDULERS.md)")
    p_fuzz.add_argument("--no-reduce", action="store_true",
                        help="keep failing cases unreduced")
    fckpt = p_fuzz.add_mutually_exclusive_group()
    fckpt.add_argument("--journal", metavar="PATH",
                       help="checkpoint completed cases to PATH "
                       "(starts fresh, overwriting any previous journal)")
    fckpt.add_argument("--resume", metavar="PATH",
                       help="resume from the journal at PATH: replay its "
                       "completed cases, re-run everything else")
    _add_obs_flags(p_fuzz)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_sched = sub.add_parser(
        "sched", help="scheduler backends: differential heuristic-vs-"
        "exact comparison (docs/SCHEDULERS.md)"
    )
    sched_sub = p_sched.add_subparsers(dest="action", required=True)
    s_compare = sched_sub.add_parser(
        "compare", help="run both backends over corpus workloads and "
        "tabulate II gaps (exit 1 on any negative gap or "
        "verdict mismatch)"
    )
    s_compare.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                           help="workload names (default: all 47)")
    s_compare.add_argument("--machine", default=DEFAULT_MACHINE,
                           help="machine preset for the resMII floor "
                           "(default %(default)s)")
    s_compare.add_argument("--budget", type=int,
                           default=DEFAULT_SCHED_BUDGET, metavar="N",
                           help="exact-backend placement-attempt budget "
                           "per loop (default %(default)s)")
    s_compare.add_argument("--json", metavar="PATH",
                           help="write the slms-sched/1 report to PATH")
    s_compare.set_defaults(func=_cmd_sched)

    p_serve = sub.add_parser(
        "serve", help="long-running compilation service "
        "(slms-serve/1; docs/SERVING.md)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="listen port (0 = ephemeral; the bound "
                         "URL is printed on startup)")
    p_serve.add_argument("--queue-limit", type=int, default=16,
                         metavar="N",
                         help="max distinct in-flight requests before "
                         "429 shedding (default 16)")
    p_serve.add_argument("--timeout", type=float, default=120.0,
                         metavar="SECS",
                         help="per-request wall-clock limit "
                         "(0 = unlimited; default 120)")
    p_serve.add_argument("--crash-strikes", type=int, default=2,
                         metavar="N",
                         help="worker crashes before a request key is "
                         "quarantined (default 2)")
    p_serve.add_argument("--machine", default=DEFAULT_MACHINE,
                         help="session default machine")
    p_serve.add_argument("--compiler", default=DEFAULT_COMPILER,
                         help="session default compiler preset")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="bypass the experiment result cache")
    p_serve.add_argument("--cache-dir", default=None)
    p_serve.add_argument("--no-verify", action="store_true",
                         help="skip the interpreter oracle on "
                         "experiment requests")
    p_serve.add_argument("--enable-sleep", action="store_true",
                         help="expose the deterministic sleep debug op "
                         "(load/chaos testing)")
    p_serve.add_argument("--trace-out", metavar="PATH",
                         help="write the per-request span trace on "
                         "shutdown")
    p_serve.set_defaults(func=_cmd_serve)

    p_sbench = sub.add_parser(
        "serve-bench", help="concurrent-client load harness for the "
        "serving layer (writes BENCH_serve.json)"
    )
    p_sbench.add_argument("--clients", type=int, default=8, metavar="N",
                          help="concurrent clients (default 8)")
    p_sbench.add_argument("--requests", type=int, default=3, metavar="M",
                          help="latency-phase requests per client "
                          "(default 3)")
    p_sbench.add_argument("--out", default="BENCH_serve.json",
                          metavar="PATH",
                          help="record path (default BENCH_serve.json)")
    p_sbench.add_argument("--no-chaos", action="store_true",
                          help="skip the injected crash+hang phase")
    p_sbench.add_argument("--full", action="store_true",
                          help="also run the whole-corpus sweep through "
                          "the service and record its result digest")
    p_sbench.add_argument("--sweep-workers", type=int, default=None,
                          metavar="N",
                          help="engine workers for the --full sweep")
    p_sbench.add_argument("--cache-dir", default=None,
                          help="experiment cache directory for the "
                          "benchmark servers")
    p_sbench.add_argument("--expect-digest", metavar="SHA256",
                          help="fail unless the --full sweep digest "
                          "matches (the frozen baseline check)")
    p_sbench.set_defaults(func=_cmd_serve_bench)

    p_cache = sub.add_parser(
        "cache", help="cache maintenance (every tier)"
    )
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument("--dir", default=None,
                         help="cache directory (default: "
                         "$SLMS_CACHE_DIR or ~/.cache/slms/experiments)")
    p_cache.add_argument("--tiers", default=None,
                         help="clear only these comma-separated tiers "
                         "(full,transform,compile,simulate,verify); "
                         "default clears everything")
    p_cache.set_defaults(func=_cmd_cache)

    p_report = sub.add_parser(
        "report", help="dashboard over the run ledger (terminal + HTML)"
    )
    p_report.add_argument("--html", metavar="PATH",
                          help="write a self-contained HTML dashboard")
    p_report.add_argument("--json-out", metavar="PATH",
                          help="write the slms-report/1 payload as JSON")
    p_report.add_argument("--text", action="store_true",
                          help="print the terminal view even when --html "
                          "is given")
    p_report.add_argument("--kind", choices=["sweep", "bench", "fuzz",
                                             "trace", "serve"],
                          default=None,
                          help="restrict to one run kind (default: all)")
    p_report.add_argument("--limit", type=int, default=None, metavar="N",
                          help="only the newest N ledger entries")
    p_report.add_argument("--trace-in", metavar="PATH",
                          help="fold an slms-trace/1 JSON file into a "
                          "profiler table")
    p_report.add_argument("--journal", metavar="PATH",
                          help="summarize an slms-journal/1 checkpoint file")
    p_report.add_argument("--ledger-dir", default=None,
                          help="ledger directory (default: $SLMS_LEDGER_DIR "
                          "or ~/.cache/slms/ledger)")
    p_report.set_defaults(func=_cmd_report)

    p_obs = sub.add_parser(
        "obs", help="run-ledger tools: listing, regression diff, "
        "BENCH export"
    )
    obs_sub = p_obs.add_subparsers(dest="action", required=True)

    o_ledger = obs_sub.add_parser(
        "ledger", help="list recorded runs (newest last)"
    )
    o_ledger.add_argument("--kind", choices=["sweep", "bench", "fuzz",
                                             "trace", "serve"],
                          default=None)
    o_ledger.add_argument("--limit", type=int, default=None, metavar="N")
    o_ledger.add_argument("--verify", action="store_true",
                          help="re-derive every entry's content address")
    o_ledger.add_argument("--ledger-dir", default=None)
    o_ledger.set_defaults(func=_cmd_obs)

    o_diff = obs_sub.add_parser(
        "diff", help="regression sentinel: compare two ledger entries "
        "(exit 1 on regression)"
    )
    o_diff.add_argument("old", nargs="?", default="HEAD~1",
                        help="baseline entry: HEAD, HEAD~N or an id prefix "
                        "(default HEAD~1)")
    o_diff.add_argument("new", nargs="?", default="HEAD",
                        help="candidate entry (default HEAD)")
    o_diff.add_argument("--bench", metavar="PATH",
                        help="compare NEW against a BENCH_sweep.json "
                        "trajectory instead of another entry")
    o_diff.add_argument("--kind", choices=["sweep", "bench", "fuzz",
                                           "trace", "serve"],
                        default=None,
                        help="entry kind to resolve refs against "
                        "(default sweep)")
    o_diff.add_argument("--wall-tol", type=float, default=1.0,
                        metavar="FRAC",
                        help="allowed relative wall-clock growth "
                        "(default 1.0 = 2x)")
    o_diff.add_argument("--phase-tol", type=float, default=1.0,
                        metavar="FRAC",
                        help="allowed relative per-phase growth "
                        "(default 1.0 = 2x)")
    o_diff.add_argument("--allow-config-drift", action="store_true",
                        help="compare entries even when their config "
                        "digests differ")
    o_diff.add_argument("--json", action="store_true",
                        help="emit the slms-diff/1 payload")
    o_diff.add_argument("--ledger-dir", default=None)
    o_diff.set_defaults(func=_cmd_obs)

    o_export = obs_sub.add_parser(
        "bench-export", help="emit a BENCH_sweep.json history entry from "
        "a sweep ledger record"
    )
    o_export.add_argument("--ref", default="HEAD",
                          help="sweep entry to export (default HEAD)")
    o_export.add_argument("--pr", type=int, default=None,
                          help="PR number for the history entry")
    o_export.add_argument("--label", default=None,
                          help="override the entry's label")
    o_export.add_argument("--out", metavar="PATH",
                          help="write to PATH instead of stdout")
    o_export.add_argument("--ledger-dir", default=None)
    o_export.set_defaults(func=_cmd_obs)

    args = parser.parse_args(argv)
    from repro.lang.errors import FrontendError

    # SIGTERM gets the same graceful treatment as Ctrl-C (exit 143 and
    # a resume hint instead of a raw traceback); ``slms serve``
    # installs its own draining handler on top of this one.
    _install_sigterm()

    # Top-level exception boundary: no subcommand ever dumps a raw
    # traceback, and exit codes are uniform — 0 ok, 1 failures/internal
    # error, 2 usage or input error (argparse's own convention), 130
    # interrupted, 143 terminated.  SLMS_DEBUG=1 re-raises for
    # debugging.
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print(
            "\ninterrupted; partial results may have been checkpointed "
            "(re-run with --resume to continue)",
            file=sys.stderr,
        )
        return 130
    except _Terminated:
        print(
            "\nterminated (SIGTERM); partial results may have been "
            "checkpointed (re-run with --resume to continue)",
            file=sys.stderr,
        )
        return 143
    except FrontendError as exc:
        path = getattr(args, "file", None)
        print(exc.format(path), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        if os.environ.get("SLMS_DEBUG"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if os.environ.get("SLMS_DEBUG"):
            raise
        print(
            f"internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        print("(set SLMS_DEBUG=1 to see the full traceback)",
              file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
