"""Output checks that do not trust the code path under test.

They run after the measured phase.  Each returns ``(ok_ops, problems)``:
the ops whose output was verified, and a list of what failed.  A run's
``output_ok`` is 1 only when ``problems`` is empty.

* sweeps: the sweep JSON must hash to the frozen digest and equal the
  stored expected records (whose own hash is that digest);
* ``fuzz_all``: the oracle's differential against the reference
  interpreter is the check; the benchmark checks that every case got
  a verdict and that every failing verdict is counted as a failed op;
* ``serve_mixed``: compile results must agree with their input under
  the tree-walking reference interpreter, bench results must equal the
  expected record, and advise verdicts must equal the SLMS driver's.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

EXPECTED_SWEEP_SHA256 = (
    "cc164c82f005ebf49102c2042c6e705e1144436c2b06c05a3ee6616160969815"
)
EXPECTED_SWEEP_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "sweep_expected.json"
)
VERDICTS = ("ok", "declined", "fail", "error")
BENCH_FIELDS = (
    ("base_cycles", "base_cycles"),
    ("slms_cycles", "slms_cycles"),
    ("speedup", "speedup"),
    ("base_energy_pj", "base_energy_pj"),
    ("slms_energy_pj", "slms_energy_pj"),
    ("slms_applied", "slms_applied"),
    ("ii", "ii"),
    ("slms_reason", "reason"),
)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected_sweep(path: Path = EXPECTED_SWEEP_PATH) -> List[Dict]:
    """The frozen sweep records, refusing a file that is not the digest."""
    text = path.read_text(encoding="utf-8")
    if sha256_text(text) != EXPECTED_SWEEP_SHA256:
        raise ValueError(f"{path} does not hash to the frozen sweep digest")
    return json.loads(text)


def check_sweep(
    sweep_json: str, expected: Sequence[Dict]
) -> Tuple[int, List[str]]:
    """Records equal to the expected ones, and what differs."""
    problems = []
    digest = sha256_text(sweep_json)
    if digest != EXPECTED_SWEEP_SHA256:
        problems.append(f"sweep digest {digest[:16]}… is not "
                        f"{EXPECTED_SWEEP_SHA256[:16]}…")
    records = json.loads(sweep_json)
    if len(records) != len(expected):
        problems.append(
            f"{len(records)} records, expected {len(expected)}"
        )
    ok = 0
    for got, want in zip(records, expected):
        if got == want:
            ok += 1
        elif len(problems) < 8:
            problems.append(
                f"{want['workload']}@{want['machine']}/{want['compiler']}: "
                "record differs"
            )
    return ok, problems


def check_fuzz(
    iterations: int, verdicts: Sequence[Tuple[int, str]], report: Dict
) -> Tuple[int, List[str]]:
    """Every case has a verdict and every failing verdict is counted.

    ``verdicts`` are ``(case seed, status)`` as the cases finished;
    ``report`` is the session's JSON report.
    """
    problems = []
    if len(verdicts) != iterations:
        problems.append(f"{len(verdicts)} verdicts for {iterations} cases")
    bad = [status for _seed, status in verdicts if status not in VERDICTS]
    if bad:
        problems.append(f"cases without a verdict: {sorted(set(bad))}")
    statuses = Counter(status for _seed, status in verdicts)
    if dict(statuses) != dict(report.get("status_counts", {})):
        problems.append(
            f"report counts {report.get('status_counts')} != case "
            f"verdicts {dict(statuses)}"
        )
    failing = sorted(seed for seed, status in verdicts
                     if status in ("fail", "error"))
    reported = sorted(f["seed"] for f in report.get("failures", []))
    if failing != reported:
        problems.append(
            f"failing cases {failing} != reported failures {reported}"
        )
    ok = statuses.get("ok", 0) + statuses.get("declined", 0)
    return ok, problems


def check_serve(
    responses: Sequence[Dict[str, Any]],
    sources: Dict[str, str],
    expected: Sequence[Dict],
    reference_state: Callable[[str], Any],
    states_agree: Callable[[Any, Any], bool],
    driver_loops: Callable[[str], List[Tuple[bool, str]]],
) -> Tuple[int, List[str]]:
    """Verify each served response; failed requests are not ok ops.

    ``responses`` hold ``op``, ``workload``, ``params``, ``status`` and
    ``envelope``.  ``reference_state(source)`` runs the tree-walking
    interpreter, ``driver_loops(source)`` the SLMS driver.
    """
    by_cell = {(r["workload"], r["machine"], r["compiler"]): r
               for r in expected}
    problems: List[str] = []
    ok = 0
    compiled: Dict[str, str] = {}
    verified: Dict[str, bool] = {}
    ref_cache: Dict[str, Any] = {}

    def reference(text: str):
        if text not in ref_cache:
            ref_cache[text] = reference_state(text)
        return ref_cache[text]

    def note(message: str) -> None:
        if len(problems) < 8:
            problems.append(message)

    for resp in responses:
        env = resp.get("envelope") or {}
        if resp.get("status") != 200 or not env.get("ok"):
            continue
        result = env["result"]
        op, name = resp["op"], resp["workload"]
        if op == "compile":
            out = result["source"]
            if compiled.setdefault(name, out) != out:
                note(f"compile {name}: two different results for one source")
                continue
            if name not in verified:
                verified[name] = states_agree(
                    reference(sources[name]), reference(out)
                )
                if not verified[name]:
                    note(f"compile {name}: result disagrees with its input "
                         "under the reference interpreter")
            ok += verified[name]
        elif op == "advise":
            got = [(loop["verdict"] == "apply", loop["reason"])
                   for loop in result["loops"]]
            if _verdicts(got) == _verdicts(driver_loops(sources[name])):
                ok += 1
            else:
                note(f"advise {name}: verdicts differ from the driver")
        elif op == "bench":
            params = resp["params"]
            cell = (name, params["machine"], params["compiler"])
            want = by_cell.get(cell)
            if want is not None and all(
                result.get(got_key) == want[want_key]
                for got_key, want_key in BENCH_FIELDS
            ):
                ok += 1
            else:
                note(f"bench {'/'.join(cell)}: result differs from the "
                     "expected record")
        else:
            note(f"unexpected op {op!r}")
    return ok, problems


def _verdicts(loops: Sequence[Tuple[bool, str]]) -> List[Tuple[bool, str]]:
    """(applies, decline reason); an applied loop's reason is not compared."""
    return [(applied, "" if applied else reason) for applied, reason in loops]
