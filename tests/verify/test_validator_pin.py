"""Pin the schedule validator's reports across the corpus.

Every applied loop of the 47 corpus workloads (under the default
options, ``expansion="scalar"`` and ``expansion="none"``), of
``examples/*.c`` and of ``tests/fuzz/corpus/*.c`` (default options) is
validated, and its report — ``events``, ``matched``, ``structural`` and
the formatted diagnostics — must equal the committed row in
``data/validator_reports.json``.  The replay's internals may be made
cheaper; what it concludes may not move.

Regenerate the file (only when a validator change is *meant* to alter
its reports) with::

    PYTHONPATH=src python -m tests.verify.test_validator_pin --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List

from repro.core.pipeline import slms
from repro.core.slms import SLMSOptions
from repro.harness.experiment import transform_kernel
from repro.lang.parser import parse_program
from repro.verify.schedule import validate_result
from repro.workloads import all_workloads

ROOT = Path(__file__).resolve().parents[2]
DATA = Path(__file__).resolve().parent / "data" / "validator_reports.json"

OPTION_SETS = {
    "default": SLMSOptions(),
    "scalar": SLMSOptions(expansion="scalar"),
    "none": SLMSOptions(expansion="none"),
}


def _rows(source: str, label: str, loops) -> Iterator[Dict[str, object]]:
    for index, result in enumerate(loops):
        if not result.applied:
            continue
        report = validate_result(result, result.loop)
        yield {
            "source": source,
            "loop": index,
            "options": label,
            "events": report.events,
            "matched": report.matched,
            "structural": report.structural,
            "diagnostics": [d.format() for d in report.diagnostics],
        }


def report_rows() -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for label, options in OPTION_SETS.items():
        for workload in all_workloads():
            _, loops = transform_kernel(workload, options)
            rows.extend(_rows(workload.name, label, loops))
    files = sorted(ROOT.glob("examples/*.c")) + sorted(
        ROOT.glob("tests/fuzz/corpus/*.c")
    )
    for path in files:
        program = parse_program(path.read_text())
        loops = slms(program, OPTION_SETS["default"]).loops
        rows.extend(_rows(path.relative_to(ROOT).as_posix(), "default", loops))
    return rows


def test_validator_reports_match_the_pin():
    pinned = json.loads(DATA.read_text())
    rows = report_rows()
    for want, got in zip(pinned, rows):
        assert got == want, (
            f"{want['source']} loop {want['loop']} ({want['options']}): "
            f"validator report changed"
        )
    assert len(rows) == len(pinned)
    # The pin exercises both the replay and its skips.
    assert any(row["structural"] for row in pinned)
    assert any("[N208]" in d for row in pinned for d in row["diagnostics"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.verify.test_validator_pin --write")
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(json.dumps(report_rows(), indent=1) + "\n")
