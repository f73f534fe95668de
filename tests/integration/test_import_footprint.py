"""The program's runtime never loads networkx.

networkx is a test-only dependency (the reference for cycle enumeration
and strongly connected components); importing it cost every ``slms``
process about 0.2 s and 12 MB on a 2-vCPU host.  A fresh interpreter
imports the entry points of the CLI, the sweep, the fuzzer and the
server, runs one operation of each kind, and must still have no
networkx module loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import json
import sys

import repro.cli
import repro.fuzz.session
import repro.harness.sweep
import repro.serve.server
from repro.fuzz.session import FuzzSessionConfig, run_fuzz_session
from repro.harness.experiment import run_experiment
from repro.lang import parse_stmt
from repro.serve.session import Session, SessionConfig
from repro.transforms import distribute
from repro.workloads.corpus import get_workload

result = run_experiment(
    get_workload("kernel1"), "itanium2", "gcc_O3", verify=True
)
report = run_fuzz_session(
    FuzzSessionConfig(
        master_seed=42, iterations=1, profile="all", workers=1,
        reduce_failures=False,
    )
)
session = Session(SessionConfig(use_cache=False))
compiled = session.handle(
    "compile",
    {"source": "float A[8];\nfor (i = 0; i < 8; i++) { A[i] = i * 2.0; }\n"},
)
loops = distribute(
    parse_stmt("for (i = 0; i < 8; i++) { A[i] = 1.0; B[i] = A[i]; }")
)
print(json.dumps({
    "cycles": result.slms_cycles > 0,
    "cases": sum(report.status_counts.values()),
    "compiled": bool(compiled),
    "loops": len(loops),
    "networkx": sorted(
        name for name in sys.modules
        if name == "networkx" or name.startswith("networkx.")
    ),
}))
"""


def test_runtime_operations_load_no_networkx():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "cycles": True, "cases": 1, "compiled": True, "loops": 2,
        "networkx": [],
    }
