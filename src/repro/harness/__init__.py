"""Experiment harness: run SLMS-vs-original comparisons and regenerate
the paper's figures.

* :mod:`repro.harness.experiment` — compile a workload both ways for a
  (machine, compiler) pair, simulate, and report kernel-only cycles,
  speedup, energy and diagnostics;
* :mod:`repro.harness.engine` — the evaluation engine: parallel
  experiment fan-out plus content-addressed result memoization, every
  setting an argument of the call;
* :mod:`repro.harness.expcache` — the on-disk store: whole results
  and each pipeline phase, in tiers;
* :mod:`repro.harness.faults` — the fault-tolerance layer: error
  taxonomy, guarded dispatch (timeouts, retries, crash quarantine),
  checkpoint journal, and the deterministic fault-injection harness;
* :mod:`repro.harness.figures` — one entry per paper figure (14–22 plus
  the in-text bundle counts), producing the same series the paper plots;
* :mod:`repro.harness.sweep` — the full workloads × machines × compilers
  matrix with CSV/JSON export;
* :mod:`repro.harness.report` — text rendering of figure series.
"""

from repro.harness.engine import (
    ENGINE_VERSION,
    EngineStats,
    ExperimentSpec,
    run_experiments,
)
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.faults import (
    FailedResult,
    FaultPlan,
    RunJournal,
    TaskError,
    TaskFailedError,
    TransientError,
    is_failed,
)
from repro.harness.figures import FIGURES, run_figure
from repro.harness.sweep import SweepResult, run_sweep

__all__ = [
    "ENGINE_VERSION",
    "EngineStats",
    "ExperimentResult",
    "ExperimentSpec",
    "FIGURES",
    "FailedResult",
    "FaultPlan",
    "RunJournal",
    "SweepResult",
    "TaskError",
    "TaskFailedError",
    "TransientError",
    "is_failed",
    "run_experiment",
    "run_experiments",
    "run_figure",
    "run_sweep",
]
