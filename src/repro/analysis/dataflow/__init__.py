"""Dataflow analysis framework over the statement-level control-flow graph.

The package provides one generic engine and three concrete analyses:

* :mod:`repro.analysis.dataflow.cfg` — a statement-granularity CFG for
  the C subset (loops, branches, ``break``/``continue``), built without
  cloning so results map back onto the caller's AST nodes;
* :mod:`repro.analysis.dataflow.solver` — an iterative worklist solver
  with per-edge refinement hooks and widening at loop heads;
* :mod:`repro.analysis.dataflow.reaching` — reaching definitions over
  scalars, including "uninitialized" pseudo-definitions for declared
  but unassigned names;
* :mod:`repro.analysis.dataflow.liveness` — backward liveness (every
  declared scalar is observable at program exit, so dead stores are
  writes provably overwritten before any read);
* :mod:`repro.analysis.dataflow.intervals` — integer value-range
  analysis with condition refinement on branch edges, the engine behind
  ``slms lint``'s array-bounds proofs.

``slms lint`` (:mod:`repro.verify.lint`) consumes the statement-level
analyses; see ``docs/ANALYSIS.md`` for the lattice/transfer
definitions.  The
simulator's LIR operand-type analysis (:mod:`repro.sim.lir_types`)
runs the same solver over a block-level CFG.
"""

from repro.analysis.dataflow.cfg import CFG, CFGNode, build_cfg
from repro.analysis.dataflow.intervals import (
    Interval,
    IntervalAnalysis,
    eval_interval,
    interval_envs,
)
from repro.analysis.dataflow.liveness import LivenessAnalysis, live_sets
from repro.analysis.dataflow.reaching import (
    Def,
    ReachingDefsAnalysis,
    reaching_defs,
)
from repro.analysis.dataflow.solver import DataflowAnalysis, DataflowResult, solve

__all__ = [
    "CFG",
    "CFGNode",
    "DataflowAnalysis",
    "DataflowResult",
    "Def",
    "Interval",
    "IntervalAnalysis",
    "LivenessAnalysis",
    "ReachingDefsAnalysis",
    "build_cfg",
    "eval_interval",
    "interval_envs",
    "live_sets",
    "reaching_defs",
    "solve",
]
