"""Scheduler backend registry (docs/SCHEDULERS.md).

``get_scheduler`` is the one constructor, and the SLMS driver its one
caller — backends register here and become reachable as
``SLMSOptions(scheduler="<name>")`` from every tool built on the driver
(``slms advise``, the compare harness, the fuzz oracle).
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.core.schedulers.base import (
    EDGE_MIN_SLACK,
    MinII,
    ModuloScheduler,
    SourceSchedule,
    edge_min_slack,
    identity_feasible,
    op_class_counts,
    recurrence_mii,
    resource_mii,
)
from repro.core.schedulers.exact import ExactScheduler
from repro.core.schedulers.heuristic import HeuristicScheduler

SCHEDULERS: Dict[str, Type[ModuloScheduler]] = {
    "heuristic": HeuristicScheduler,
    "exact": ExactScheduler,
}

SCHEDULER_NAMES = tuple(sorted(SCHEDULERS))


def get_scheduler(
    name: str, budget_nodes: Optional[int] = None
) -> ModuloScheduler:
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from "
            + ", ".join(SCHEDULER_NAMES)
        ) from None
    return cls(budget_nodes=budget_nodes)


__all__ = [
    "EDGE_MIN_SLACK",
    "MinII",
    "ModuloScheduler",
    "SourceSchedule",
    "SCHEDULERS",
    "SCHEDULER_NAMES",
    "ExactScheduler",
    "HeuristicScheduler",
    "edge_min_slack",
    "get_scheduler",
    "identity_feasible",
    "op_class_counts",
    "recurrence_mii",
    "resource_mii",
]
