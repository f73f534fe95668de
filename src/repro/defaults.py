"""The defaults every front end shares.

The machine and compiler preset a request or command gets when it
names none, and the exact scheduler's placement-attempt budget.  The
module imports nothing, so any entry point can read it at no start-up
cost.
"""

#: Machine preset (``repro.machines.presets``): the paper's Itanium II.
DEFAULT_MACHINE = "itanium2"

#: Final-compiler preset (``repro.backend.compiler``): the Figs. 14/15/17
#: baseline.
DEFAULT_COMPILER = "gcc_O3"

#: Placement attempts the exact scheduler may spend on one loop
#: (docs/SCHEDULERS.md).
DEFAULT_SCHED_BUDGET = 50_000
