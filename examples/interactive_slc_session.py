"""An interactive source-level-compiler session (§8).

Run:  python examples/interactive_slc_session.py

§8 demonstrates the SLC workflow: the *user* inspects SLMS's outcome,
understands which dependence limited the II, edits the source, and
re-runs.  This script replays the paper's ``lw``/``temp`` example:

* the original loop gets II = 2 — the cycle through ``lw++`` of the
  current iteration and ``temp -= x[lw] * y[j]`` of the next one;
* the user moves ``lw++`` before the first statement, letting MVE
  rename ``lw`` and SLMS reach II = 1.
"""

from repro import SLMSOptions, slms, to_source
from repro.lang import parse_program
from repro.sim.interp import run_program, state_equal

SETUP = """
float x[128], y[128];
float temp = 100.0;
int lw;
for (i = 0; i < 128; i++) { x[i] = 0.01 * i + 0.5; y[i] = 0.02 * i + 1.0; }
"""

ORIGINAL = """
lw = 6;
for (j = 4; j < 100; j = j + 2) {
    temp -= x[lw] * y[j];
    lw++;
}
"""

# The user's edit (§8): advance lw before its use so MVE can rename it.
EDITED = """
lw = 6;
for (j = 4; j < 100; j = j + 2) {
    lw++;
    temp -= x[lw] * y[j];
}
"""


def report(tag: str, source: str, options: SLMSOptions):
    from repro.core.explain import explain

    outcome = slms(parse_program(SETUP + source), options)
    kernel = outcome.loops[-1]
    print(f"--- {tag}: the SLC's report ---")
    print(explain(kernel.loop, kernel))
    return outcome


def main() -> None:
    options = SLMSOptions(enable_filter=False)

    print("The user submits the §8 loop to the source level compiler:")
    print(ORIGINAL)
    first = report("original", ORIGINAL, options)

    print()
    print("The SLC's report shows the II is limited by the dependence")
    print("cycle between `temp -= x[lw]*y[j]` (next iteration) and `lw++`")
    print("(current iteration).  The user moves `lw++` up:")
    print(EDITED)
    second = report("after the user's edit", EDITED, options)

    # The semantics of the two user versions differ intentionally (lw is
    # pre-incremented), but each transformed program must match *its own*
    # original bit-for-bit.
    for tag, src, outcome in (
        ("original", ORIGINAL, first),
        ("edited", EDITED, second),
    ):
        base = run_program(parse_program(SETUP + src))
        out = run_program(outcome.program)
        extra = {k for k in out if k not in base}
        assert state_equal(base, out, ignore=extra), tag
        print(f"[oracle] {tag}: transformed output identical ✓")

    print()
    print("final pipelined loop (paper notation):")
    print(to_source(second.program, style="paper"))


if __name__ == "__main__":
    main()
