"""The host: its record for one run, and the speed probe.

The record (steal time, load average, a calibration loop before and
after the measured phase) is kept beside the metrics, never folded into
them: it is what tells a slow host from a slow program.

The speed probe is part of the measurement.  On a shared host the same
code runs up to 70 % slower for a minute at a time, and the process's
CPU time slows with it (the time is not stolen, the core is slower), so
no choice of clock removes it.  A short fixed piece of work, timed
between ops in the process that does the work, tracks that speed; every
timed metric is reported at the probe's nominal speed
(:func:`at_nominal`).  The probe is the benchmark's own code, so a
change to the program moves the metrics and not the probe.  It is a tiny
compiler (lex, parse, evaluate a fixed program of statements) because
its speed has to move like the program's: a tight arithmetic loop stays
in the L1 cache and misses most of the slowdowns an object-heavy
compiler feels.  It is timed in thread
CPU time with the cyclic GC off, so waiting for the GIL or for a CPU the
program's other threads and processes hold, or collecting the program's
heap, does not count as a slow host.
"""

from __future__ import annotations

import gc
import operator
import os
import statistics
import time
from typing import Dict, List, Optional, Sequence

CALIBRATION_ITERS = 1_000_000
PROBE_ROUNDS = 6
# The probe's time at the speed every timed metric is reported at.  It
# is a unit, not a measurement: changing it rescales every metric.
PROBE_NOMINAL_S = 0.005
PROBE_EVERY_S = 0.25
# An op is rescaled by this many probes on each side of it: about a
# second each way, long enough to average out single probes and short
# enough to follow the host's speed.
PROBE_WINDOW = 4
SETUP_PROBES = 20


def calibration_seconds(iters: int = CALIBRATION_ITERS) -> float:
    """Wall time of a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(iters):
        acc += i * i
    return time.perf_counter() - start


_PROBE_SOURCE = " ".join(
    f"v{i % 17} = (v{i * 7 % 17} + {i}) * v{i * 3 % 17} - {i % 5};"
    for i in range(60)
)
_PROBE_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def _probe_lex(src: str) -> List[str]:
    out, i, n = [], 0, len(src)
    while i < n:
        if src[i].isspace():
            i += 1
        elif src[i].isalnum():
            j = i
            while j < n and src[j].isalnum():
                j += 1
            out.append(src[i:j])
            i = j
        else:
            out.append(src[i])
            i += 1
    return out


def _probe_parse(toks: List[str]) -> list:
    pos = 0

    def atom():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            node = expr()
            pos += 1
            return node
        return int(tok) if tok.isdigit() else tok

    def term():
        nonlocal pos
        node = atom()
        while toks[pos] == "*":
            pos += 1
            node = _Node("*", node, atom())
        return node

    def expr():
        nonlocal pos
        node = term()
        while toks[pos] in "+-":
            op = toks[pos]
            pos += 1
            node = _Node(op, node, term())
        return node

    stmts = []
    while pos < len(toks):
        name = toks[pos]
        pos += 2
        stmts.append((name, expr()))
        pos += 1
    return stmts


def _probe_eval(node, env: Dict[str, int]) -> int:
    if isinstance(node, _Node):
        return _PROBE_OPS[node.op](_probe_eval(node.left, env),
                                   _probe_eval(node.right, env)) % 1000003
    if isinstance(node, int):
        return node
    return env.get(node, 1)


def probe_seconds() -> float:
    """Thread CPU time of the fixed probe, the cyclic GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        for _ in range(PROBE_ROUNDS):
            env: Dict[str, int] = {}
            for name, node in _probe_parse(_probe_lex(_PROBE_SOURCE)):
                env[name] = _probe_eval(node, env)
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def at_nominal(seconds: float, probes: Sequence[float]) -> float:
    """``seconds`` measured while the probe took ``probes``, rescaled to
    the time it would take where the probe takes ``PROBE_NOMINAL_S``.

    The probes are spread evenly over the timed span, so their mean is
    the span's mean slowness.
    """
    if not probes:
        raise ValueError("no speed probes for a timed span")
    return seconds * PROBE_NOMINAL_S / statistics.fmean(probes)


def per_op_at_nominal(times: Sequence[float], marks: Sequence[int],
                      probes: Sequence[float],
                      window: int = PROBE_WINDOW) -> List[float]:
    """Per-op times, each rescaled by the ``window`` probes run before it
    and the ``window`` run after it: ``marks[i]`` is how many probes had
    run when op ``i`` started.  The host's speed moves within seconds,
    so a percentile of per-op times is rescaled op by op rather than by
    the run's mean.
    """
    if not probes:
        raise ValueError("no speed probes for a timed span")
    return [
        t * PROBE_NOMINAL_S
        / statistics.fmean(probes[max(0, k - window):k + window])
        for t, k in zip(times, marks)
    ]


def probe_burst(count: int = SETUP_PROBES) -> List[float]:
    """``count`` probes back to back, e.g. right after a set-up."""
    return [probe_seconds() for _ in range(count)]


class SpeedProbe:
    """Times the probe loop between ops, at most once per interval.

    ``spent_s`` is the time the probes took, for the caller to take out
    of its measured phase.
    """

    def __init__(self, every_s: float = PROBE_EVERY_S) -> None:
        self.every_s = every_s
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._due = 0.0

    def between_ops(self) -> None:
        """One probe if the interval has passed since the last one."""
        now = time.perf_counter()
        if now < self._due:
            return
        self.samples.append(probe_seconds())
        end = time.perf_counter()
        self.spent_s += end - now
        self._due = end + self.every_s


def steal_seconds() -> Optional[float]:
    """Cumulative steal time of all CPUs from ``/proc/stat``, if known."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _loadavg() -> Optional[float]:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


class HostRecord:
    """Snapshot before and after the measured phase."""

    def __init__(self) -> None:
        self.record: Dict[str, object] = {"cpus": os.cpu_count()}
        self._steal0: Optional[float] = None

    def before(self) -> None:
        self.record["calibration_before_s"] = calibration_seconds()
        self.record["loadavg_before"] = _loadavg()
        self._steal0 = steal_seconds()

    def after(self) -> None:
        steal1 = steal_seconds()
        if self._steal0 is not None and steal1 is not None:
            self.record["steal_s"] = round(steal1 - self._steal0, 3)
        self.record["loadavg_after"] = _loadavg()
        self.record["calibration_after_s"] = calibration_seconds()
