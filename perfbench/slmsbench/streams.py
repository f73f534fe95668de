"""The seeded request stream of ``serve_mixed``.

Every connection draws from its own half of the corpus, so two
in-flight requests are never identical and the server never coalesces
them by a timing accident.  The op mix is fixed per connection (55 %
compile, 25 % advise, 20 % bench); the seed picks the corpus split,
the order of ops, the sources and the paper pair of each bench.
Bench pairs are dealt round-robin so every pair gets a near-equal
share whatever the seed.

The mix and the two closed-loop connections are an assumption, not
recorded caller traffic (see the README): they make one stream exercise
all three ops.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

MIX = (("compile", 0.55), ("advise", 0.25))  # bench takes the rest
CONNECTIONS = 2
REQUESTS_PER_SECOND = 22  # sizes the stream: --seconds 15 -> 330


def op_counts(per_connection: int) -> Dict[str, int]:
    counts = {op: round(share * per_connection) for op, share in MIX}
    counts["bench"] = per_connection - sum(counts.values())
    return counts


def build_stream(
    seed: int,
    workloads: Sequence[str],
    pairs: Sequence[Tuple[str, str]],
    total: int,
    connections: int = CONNECTIONS,
) -> List[List[Dict[str, object]]]:
    """One request list per connection; each request is
    ``{"op", "workload", "params"}`` with ``params`` minus the source
    text (the load process fills ``source`` in from the corpus)."""
    rng = random.Random(seed)
    names = list(workloads)
    rng.shuffle(names)
    per_connection = total // connections
    counts = op_counts(per_connection)
    streams = []
    for conn in range(connections):
        half = names[conn::connections]
        compile_src = _cycle(rng, half, counts["compile"])
        advise_src = _cycle(rng, half, counts["advise"])
        bench_wl = _cycle(rng, half, counts["bench"])
        bench_pairs = _cycle(rng, list(pairs), counts["bench"])
        ops = (["compile"] * counts["compile"] + ["advise"] * counts["advise"]
               + ["bench"] * counts["bench"])
        rng.shuffle(ops)
        picks = {"compile": iter(compile_src), "advise": iter(advise_src)}
        bench = iter(zip(bench_wl, bench_pairs))
        requests = []
        for op in ops:
            if op == "bench":
                workload, (machine, compiler) = next(bench)
                params = {"workload": workload, "machine": machine,
                          "compiler": compiler}
            else:
                workload = next(picks[op])
                params = {}
            requests.append({"op": op, "workload": workload,
                             "params": params})
        streams.append(requests)
    return streams


def _cycle(rng: random.Random, items: Sequence, count: int) -> list:
    """``count`` items: whole seeded permutations of ``items`` in turn."""
    out: list = []
    while len(out) < count:
        batch = list(items)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:count]
