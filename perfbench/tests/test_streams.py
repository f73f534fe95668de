from collections import Counter

from slmsbench.streams import build_stream

NAMES = [f"w{i}" for i in range(47)]
PAIRS = [("m1", "c1"), ("m1", "c2"), ("m2", "c1"), ("m3", "c3"),
         ("m4", "c4")]


def test_stream_is_a_function_of_the_seed():
    assert build_stream(7, NAMES, PAIRS, 220) == build_stream(
        7, NAMES, PAIRS, 220
    )
    assert build_stream(7, NAMES, PAIRS, 220) != build_stream(
        8, NAMES, PAIRS, 220
    )


def test_connections_draw_from_disjoint_halves():
    first, second = build_stream(3, NAMES, PAIRS, 220)
    assert len(first) == len(second) == 110
    used = [{r["workload"] for r in conn} for conn in (first, second)]
    assert not used[0] & used[1]


def test_op_mix_and_pairs_are_balanced_for_every_seed():
    for seed in range(5):
        for conn in build_stream(seed, NAMES, PAIRS, 220):
            ops = Counter(r["op"] for r in conn)
            assert ops == {"compile": 61, "advise": 28, "bench": 21}
            pairs = Counter((r["params"]["machine"], r["params"]["compiler"])
                            for r in conn if r["op"] == "bench")
            assert max(pairs.values()) - min(pairs.values()) <= 1
