import json

import pytest

from slmsbench import checks


@pytest.fixture(scope="module")
def expected():
    return checks.load_expected_sweep()


def test_expected_records_are_the_frozen_sweep(expected):
    assert len(expected) == 235
    text = checks.EXPECTED_SWEEP_PATH.read_text(encoding="utf-8")
    assert checks.check_sweep(text, expected) == (235, [])


def test_sweep_check_rejects_a_wrong_digest(expected):
    records = json.loads(checks.EXPECTED_SWEEP_PATH.read_text())
    records[3]["slms_cycles"] += 1
    ok, problems = checks.check_sweep(json.dumps(records, indent=2),
                                      expected)
    assert ok == 234
    assert any("digest" in p for p in problems)
    assert any("record differs" in p for p in problems)


def test_sweep_check_rejects_reformatted_but_equal_records(expected):
    # Same records, other bytes: the frozen digest is over the bytes.
    ok, problems = checks.check_sweep(json.dumps(expected), expected)
    assert ok == 235 and problems


def test_load_refuses_an_edited_expected_file(tmp_path):
    bad = tmp_path / "sweep.json"
    bad.write_text(checks.EXPECTED_SWEEP_PATH.read_text() + "\n")
    with pytest.raises(ValueError):
        checks.load_expected_sweep(bad)


VERDICTS = [(11, "ok"), (12, "declined"), (13, "fail"), (14, "ok")]
REPORT = {
    "status_counts": {"ok": 2, "declined": 1, "fail": 1},
    "failures": [{"seed": 13}],
}


def test_fuzz_check_counts_failures_as_failed_ops():
    assert checks.check_fuzz(4, VERDICTS, REPORT) == (3, [])


def test_fuzz_check_rejects_an_uncounted_failure():
    report = {"status_counts": {"ok": 3, "declined": 1}, "failures": []}
    ok, problems = checks.check_fuzz(4, VERDICTS, report)
    assert problems and ok == 3


def test_fuzz_check_rejects_missing_verdicts():
    ok, problems = checks.check_fuzz(5, VERDICTS, REPORT)
    assert any("4 verdicts for 5 cases" in p for p in problems)
    _ok, problems = checks.check_fuzz(
        4, VERDICTS[:3] + [(14, None)], REPORT
    )
    assert any("without a verdict" in p for p in problems)


@pytest.fixture(scope="module")
def reference():
    import run

    return run._serve_reference()


SOURCE = (
    "float A[8];\n"
    "float s;\n"
    "for (i = 0; i < 8; i = i + 1) { A[i] = i * 2.0; }\n"
    "s = A[3];\n"
)


def _response(op, result, workload="w", params=None, status=200):
    return {"op": op, "workload": workload, "params": params or {},
            "status": status, "envelope": {"ok": status == 200,
                                           "result": result}}


def test_serve_check_accepts_a_correct_compile(reference):
    ok, problems = checks.check_serve(
        [_response("compile", {"source": SOURCE})] * 2,
        {"w": SOURCE}, [], *reference,
    )
    assert (ok, problems) == (2, [])


def test_serve_check_rejects_a_wrong_compile_result(reference):
    wrong = SOURCE.replace("i * 2.0", "i * 3.0")
    ok, problems = checks.check_serve(
        [_response("compile", {"source": wrong})], {"w": SOURCE}, [],
        *reference,
    )
    assert ok == 0
    assert any("disagrees with its input" in p for p in problems)


def test_serve_check_rejects_advise_disagreeing_with_driver(reference):
    (applied, reason), = reference[2](SOURCE)
    agree = {"verdict": "apply" if applied else "decline", "reason": reason}
    flipped = {"verdict": "decline" if applied else "apply",
               "reason": "made up"}
    for loop, want in ((agree, 1), (flipped, 0)):
        ok, problems = checks.check_serve(
            [_response("advise", {"loops": [loop]})], {"w": SOURCE}, [],
            *reference,
        )
        assert ok == want and bool(problems) == (not want)


def test_serve_check_compares_bench_with_expected_record(expected):
    want = expected[0]
    params = {"machine": want["machine"], "compiler": want["compiler"]}
    result = {key: want[src] for key, src in checks.BENCH_FIELDS}

    def never(*_args):
        raise AssertionError("bench checks need no interpreter")

    ok, problems = checks.check_serve(
        [_response("bench", result, want["workload"], params)],
        {}, expected, never, never, never,
    )
    assert (ok, problems) == (1, [])
    result["slms_cycles"] += 1
    ok, problems = checks.check_serve(
        [_response("bench", result, want["workload"], params)],
        {}, expected, never, never, never,
    )
    assert ok == 0 and problems


def test_serve_check_does_not_count_failed_requests(expected):
    def never(*_args):
        raise AssertionError("failed requests are not checked")

    ok, problems = checks.check_serve(
        [_response("compile", None, status=500)], {}, expected,
        never, never, never,
    )
    assert (ok, problems) == (0, [])
