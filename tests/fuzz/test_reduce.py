"""Reducer tests: ddmin against a synthetic oracle, corpus round-trip.

The real oracle is slow and (now) never fails, so the reducer is
exercised against a monkeypatched predicate oracle: a case "fails"
iff its source still writes to array ``B``.  The reducer must strip
everything else while preserving the failure class.
"""

import pytest

import repro.fuzz.reduce as reduce_mod
from repro.fuzz.generator import FuzzCase
from repro.fuzz.oracle import CaseOutcome
from repro.fuzz.reduce import (
    ReductionResult,
    corpus_filename,
    load_corpus,
    reduce_case,
    write_corpus_entry,
)
from repro.fuzz.session import FuzzFailure

NOISY = """\
float A[16];
float B[16];
float C[16];
float s;
int i;
int j;
s = 0.5;
for (j = 0; j < 4; j++) {
    C[j] = C[j] + 1.0;
}
for (i = 0; i < 6; i++) {
    A[i] = A[i] * 2.0;
    B[i + 1] = B[i] + s;
    C[i] = A[i] + 3.0;
}
"""


def predicate_oracle(case, config=None):
    """Synthetic oracle: failing iff the program still touches B."""
    failing = "B[" in case.source
    return CaseOutcome(
        seed=case.seed,
        profile=case.profile,
        status="fail" if failing else "ok",
        failure_class="differential" if failing else None,
        detail="synthetic: writes B" if failing else "",
        source=case.source,
    )


@pytest.fixture
def synthetic(monkeypatch):
    monkeypatch.setattr(reduce_mod, "run_case", predicate_oracle)


def make_failing_case():
    case = FuzzCase.from_source(NOISY, seed=99)
    return case, predicate_oracle(case)


class TestDdmin:
    def test_reduces_to_the_essential_statement(self, synthetic):
        case, outcome = make_failing_case()
        result = reduce_case(case, outcome)
        assert result.shrank
        assert "B[" in result.reduced, "reducer destroyed the failure"
        # Everything unrelated to B must be gone.
        assert "C[j]" not in result.reduced
        assert result.failure_class == "differential"
        assert result.tests > 0 and result.steps > 0

    def test_reduction_is_deterministic(self, synthetic):
        case, outcome = make_failing_case()
        a = reduce_case(case, outcome)
        b = reduce_case(case, outcome)
        assert a.reduced == b.reduced
        assert a.tests == b.tests

    def test_respects_test_budget(self, synthetic):
        case, outcome = make_failing_case()
        result = reduce_case(case, outcome, max_tests=5)
        assert result.tests <= 5
        assert "B[" in result.reduced

    def test_rejects_passing_outcome(self):
        case = FuzzCase.from_source(NOISY, seed=99)
        ok = CaseOutcome(seed=99, profile="corpus", status="ok")
        with pytest.raises(ValueError):
            reduce_case(case, ok)


class TestCorpusPersistence:
    def test_filename_slugs_the_class(self):
        name = corpus_filename("backend-differential", 7, "dataflow")
        assert name == "backend_differential_dataflow_7.c"

    def test_write_then_load_round_trip(self, synthetic, tmp_path):
        case, outcome = make_failing_case()
        result = reduce_case(case, outcome)
        failure = FuzzFailure(
            seed=case.seed, profile=case.profile,
            failure_class="backend-differential", detail=outcome.detail,
            source=case.source, reduced=result.reduced,
            notes="synthetic repro",
        )
        path = write_corpus_entry(failure, tmp_path)
        assert path.name == corpus_filename(
            "backend-differential", case.seed, case.profile
        )
        entries = load_corpus(tmp_path)
        assert [e.path for e in entries] == [path]
        entry = entries[0]
        assert entry.expect_seed == case.seed
        assert "synthetic repro" in entry.header
        assert "detail: synthetic: writes B" in entry.header
        assert entry.source == result.reduced
        # The body must be clean source again: no comment residue.
        assert not entry.source.startswith("/*")

    def test_load_corpus_on_missing_dir(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []

    def test_reduction_result_shrank_property(self):
        r = ReductionResult(
            original="aaaa",
            reduced="a",
            failure_class="differential",
            outcome=CaseOutcome(seed=0, profile="x", status="fail"),
        )
        assert r.shrank
