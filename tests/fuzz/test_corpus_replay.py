"""Replay every corpus counterexample through the full oracle.

Each ``tests/fuzz/corpus/*.c`` file is either a reduced counterexample
from a past fuzzing run (now fixed) or a feature exemplar mined from a
large clean run.  Replaying them on every pytest run makes each one a
permanent regression test: a reintroduced bug fails here long before
the nightly fuzz job sees it.
"""

from pathlib import Path

import pytest

from repro.fuzz.oracle import check_source
from repro.fuzz.reduce import load_corpus

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
ENTRIES = load_corpus(CORPUS_DIR)


def test_corpus_is_populated():
    assert CORPUS_DIR.is_dir()
    assert len(ENTRIES) >= 10, (
        "the corpus must hold at least ten interesting loops; "
        f"found {len(ENTRIES)} in {CORPUS_DIR}"
    )


def test_corpus_headers_carry_provenance():
    for entry in ENTRIES:
        assert entry.header.startswith("/*"), entry.path.name
        assert entry.expect_seed is not None, (
            f"{entry.path.name}: header lacks 'generator seed N'"
        )


def test_regression_entries_present():
    # The two bug classes this fuzzer actually caught must stay pinned:
    # int scalar webs getting float rotation temps, and the validator
    # mis-assigning structurally aliased MI instances.
    names = {e.path.name for e in ENTRIES}
    assert any("mve_int_web_temps" in n for n in names)
    assert any("validator" in n for n in names)


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[e.path.stem for e in ENTRIES]
)
def test_replay(entry):
    outcome = check_source(entry.source, seed=entry.expect_seed)
    assert not outcome.failed, (
        f"{entry.path.name} regressed: {outcome.failure_class}: "
        f"{outcome.detail}"
    )
