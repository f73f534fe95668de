"""Suite-wide fixtures.

The run ledger records every CLI engine run by default; tests must not
append to the developer's real ledger (or read state from it), so the
whole suite runs against a per-test temporary ledger directory.  Tests
that exercise the ledger deliberately just use the same variable.

The property tests draw their examples from a fixed stream (the
``default`` profile: derandomized, no example database), so a run's
outcome depends neither on chance nor on a checkout's ``.hypothesis/``
state.  New examples come from the ``wide`` profile, chosen with
``--hypothesis-profile=wide --hypothesis-seed=N`` — a deliberate,
reproducible wider run.  Per-test ``@settings`` keep their
``max_examples`` and ``deadline``.
"""

import pytest
from hypothesis import settings

settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("wide", derandomize=False, print_blob=True)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv("SLMS_LEDGER_DIR", str(tmp_path / "ledger"))
