"""Suite-wide fixtures.

The run ledger records every CLI engine run by default, and the
experiment cache serves any result it holds; tests must not append to
the developer's real ledger or read or write the developer's real
cache, so every test runs against its own temporary ledger and cache
directories, and fixtures broader than one test against a cache
directory private to the session.  Tests that exercise the ledger or
the cache deliberately just use the same variables.

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


@pytest.fixture(scope="session", autouse=True)
def _session_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("SLMS_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(autouse=True)
def _isolated_state(tmp_path, monkeypatch):
    monkeypatch.setenv("SLMS_LEDGER_DIR", str(tmp_path / "ledger"))
    monkeypatch.setenv("SLMS_CACHE_DIR", str(tmp_path / "cache"))
