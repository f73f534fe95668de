"""Session-level determinism: same seed, same report, any worker count.

These are the guarantees ``docs/FUZZING.md`` advertises: a recorded
``(seed, iterations, profile)`` triple is a complete repro, and CI can
shard across workers without changing what it tests.
"""

import pytest

from repro.fuzz.oracle import OracleConfig
from repro.fuzz.session import (
    REPORT_SCHEMA,
    FuzzSessionConfig,
    run_fuzz_session,
)

# Small but non-trivial: rotates through every profile and exercises
# applied, declined, backend, and metamorphic paths.
CONFIG = FuzzSessionConfig(
    master_seed=42,
    iterations=12,
    profile="all",
    workers=1,
    oracle=OracleConfig(),
)


def test_same_seed_byte_identical_json():
    a = run_fuzz_session(CONFIG).to_json()
    b = run_fuzz_session(CONFIG).to_json()
    assert a == b


def test_worker_count_does_not_change_the_report():
    serial = run_fuzz_session(CONFIG)
    parallel = run_fuzz_session(
        FuzzSessionConfig(
            master_seed=CONFIG.master_seed,
            iterations=CONFIG.iterations,
            profile=CONFIG.profile,
            workers=2,
            oracle=CONFIG.oracle,
        )
    )
    assert serial.to_json() == parallel.to_json()


def test_report_has_no_wallclock_fields():
    report = run_fuzz_session(
        FuzzSessionConfig(master_seed=7, iterations=4, oracle=CONFIG.oracle)
    )
    payload = report.to_dict()
    assert payload["schema"] == REPORT_SCHEMA
    flat = repr(payload).lower()
    for banned in ("time", "duration", "host", "pid", "date"):
        assert banned not in flat, f"report leaks a {banned!r} field"


def test_different_seeds_differ():
    a = run_fuzz_session(
        FuzzSessionConfig(master_seed=1, iterations=6, oracle=CONFIG.oracle)
    )
    b = run_fuzz_session(
        FuzzSessionConfig(master_seed=2, iterations=6, oracle=CONFIG.oracle)
    )
    assert a.to_json() != b.to_json()


def test_negative_iterations_are_rejected_before_any_case(
    tmp_path, monkeypatch, capsys
):
    import repro.fuzz.session as session
    from repro.cli import main

    def no_case(*args, **kwargs):
        raise AssertionError("a case ran")

    monkeypatch.setattr(session, "run_case", no_case)
    with pytest.raises(ValueError, match="iterations must be >= 0, got -1"):
        FuzzSessionConfig(iterations=-1)
    journal = tmp_path / "fuzz.jsonl"
    assert main(["fuzz", "--iterations", "-1",
                 "--journal", str(journal)]) == 2
    assert "iterations must be >= 0, got -1" in capsys.readouterr().err
    assert not journal.exists()


def test_zero_iterations_is_an_empty_report(capsys):
    from repro.cli import main

    assert main(["fuzz", "--iterations", "0"]) == 0
    assert "fuzz: 0 cases" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags,make_config,message",
    [
        (["--workers", "0"], lambda: FuzzSessionConfig(workers=0),
         "workers must be >= 1, got 0"),
        (["--compiler", "bogus"], lambda: OracleConfig(compiler="bogus"),
         "unknown compiler preset 'bogus'"),
        (["--machine", "vax"], lambda: OracleConfig(machine="vax"),
         "unknown machine 'vax'"),
    ],
    ids=["workers-0", "compiler-bogus", "machine-vax"],
)
def test_bad_settings_are_refused_before_any_case_or_journal(
    flags, make_config, message, tmp_path, monkeypatch, capsys
):
    import repro.fuzz.session as session
    from repro.cli import main

    def no_case(*args, **kwargs):
        raise AssertionError("a case ran")

    monkeypatch.setattr(session, "run_case", no_case)
    with pytest.raises(ValueError, match=message):
        make_config()
    journal = tmp_path / "fuzz.jsonl"
    journal.write_bytes(b'{"schema": "slms-journal/1"}\n')
    before = journal.read_bytes()
    assert main(["fuzz", "--iterations", "3", *flags,
                 "--journal", str(journal)]) == 2
    assert message in capsys.readouterr().err
    assert journal.read_bytes() == before


def test_journal_key_is_pinned(tmp_path):
    """A fuzz task's journal key is the canonical digest of its task
    payload; a changed key would make ``--resume`` re-run every case."""
    import json

    journal = tmp_path / "fuzz.jsonl"
    run_fuzz_session(
        FuzzSessionConfig(master_seed=42, iterations=2,
                          reduce_failures=False),
        journal_path=str(journal),
    )
    first = json.loads(journal.read_text().splitlines()[0])
    assert first["key"] == (
        "6312604dc5c3646bb08296e1deca2528c9742aa59d53737e65a6f605c3ed9232"
    )
