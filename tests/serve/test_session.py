"""Session API: validation, payloads, and CLI parity."""

import json

import pytest

from repro.serve.session import (
    RequestError,
    Session,
    SessionConfig,
    options_from_params,
    sweep_digest,
)
from tests.serve.conftest import SOURCE


class TestValidate:
    def test_unknown_op(self):
        with pytest.raises(RequestError, match="unknown op"):
            Session().validate("frobnicate", {})

    def test_unknown_param(self):
        with pytest.raises(RequestError, match="unknown parameter"):
            Session().validate("compile", {"source": "", "bogus": 1})

    def test_missing_required(self):
        with pytest.raises(RequestError, match="missing required"):
            Session().validate("compile", {})

    def test_bad_machine_name(self):
        with pytest.raises(RequestError, match="unknown machine"):
            Session().validate(
                "bench", {"workload": "daxpy", "machine": "vax"}
            )

    def test_bad_sweep_pair(self):
        with pytest.raises(RequestError, match="unknown compiler"):
            Session().validate(
                "sweep", {"pairs": [["itanium2", "tcc"]]}
            )

    def test_params_must_be_object(self):
        with pytest.raises(RequestError, match="JSON object"):
            Session().validate("compile", ["not", "a", "dict"])

    def test_ok(self):
        Session().validate("compile", {"source": SOURCE, "force": True})
        Session().validate("sleep", {"seconds": 0.1})


class TestOptions:
    def test_maps_keys(self):
        options = options_from_params(
            {"force": True, "scheduler": "exact", "reduction_lanes": 2}
        )
        assert options.force and options.scheduler == "exact"
        assert options.reduction_lanes == 2

    def test_bad_value_is_request_error(self):
        with pytest.raises(RequestError, match="scheduler"):
            options_from_params({"scheduler": "llvm"})


class TestPayloads:
    def test_compile(self):
        payload = Session().compile({"source": SOURCE})
        assert payload["applied"] == 1
        assert "for (i = 0; i < 62; i += 2)" in payload["source"]
        applied = [loop for loop in payload["loops"] if loop["applied"]]
        assert applied and applied[0]["ii"] == 1

    def test_compile_paper_style(self):
        payload = Session().compile({"source": SOURCE, "style": "paper"})
        assert "||" in payload["source"]

    def test_compile_bad_style(self):
        with pytest.raises(RequestError, match="style"):
            Session().compile({"source": SOURCE, "style": "fortran"})

    def test_advise(self):
        payload = Session().advise({"source": SOURCE})
        assert payload["schema"] == "slms-advise/1"
        assert len(payload["loops"]) == 2

    def test_bench(self):
        payload = Session().bench({"workload": "daxpy"})
        assert payload["slms_applied"] is True
        assert payload["speedup"] > 1.0

    def test_bench_unknown_workload(self):
        with pytest.raises(RequestError, match="unknown workload"):
            Session().bench({"workload": "does-not-exist"})

    def test_trace(self):
        payload = Session().trace({"workload": "daxpy"})
        assert payload["slms_applied"] is True
        assert payload["trace"]["spans"]
        assert "phase_times" in payload and "cached_phase_times" in payload

    def test_sleep(self):
        assert Session().sleep({"seconds": 0}) == {"slept_s": 0.0}

    def test_handle_dispatches(self):
        payload = Session().handle("advise", {"source": SOURCE})
        assert payload["schema"] == "slms-advise/1"


class TestSweep:
    def test_sweep_payload_digest_matches_result(self, tmp_path):
        session = Session(SessionConfig(cache_dir=str(tmp_path / "c")))
        params = {"workloads": ["daxpy"], "pairs": [["itanium2", "gcc_O3"]]}
        payload = session.sweep(params)
        sweep = session.sweep_result(params)
        assert payload["experiments"] == 1
        assert payload["failures"] == 0
        assert payload["result_digest"] == sweep_digest(sweep)
        assert payload["results"] == json.loads(sweep.to_json())

    def test_sweep_digest_parity_with_cli(self, tmp_path, monkeypatch,
                                          capsys):
        """The served digest and the CLI digest are the same bytes."""
        from repro.cli import main
        from repro.obs import RunLedger

        monkeypatch.setenv("SLMS_CACHE_DIR", str(tmp_path / "cache"))
        served = Session(
            SessionConfig(cache_dir=str(tmp_path / "cache"))
        ).sweep({"workloads": ["daxpy", "dscal"]})

        assert main(["sweep", "daxpy", "dscal", "--workers", "1"]) == 0
        capsys.readouterr()
        entry = RunLedger().entries(kind="sweep")[-1]
        assert entry["result_digest"] == served["result_digest"]

    def test_sweep_unknown_suite(self):
        with pytest.raises(RequestError, match="unknown suite"):
            Session().sweep_result({"suites": ["specfp"]})

    def test_serve_context_ignores_ambient_faults(self, tmp_path,
                                                  monkeypatch):
        """With ambient_faults off, SLMS_FAULTS must not leak into the
        engine tasks running inside a request."""
        monkeypatch.setenv("SLMS_FAULTS", "fail:0")
        session = Session(
            SessionConfig(
                cache_dir=str(tmp_path / "c"), ambient_faults=False
            )
        )
        sweep = session.sweep_result(
            {"workloads": ["daxpy"], "pairs": [["itanium2", "gcc_O3"]]}
        )
        assert not sweep.failures


#: The same malformed request as the server gets it (op, params) and as
#: the matching ``slms`` command gets it ("{file}" holds SOURCE).
PARITY = [
    ("bench", {"workload": "daxpy", "compiler": "bogus"},
     ["bench", "daxpy", "--compiler", "bogus"]),
    ("trace", {"workload": "daxpy", "compiler": "bogus"},
     ["trace", "daxpy", "--compiler", "bogus"]),
    ("sweep", {"workloads": ["daxpy"], "pairs": [["itanium2", "bogus"]]},
     ["sweep", "daxpy", "--pairs", "itanium2/bogus"]),
    ("bench", {"workload": "daxpy", "machine": "vax"},
     ["bench", "daxpy", "--machine", "vax"]),
    ("trace", {"workload": "daxpy", "machine": "vax"},
     ["trace", "daxpy", "--machine", "vax"]),
    ("sweep", {"workloads": ["daxpy"], "pairs": [["vax", "gcc_O3"]]},
     ["sweep", "daxpy", "--pairs", "vax/gcc_O3"]),
    ("compile", {"source": SOURCE, "machine": "vax"},
     ["transform", "{file}", "--machine", "vax"]),
    ("advise", {"source": SOURCE, "machine": "vax"},
     ["advise", "{file}", "--machine", "vax"]),
    ("bench", {"workload": "nope"}, ["bench", "nope"]),
    ("trace", {"workload": "nope"}, ["trace", "nope"]),
    ("sweep", {"workloads": ["nope"]}, ["sweep", "nope"]),
    ("sweep", {"suites": ["specfp"]}, ["sweep", "--suite", "specfp"]),
    ("sweep", {"workloads": ["daxpy"], "workers": 0},
     ["sweep", "daxpy", "--workers", "0"]),
    ("compile", {"source": SOURCE, "reduction_lanes": 65},
     ["transform", "{file}", "--reduction-lanes", "65"]),
    ("compile", {"source": SOURCE, "reduction_lanes": -1},
     ["transform", "{file}", "--reduction-lanes", "-1"]),
    ("compile", {"source": SOURCE, "scheduler": "llvm"},
     ["transform", "{file}", "--scheduler", "llvm"]),
    ("advise", {"source": SOURCE, "scheduler": "llvm"},
     ["advise", "{file}", "--scheduler", "llvm"]),
    ("compile", {"source": SOURCE, "expansion": "bogus"},
     ["transform", "{file}", "--expansion", "bogus"]),
]


class TestCliParity:
    """``slms transform/advise/bench/trace/sweep`` refuse exactly what
    ``Session.validate`` refuses, with its message, before any work."""

    @pytest.fixture()
    def no_work(self, monkeypatch):
        import repro
        import repro.core.advisor as advisor
        import repro.harness.engine as engine
        import repro.harness.experiment as experiment

        def boom(*args, **kwargs):
            raise AssertionError("work ran before validation")

        monkeypatch.setattr(experiment, "run_experiment", boom)
        monkeypatch.setattr(engine, "run_experiment", boom)
        monkeypatch.setattr(repro, "slms", boom)
        monkeypatch.setattr(advisor, "advise_program", boom)

    @pytest.mark.parametrize(
        "op,params,argv", PARITY, ids=[" ".join(case[2]) for case in PARITY]
    )
    def test_cli_refuses_what_the_server_refuses(
        self, op, params, argv, tmp_path, monkeypatch, capsys, no_work
    ):
        from repro.cli import main

        with pytest.raises(RequestError) as refused:
            Session().validate(op, params)

        source = tmp_path / "loop.c"
        source.write_text(SOURCE)
        argv = [str(source) if arg == "{file}" else arg for arg in argv]
        if op == "sweep":
            monkeypatch.setenv("SLMS_CACHE_DIR", str(tmp_path / "cache"))
            journal = tmp_path / "sweep.jsonl"
            journal.write_bytes(b'{"schema": "slms-journal/1"}\n')
            before = journal.read_bytes()
            argv += ["--journal", str(journal),
                     "--json", str(tmp_path / "out.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {refused.value}\n"
        if op == "sweep":
            assert journal.read_bytes() == before
            assert not (tmp_path / "out.json").exists()
            assert not (tmp_path / "cache").exists()
