"""The ``oob`` fuzz profile and its oracle hook: every out-of-bounds
trap the reference interpreter takes must be statically flagged by
``slms lint`` (no false negatives), and cross-phase IR violations get
their own ``ir-invariant`` failure class instead of being misfiled."""

from repro.fuzz.generator import PROFILES, generate_case
from repro.fuzz.oracle import (
    FAILURE_CLASSES,
    OracleConfig,
    run_case,
)
from repro.verify.diagnostics import Diagnostic

FAST = OracleConfig(backend=False, metamorphic=False)


class TestProfile:
    def test_registered(self):
        assert "oob" in PROFILES
        assert PROFILES["oob"].p_oob > 0

    def test_no_conditionals(self):
        """Planted refs must execute unconditionally: the reference is
        then guaranteed to trap, and if-conversion cannot introduce a
        trap the original lacked (selects evaluate both arms)."""
        profile = PROFILES["oob"]
        assert profile.p_conditional == 0.0
        assert profile.p_ternary == 0.0

    def test_other_profiles_never_plant(self):
        for name, profile in PROFILES.items():
            if name != "oob":
                assert profile.p_oob == 0.0, name

    def test_generator_plants_and_counts(self):
        planted = sum(
            generate_case(seed, "oob").oob_refs for seed in range(30)
        )
        assert planted > 0

    def test_determinism(self):
        a = generate_case(7, "oob")
        b = generate_case(7, "oob")
        assert a.source == b.source and a.oob_refs == b.oob_refs


class TestNoFalseNegatives:
    def test_every_trap_is_lint_flagged(self):
        """The gate: across a batch, each case whose reference run traps
        out of bounds must be caught by lint — zero false negatives —
        and no other check may regress."""
        trapped = 0
        for seed in range(60):
            case = generate_case(seed, "oob")
            outcome = run_case(case, FAST)
            assert outcome.failure_class != "lint-false-negative", (
                f"seed {seed}: bounds prover missed a real trap: "
                f"{outcome.detail}"
            )
            assert not outcome.failed, (
                f"seed {seed}: {outcome.failure_class}: {outcome.detail}"
            )
            if "lint-oob" in outcome.checks_run:
                trapped += 1
                assert "lint flagged" in outcome.detail
        assert trapped >= 10, (
            f"only {trapped} trapping cases in the batch — too few to "
            "exercise the no-false-negative contract"
        )

    def test_failure_class_registered(self):
        assert "lint-false-negative" in FAILURE_CLASSES


class TestIRInvariantClass:
    def test_failure_class_registered(self):
        assert "ir-invariant" in FAILURE_CLASSES

    def test_seeded_v21x_is_classified_as_ir_invariant(self, monkeypatch):
        """Corrupt the IR checker's verdict on an applied case: the
        oracle must file it as ``ir-invariant``, not as a scheduler
        (validator-disagreement) bug."""
        import repro.verify.ir_check as ir_check

        def bad_check(result, loop):
            return [
                Diagnostic(
                    severity="error", code="V210",
                    loc=loop.loc,
                    message="seeded corruption for the oracle test",
                )
            ]

        applied_case = None
        for seed in range(40):
            case = generate_case(seed, "dataflow")
            if run_case(case, FAST).applied_loops:
                applied_case = case
                break
        assert applied_case is not None

        monkeypatch.setattr(ir_check, "check_result", bad_check)
        outcome = run_case(applied_case, FAST)
        assert outcome.failure_class == "ir-invariant"
        assert "V210" in outcome.detail

    def test_backend_layer_runs_module_check(self):
        """With the backend layer on, ``ir-invariant`` never fires on
        healthy cases — the compiled modules satisfy V212-V217."""
        config = OracleConfig(metamorphic=False)
        for seed in range(8):
            outcome = run_case(generate_case(seed, "oob"), config)
            assert outcome.failure_class != "ir-invariant", (
                f"seed {seed}: {outcome.detail}"
            )
            assert not outcome.failed
