"""The applicability advisor must agree exactly with the real driver:
for every loop in the corpus the advised verdict, reason string, II,
stage count, expansion strategy, and unroll factor match what
``slms()`` does.  The advice is a view of the driver's own per-loop
reports, so these tests pin that view (loop order, field mapping)
under every driver knob, §5 reduction lane splitting included."""

import pytest

from repro.core.advisor import Advice, advise_program, render_advice
from repro.core.pipeline import slms
from repro.core.slms import SLMSOptions
from repro.lang.parser import parse_program
from repro.workloads import all_workloads, get_workload


def _compare(workload, options):
    """Return a list of mismatch descriptions (empty == exact match)."""
    advices = advise_program(workload.full_program(), options)
    actual = slms(workload.full_program(), options).loops
    problems = []
    if len(advices) != len(actual):
        return [
            f"{workload.name}: advisor saw {len(advices)} loops, "
            f"driver saw {len(actual)}"
        ]
    for idx, (adv, res) in enumerate(zip(advices, actual)):
        tag = f"{workload.name}[{idx}]"
        if adv.applies != res.applied:
            problems.append(
                f"{tag}: predicted {adv.verdict}, driver "
                f"{'applied' if res.applied else 'declined'} "
                f"({res.reason!r})"
            )
            continue
        if not res.applied and adv.reason != res.reason:
            problems.append(
                f"{tag}: reason {adv.reason!r} != {res.reason!r}"
            )
        if res.applied:
            for field in ("ii", "stages", "expansion", "unroll",
                          "res_mii", "heuristic_ii", "sched_proven"):
                want = getattr(res, field)
                got = getattr(adv, field)
                if got != want:
                    problems.append(
                        f"{tag}: {field} predicted {got!r}, "
                        f"actual {want!r}"
                    )
    return problems


class TestAdvisorAgreement:
    @pytest.mark.parametrize(
        "workload", all_workloads(), ids=lambda w: w.name
    )
    def test_default_options_exact(self, workload):
        """The headline gate: prediction == actual across the corpus."""
        assert _compare(workload, SLMSOptions()) == []

    @pytest.mark.parametrize(
        "options",
        [
            SLMSOptions(expansion="mve"),
            SLMSOptions(expansion="scalar"),
            SLMSOptions(expansion="none"),
            SLMSOptions(force=True),
            SLMSOptions(enable_filter=False, max_unroll=2),
            SLMSOptions(max_decompositions=0),
            SLMSOptions(scheduler="exact"),
            SLMSOptions(scheduler="exact", machine="itanium2"),
            SLMSOptions(reduction_lanes=2, allow_reassociation=True),
            SLMSOptions(reduction_lanes=4, allow_reassociation=True),
        ],
        ids=[
            "mve", "scalar", "none", "force",
            "nofilter-unroll2", "nodecomp",
            "exact", "exact-itanium2",
            "lanes2", "lanes4",
        ],
    )
    def test_option_sweeps_exact(self, options):
        """The agreement must hold under every driver knob, not just
        the defaults — declines shift families as options change."""
        problems = []
        for workload in all_workloads():
            problems.extend(_compare(workload, options))
        assert problems == []


SHORT_TRIP = """
float A[8], B[8], C[8];
float s = 0.0;
for (i = 0; i < 1; i++) { s = s + A[i]; B[i] = s * 2.0; C[i] = B[i] + s; }
"""

RECURRENCE = """
float A[64];
for (i = 1; i < 64; i++) A[i] = A[i-1] * 0.5 + 1.0;
"""


class TestDeclineFacts:
    """A decline reports what the driver computed before declining."""

    def test_emission_decline_carries_its_schedule(self):
        (res,) = slms(SHORT_TRIP).loops
        (adv,) = advise_program(parse_program(SHORT_TRIP))
        assert res.reason.startswith("trip count 1 is below the stage count 2")
        assert (res.ii, res.stages, res.n_mis, res.pmii) == (2, 2, 3, 3)
        assert adv.reason == res.reason
        assert (adv.ii, adv.stages, adv.n_mis, adv.rec_mii) == (2, 2, 3, 3)
        assert (adv.heuristic_ii, adv.trip_count) == (2, 1)

    def test_decomposition_declines_carry_the_mi_count(self):
        (adv,) = advise_program(
            parse_program(RECURRENCE), SLMSOptions(max_decompositions=0)
        )
        assert adv.reason == "no valid II after maximum decompositions"
        assert (adv.n_mis, adv.rec_mii, adv.ii) == (1, 1, None)
        (adv,) = advise_program(parse_program(RECURRENCE))
        assert adv.reason == "no MI can be decomposed (§5 failure case)"
        assert (adv.n_mis, adv.rec_mii, adv.ii) == (1, None, None)


class TestAdviceShape:
    def test_corpus_has_both_verdicts(self):
        verdicts = set()
        for workload in all_workloads():
            for adv in advise_program(workload.full_program()):
                verdicts.add(adv.verdict)
        assert verdicts == {"apply", "decline"}

    def test_decline_carries_suggestion(self):
        """Every declined loop should come with at least one actionable
        suggestion so `slms advise` is never a bare 'no'."""
        seen_decline = False
        for workload in all_workloads():
            for adv in advise_program(workload.full_program()):
                if not adv.applies:
                    seen_decline = True
                    assert adv.suggestions, (
                        f"{workload.name}: decline {adv.reason!r} "
                        "has no suggestion"
                    )
        assert seen_decline

    def test_render_apply_and_decline(self):
        apply = Advice(
            line=3, verdict="apply", ii=2, stages=3, n_mis=5,
            expansion="mve", unroll=3, rec_mii=2, trip_count=100,
        )
        text = render_advice(apply.to_dict())
        assert "APPLY" in text and "II=2" in text and "unroll=3" in text
        decline = Advice(
            line=7, verdict="decline",
            reason="nested loop in body",
            suggestions=["distribute the inner loop"],
        )
        text = render_advice(decline.to_dict())
        assert "DECLINE" in text
        assert "nested loop in body" in text
        assert "distribute the inner loop" in text

    def test_rec_mii_is_not_rendered_as_a_floor(self):
        """kernel1 loop 1 runs at II 1 under a §3.6 PMII of 2: the
        anti back edge shares a row under the fixed placement."""
        adv = advise_program(get_workload("kernel1").full_program())[1]
        assert adv.applies and (adv.ii, adv.rec_mii) == (1, 2)
        text = render_advice(adv.to_dict())
        assert "recMII: 2" in text
        assert "floor" not in text and "can beat" not in text

    def test_to_dict_round_trips_fields(self):
        adv = Advice(line=1, verdict="decline", reason="x",
                     suggestions=["s"])
        payload = adv.to_dict()
        assert payload["verdict"] == "decline"
        assert payload["reason"] == "x"
        assert payload["suggestions"] == ["s"]


def test_suggested_flags_are_declared(capsys):
    """Every ``--flag`` a suggestion names is one ``slms transform`` or
    ``slms advise`` declares."""
    import inspect
    import re

    import repro.core.advisor as advisor
    from repro.cli import main

    named = set(re.findall(r"--[a-z][a-z-]*", inspect.getsource(advisor)))
    assert "--force" in named  # the scan sees the hints
    declared = set()
    for command in ("transform", "advise"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        declared |= set(
            re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)
        )
    assert named <= declared, sorted(named - declared)
