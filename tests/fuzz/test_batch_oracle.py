"""The oracle's multi-env entry point keeps the per-env contract.

:func:`repro.sim.interp.run_program_batched` interprets a program once
per randomized store and returns one outcome per store — the final
state or the :class:`InterpError` it raises — exactly what per-env
:func:`repro.sim.interp.run_program` produces, including on
env-dependent control flow, per-env traps and budget exhaustion.
"""

import numpy as np
import pytest

from repro.backend.compiler import FinalCompiler
from repro.fuzz.generator import generate_case
from repro.fuzz.oracle import make_env
from repro.lang.parser import parse_program
from repro.machines.presets import itanium2
from repro.sim.executor import execute
from repro.sim.interp import InterpError, run_program, run_program_batched


class TestRunProgramBatched:
    def test_lockstep_states_match_sequential(self):
        case = generate_case(4242, "default")
        program = parse_program(case.source)
        envs = [make_env(case, j) for j in range(3)]
        outcomes = run_program_batched(
            program.clone(), [dict(e) for e in envs]
        )
        assert len(outcomes) == 3
        for env, out in zip(envs, outcomes):
            ref = run_program(program.clone(), env)
            assert not isinstance(out, InterpError)
            assert sorted(ref) == sorted(out)
            for name in ref:
                if isinstance(ref[name], np.ndarray):
                    assert np.array_equal(ref[name], out[name])
                else:
                    assert ref[name] == out[name]

    def test_divergent_control_flow_falls_back(self):
        # env-dependent branch: each env takes its own path.
        source = "if (a[0] > 0) { b[0] = 1; } else { b[0] = 2; }"
        program = parse_program(source)
        envs = [
            {"a": np.array([5], dtype=np.int64),
             "b": np.zeros(1, dtype=np.int64)},
            {"a": np.array([-5], dtype=np.int64),
             "b": np.zeros(1, dtype=np.int64)},
        ]
        outcomes = run_program_batched(program, envs)
        assert outcomes[0]["b"][0] == 1
        assert outcomes[1]["b"][0] == 2

    def test_per_env_errors_preserved(self):
        # One env traps out of bounds, the other completes; outcomes
        # must mirror what sequential run_program produces, message
        # included.
        source = "b[0] = a[a[0]];"
        program = parse_program(source)
        good = {
            "a": np.array([1, 7], dtype=np.int64),
            "b": np.zeros(1, dtype=np.int64),
        }
        bad = {
            "a": np.array([9, 7], dtype=np.int64),
            "b": np.zeros(1, dtype=np.int64),
        }
        outcomes = run_program_batched(
            program.clone(), [dict(good), dict(bad)]
        )
        assert outcomes[0]["b"][0] == 7
        assert isinstance(outcomes[1], InterpError)
        with pytest.raises(InterpError) as excinfo:
            run_program(program.clone(), bad)
        assert str(outcomes[1]) == str(excinfo.value)

    def test_uniform_budget_exhaustion(self):
        source = "for (i = 0; i < 1000; i++) { s = s + i; }"
        program = parse_program(source)
        envs = [{"s": 0}, {"s": 100}]
        outcomes = run_program_batched(
            program.clone(), [dict(e) for e in envs], max_steps=50
        )
        for env, out in zip(envs, outcomes):
            assert isinstance(out, InterpError)
            with pytest.raises(InterpError) as excinfo:
                run_program(program.clone(), env, max_steps=50)
            assert str(out) == str(excinfo.value)

    def test_empty_and_single_env(self):
        program = parse_program("x = 1;")
        assert run_program_batched(program.clone(), []) == []
        (only,) = run_program_batched(program.clone(), [{"x": 0}])
        assert only["x"] == 1

    def test_env_arrays_are_not_mutated(self):
        """The oracle hands one set of stores to every run, source and
        LIR alike, so neither executor may write through to them."""
        program = parse_program(
            "float a[4]; int i;"
            " for (i = 0; i < 4; i++) { a[i] = a[i] + 1.0; }"
        )
        env = {"a": np.arange(4, dtype=np.float64)}
        (out,) = run_program_batched(program, [env])
        assert out["a"].tolist() == [1.0, 2.0, 3.0, 4.0]
        machine = itanium2()
        compiled = FinalCompiler(machine, "gcc_O3").compile(program)
        run = execute(compiled.module, machine, env=env)
        assert run.state["a"].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert env["a"].tolist() == [0.0, 1.0, 2.0, 3.0]
