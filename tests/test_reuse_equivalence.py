"""Reused execution state must be indistinguishable from fresh state.

The fuzzer runs many inputs through one :class:`Emulator` per program and,
in Opt mode, many inputs (and re-loads of the same program) through one
O3 core.  These tests drive seeded random programs through a reused
emulator or executor and through fresh ones, under every registered
contract and every defense in both execution modes, and require identical
results: contract traces, taint sets, speculation profiles,
micro-architectural traces, cycle counts and final register files.
"""

from __future__ import annotations

import pytest

from repro.defenses.registry import defense_class
from repro.executor.executor import ExecutionMode, SimulatorExecutor
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.model.contracts import list_contracts
from repro.model.emulator import Emulator

SEED = 20250807
EMULATOR_PROGRAMS = 4
EMULATOR_INPUTS = 3
SIMULATOR_PROGRAMS = 6
SIMULATOR_INPUTS = 6
DEFENSES = ("baseline", "invisispec", "stt", "cleanupspec", "speclfb")


def _workload(sandbox: Sandbox, programs: int, inputs: int):
    program_generator = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=SEED)
    input_generator = InputGenerator(sandbox, seed=SEED)
    return (
        [program_generator.generate() for _ in range(programs)],
        [input_generator.generate_one() for _ in range(inputs)],
    )


def _model_result_key(result):
    """Everything a ModelResult asserts about a run, in comparable form."""
    return (
        result.trace.observations,
        sorted(result.relevant_labels),
        result.instruction_count,
        result.executed_pcs,
        result.final_registers,
        result.speculative_instruction_count,
        result.architectural_accesses,
        result.speculation.cond_branches,
        result.speculation.tainted_accesses,
    )


def _record_key(record):
    """Everything an ExecutionRecord asserts about a run, in comparable form."""
    return (
        record.trace,
        record.result.cycles,
        record.result.instructions_committed,
        record.result.exit_reached,
        record.result.final_registers,
    )


contracts = pytest.mark.parametrize("contract", list_contracts(), ids=lambda c: c.name)


class TestEmulatorReuse:
    @contracts
    def test_reused_emulator_matches_fresh_ones(self, contract):
        """Running inputs back-to-back, in either order, leaves nothing behind."""
        sandbox = Sandbox()
        programs, inputs = _workload(sandbox, EMULATOR_PROGRAMS, EMULATOR_INPUTS)
        for program in programs:
            fresh = [
                _model_result_key(Emulator(program, sandbox).run(test_input, contract))
                for test_input in inputs
            ]
            emulator = Emulator(program, sandbox)
            forward = [
                _model_result_key(emulator.run(test_input, contract))
                for test_input in inputs
            ]
            backward = [
                _model_result_key(emulator.run(test_input, contract))
                for test_input in reversed(inputs)
            ]
            assert forward == fresh, f"program {program.name}"
            assert backward[::-1] == fresh, f"program {program.name}"

    @contracts
    def test_batch_matches_individual_runs(self, contract):
        """``collect_traces_batch`` equals a fresh emulator's ``run`` per input."""
        sandbox = Sandbox()
        programs, inputs = _workload(sandbox, EMULATOR_PROGRAMS, EMULATOR_INPUTS)
        for program in programs:
            batch = Emulator(program, sandbox).collect_traces_batch(inputs, contract)
            for test_input, batched in zip(inputs, batch):
                single = Emulator(program, sandbox).run(test_input, contract)
                assert _model_result_key(batched) == _model_result_key(single), (
                    f"program {program.name} input {test_input.seed}"
                )


class TestSimulatorReuse:
    @pytest.mark.parametrize("defense", DEFENSES)
    @pytest.mark.parametrize("mode", [ExecutionMode.OPT, ExecutionMode.NAIVE])
    def test_reused_executor_matches_fresh_ones(self, defense, mode):
        """One executor across programs, each loaded twice (the second load
        rewinds the Opt-mode core), records what a fresh executor records."""
        sandbox = Sandbox(pages=defense_class(defense).recommended_sandbox_pages)
        programs, inputs = _workload(sandbox, SIMULATOR_PROGRAMS, SIMULATOR_INPUTS)
        reused = SimulatorExecutor(defense_factory=defense, sandbox=sandbox, mode=mode)
        for program in programs:
            fresh = SimulatorExecutor(defense_factory=defense, sandbox=sandbox, mode=mode)
            fresh.load_program(program)
            expected = [_record_key(record) for record in fresh.run_batch(inputs)]
            for load in ("first", "reload"):
                reused.load_program(program)
                actual = [_record_key(record) for record in reused.run_batch(inputs)]
                assert actual == expected, (
                    f"program {program.name} defense {defense} "
                    f"mode {mode.value} ({load} load)"
                )
