"""Correctness gate applied to every measured campaign.

A failed check fails the benchmark run; nothing is retried.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.campaign import CampaignResult
from repro.generator.sandbox import Sandbox
from repro.model.contracts import get_contract
from repro.model.emulator import Emulator


def check_budget(spec, result: CampaignResult) -> List[str]:
    """Every scheduled round ran and generated every scheduled test case."""
    config = spec.config
    rounds = config.programs_per_instance * spec.instances
    test_cases = rounds * config.effective_inputs_per_program()
    problems = []
    if result.interrupted or result.stopped_early:
        problems.append("stopped before its budget")
    if result.scheduled_programs != rounds or result.rounds_completed != rounds:
        problems.append(f"{result.rounds_completed} of {rounds} rounds completed")
    if result.total_test_cases_generated != test_cases:
        problems.append(
            f"{result.total_test_cases_generated} of {test_cases} test cases generated"
        )
    return problems


def check_witnesses(result: CampaignResult) -> List[str]:
    """Every confirmed violation is a Definition 2.1 witness, re-checked here.

    The contract traces of both inputs are recomputed with the generic
    (unspecialized) functional emulator and must be equal to each other and
    to the recorded one; the recorded micro-architectural traces must differ.
    """
    problems = []
    for violation in result.violations:
        where = f"program {violation.program.name}"
        if violation.validated is not True:
            problems.append(f"{where}: violation reported without validation")
        emulator = Emulator(
            violation.program, Sandbox(pages=violation.sandbox_pages), specialize=False
        )
        contract = get_contract(violation.contract)
        trace_a = emulator.run(violation.input_a, contract).trace
        trace_b = emulator.run(violation.input_b, contract).trace
        if trace_a != trace_b or trace_a != violation.contract_trace:
            problems.append(f"{where}: witness inputs have different contract traces")
        if violation.trace_a == violation.trace_b:
            problems.append(f"{where}: witness inputs have equal uarch traces")
    return problems


def check_campaign(spec, result: CampaignResult) -> List[str]:
    return check_budget(spec, result) + check_witnesses(result)


def check_same_answer(
    reference: Dict[int, List[str]], repeat: Dict[int, List[str]], what: str
) -> List[str]:
    """A repeat at the same seed found the same signatures per campaign."""
    problems = []
    for index, signatures in repeat.items():
        if reference.get(index) != signatures:
            problems.append(
                f"{what}: campaign {index} found {signatures}, "
                f"the measured pass {reference.get(index)}"
            )
    return problems
