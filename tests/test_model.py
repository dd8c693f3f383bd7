"""Tests for contracts, the functional emulator and taint-based relevance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generator import GeneratorConfig, InputGenerator, ProgramGenerator, Sandbox
from repro.isa.instructions import Instruction, Opcode, cond_branch, exit_instruction, jump, load, store
from repro.isa.operands import Immediate, Label, Register
from repro.isa.program import BasicBlock, Program
from repro.litmus import get_case
from repro.model import ARCH_SEQ, CT_COND, CT_SEQ, Emulator, get_contract, list_contracts
from repro.model.contracts import ARCH_COND
from repro.model.emulator import EmulationError
from repro.litmus.cases import make_input


class TestContracts:
    def test_lookup_by_name_is_case_insensitive(self):
        assert get_contract("ct-seq") is CT_SEQ
        assert get_contract("CT_COND") is CT_COND
        assert get_contract("arch-seq") is ARCH_SEQ

    def test_unknown_contract_raises(self):
        with pytest.raises(KeyError):
            get_contract("CT-FOO")

    def test_observation_clauses_match_table1(self):
        assert CT_SEQ.observation_clause() == ("PC", "LD/ST ADDR")
        assert ARCH_SEQ.observation_clause() == ("PC", "LD/ST ADDR", "LD VALUES")
        assert CT_SEQ.execution_clause() == "N/A"
        assert CT_COND.execution_clause() == "Mispredicted Branches"

    def test_registry_contains_all_contracts(self):
        names = {contract.name for contract in list_contracts()}
        assert {"CT-SEQ", "CT-COND", "ARCH-SEQ", "ARCH-COND"} <= names


def _branch_program(sandbox_mask=0xFF8) -> Program:
    """if (rax == 0) { load [rbx] } else { load [rcx] }"""
    blocks = [
        BasicBlock(
            "bb_main.0",
            [
                Instruction(Opcode.CMP, (Register("rax"), Immediate(0))),
                cond_branch("nz", "bb_main.2"),
            ],
            jump("bb_main.1"),
        ),
        BasicBlock(
            "bb_main.1",
            [Instruction(Opcode.AND, (Register("rbx"), Immediate(sandbox_mask))), load("rdx", "rbx")],
            jump("bb_main.exit"),
        ),
        BasicBlock(
            "bb_main.2",
            [Instruction(Opcode.AND, (Register("rcx"), Immediate(sandbox_mask))), load("rdx", "rcx")],
            jump("bb_main.exit"),
        ),
        BasicBlock("bb_main.exit", [], exit_instruction()),
    ]
    return Program(blocks, name="branch_program")


class TestEmulator:
    def test_contract_trace_contains_pcs_and_addresses(self, sandbox):
        program = _branch_program()
        emulator = Emulator(program, sandbox)
        test_input = make_input(sandbox, {"rax": 0, "rbx": 0x40})
        trace = emulator.contract_trace(test_input, CT_SEQ)
        assert trace.pcs()  # every executed instruction's PC
        assert sandbox.base + 0x40 in trace.memory_addresses()

    def test_arch_seq_exposes_load_values(self, sandbox):
        program = _branch_program()
        emulator = Emulator(program, sandbox)
        test_input = make_input(sandbox, {"rax": 0, "rbx": 0x40}, {0x40: 0xBEEF})
        trace = emulator.contract_trace(test_input, ARCH_SEQ)
        assert ("val", 0xBEEF) in trace.observations

    def test_ct_seq_does_not_expose_values(self, sandbox):
        program = _branch_program()
        emulator = Emulator(program, sandbox)
        test_input = make_input(sandbox, {"rax": 0, "rbx": 0x40}, {0x40: 0xBEEF})
        trace = emulator.contract_trace(test_input, CT_SEQ)
        assert all(entry[0] != "val" for entry in trace.observations)

    def test_branch_direction_changes_trace(self, sandbox):
        program = _branch_program()
        emulator = Emulator(program, sandbox)
        taken = emulator.contract_trace(make_input(sandbox, {"rax": 1, "rcx": 0x80}), CT_SEQ)
        not_taken = emulator.contract_trace(make_input(sandbox, {"rax": 0, "rbx": 0x80}), CT_SEQ)
        assert taken != not_taken

    def test_ct_cond_explores_the_wrong_path(self, sandbox):
        """Under CT-COND the mispredicted path's accesses appear in the trace."""
        program = _branch_program()
        emulator = Emulator(program, sandbox)
        test_input = make_input(sandbox, {"rax": 1, "rbx": 0x100, "rcx": 0x80})
        seq_trace = emulator.contract_trace(test_input, CT_SEQ)
        cond_trace = emulator.contract_trace(test_input, CT_COND)
        # The architectural path loads [rcx]; only CT-COND also sees [rbx].
        assert sandbox.base + 0x100 not in seq_trace.memory_addresses()
        assert sandbox.base + 0x100 in cond_trace.memory_addresses()

    def test_speculative_execution_has_no_architectural_effect(self, sandbox):
        """CT-COND's wrong-path exploration must be rolled back."""
        program = _branch_program()
        emulator = Emulator(program, sandbox)
        test_input = make_input(sandbox, {"rax": 1, "rbx": 0x100, "rcx": 0x80}, {0x80: 7})
        seq = emulator.run(test_input, CT_SEQ)
        cond = emulator.run(test_input, CT_COND)
        assert seq.final_registers == cond.final_registers

    def test_infinite_loop_raises(self, sandbox):
        self_loop = Instruction(Opcode.JMP, (Label("bb"),))
        program = Program([BasicBlock("bb", [self_loop], None)])
        emulator = Emulator(program, sandbox, instruction_limit=100)
        with pytest.raises(EmulationError):
            emulator.run(make_input(sandbox), CT_SEQ)

    def test_relevant_labels_for_branch_condition(self, sandbox):
        """The register feeding an architectural branch must be contract-relevant."""
        program = _branch_program()
        emulator = Emulator(program, sandbox)
        result = emulator.run(make_input(sandbox, {"rax": 0, "rbx": 0x40}), CT_SEQ)
        assert ("reg", "rax") in result.relevant_labels
        assert ("reg", "rbx") in result.relevant_labels  # load address
        assert ("reg", "rdi") not in result.relevant_labels

    def test_wrong_path_registers_not_relevant_under_ct_seq(self, sandbox):
        program = _branch_program()
        emulator = Emulator(program, sandbox)
        # rax != 0: the architectural path uses rcx, never rbx.
        result = emulator.run(make_input(sandbox, {"rax": 1, "rcx": 0x80}), CT_SEQ)
        assert ("reg", "rbx") not in result.relevant_labels

    def test_wrong_path_registers_relevant_under_ct_cond(self, sandbox):
        program = _branch_program()
        emulator = Emulator(program, sandbox)
        result = emulator.run(make_input(sandbox, {"rax": 1, "rcx": 0x80}), CT_COND)
        assert ("reg", "rbx") in result.relevant_labels

    def test_store_then_load_taint_flows_through_memory(self, sandbox):
        """A value stored then loaded and used as an address keeps its taint."""
        blocks = [
            BasicBlock(
                "bb_main.0",
                [
                    Instruction(Opcode.AND, (Register("rbx"), Immediate(0xFF8))),
                    store("rbx", "rdi"),
                    load("rcx", "rbx"),
                    Instruction(Opcode.AND, (Register("rcx"), Immediate(0xFF8))),
                    load("rdx", "rcx"),
                ],
                exit_instruction(),
            )
        ]
        program = Program(blocks)
        emulator = Emulator(program, sandbox)
        result = emulator.run(make_input(sandbox, {"rbx": 0x40, "rdi": 0x200}), CT_SEQ)
        assert ("reg", "rdi") in result.relevant_labels


class TestBoostingEndToEnd:
    @given(seed=st.integers(0, 10_000), salt=st.integers(0, 31))
    @settings(max_examples=20, deadline=None)
    def test_boosted_inputs_preserve_the_contract_trace(self, seed, salt):
        """The taint-guided mutation must never change the contract trace.

        This is the core property input boosting relies on: mutate only
        locations that the taint tracker says cannot influence the contract
        trace, and the trace stays identical.  Checked under every contract,
        in the default sandbox and in STT's 128-page one.
        """
        for pages in (1, 128):
            sandbox = Sandbox(pages=pages)
            program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=seed).generate()
            generator = InputGenerator(sandbox, seed=seed)
            emulator = Emulator(program, sandbox)
            base = generator.generate_one()
            for contract in list_contracts():
                result = emulator.run(base, contract)
                preserve = result.relevant_labels
                for variant in generator.mutate_preserving(base, preserve, count=3, salt=salt):
                    assert InputGenerator.preserved_equal(variant, base, preserve)
                    assert emulator.contract_trace(variant, contract) == result.trace

    def test_boosting_preserves_arch_seq_traces_for_stt_case(self):
        case = get_case("stt_store_tlb")
        sandbox = case.sandbox()
        program, input_a, _ = case.build()
        emulator = Emulator(program, sandbox)
        generator = InputGenerator(sandbox, seed=9)
        result = emulator.run(input_a, ARCH_SEQ)
        for variant in generator.mutate_preserving(input_a, result.relevant_labels, count=2):
            assert emulator.contract_trace(variant, ARCH_SEQ) == result.trace

    def test_arch_cond_is_strictly_more_observant_than_ct_seq(self, sandbox):
        program = _branch_program()
        emulator = Emulator(program, sandbox)
        test_input = make_input(sandbox, {"rax": 1, "rcx": 0x80}, {0x80: 3})
        assert len(emulator.contract_trace(test_input, ARCH_COND)) >= len(
            emulator.contract_trace(test_input, CT_SEQ)
        )
