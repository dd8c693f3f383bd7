"""The O3 core's idle-cycle fast-forward must be exact for every defense.

``O3Core.run`` jumps over cycles in which no pipeline stage does any work,
replaying the fetch-ahead stream the skipped cycles would have taken one L1I
line at a time.  A defense's ``tick`` takes part in that rule: returning
``False`` says nothing is pending, while ``None`` (the base default) keeps
the core stepping every cycle.  That gives a knob-free oracle: a subclass of
each defense whose ``tick`` runs the real one and returns ``None`` is
simulated cycle by cycle, and everything observable must match the
fast-forwarded run — cycle counts, statistics, the L1I/L1D/L2 contents with
their LRU stamps and use counters, the access log, MSHR stalls and the final
registers.  The golden traces check neither statistics nor LRU stamps.
"""

from __future__ import annotations

import pytest

from repro.defenses.registry import defense_class
from repro.executor.executor import ExecutionMode, SimulatorExecutor
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.isa.program import INSTRUCTION_SIZE
from repro.uarch.config import UarchConfig
from repro.uarch.core import O3Core

SEED = 20251017
PROGRAMS = 3
INPUTS = 3
DEFENSES = ("baseline", "invisispec", "stt", "cleanupspec", "speclfb")
CONFIGS = {
    "default": UarchConfig(),
    "amplified": UarchConfig().with_amplification(l1d_ways=2, mshrs=2),
}


def _every_cycle(name: str):
    """``name``'s defense class with a tick that never lets the core skip."""

    class EveryCycle(defense_class(name)):
        def tick(self, cycle: int) -> None:
            super().tick(cycle)
            return None

    return EveryCycle


class _KeepCore(SimulatorExecutor):
    """Executor that remembers the core it last started (Naive mode too)."""

    def _start_simulator(self, program):
        self.last_core = super()._start_simulator(program)
        return self.last_core


def _cache_state(cache):
    return [dict(lines) for lines in cache._lines], cache._use_counter


def _observe(record, core):
    memory = core.memory
    result = record.result
    return {
        "cycles": result.cycles,
        "committed": result.instructions_committed,
        "exit_reached": result.exit_reached,
        "stats": result.stats.as_dict(),
        "final_registers": result.final_registers,
        "l1i": _cache_state(memory.l1i),
        "l1d": _cache_state(memory.l1d),
        "l2": _cache_state(memory.l2),
        "access_log": list(memory.access_log),
        "mshr_stall_events": memory.mshr_stall_events,
        "trace": record.trace,
    }


def _workload(sandbox: Sandbox):
    programs = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=SEED)
    inputs = InputGenerator(sandbox, seed=SEED)
    return (
        [programs.generate() for _ in range(PROGRAMS)],
        [inputs.generate_one() for _ in range(INPUTS)],
    )


def _simulate(factory, config, sandbox, mode, programs, inputs):
    executor = _KeepCore(
        defense_factory=factory, uarch_config=config, sandbox=sandbox, mode=mode
    )
    observations = []
    for program in programs:
        executor.load_program(program)
        for test_input in inputs:
            record = executor.run_input(test_input)
            observations.append(_observe(record, executor.last_core))
    return observations


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("mode", [ExecutionMode.OPT, ExecutionMode.NAIVE])
@pytest.mark.parametrize("defense", DEFENSES)
def test_fast_forward_matches_every_cycle_simulation(defense, mode, config_name):
    config = CONFIGS[config_name]
    sandbox = Sandbox(pages=defense_class(defense).recommended_sandbox_pages)
    programs, inputs = _workload(sandbox)
    fast = _simulate(defense, config, sandbox, mode, programs, inputs)
    slow = _simulate(_every_cycle(defense), config, sandbox, mode, programs, inputs)
    assert len(fast) == len(slow) == PROGRAMS * INPUTS
    for index, (skipped, stepped) in enumerate(zip(fast, slow)):
        for key in stepped:
            assert skipped[key] == stepped[key], (
                f"{defense}/{mode.value}/{config_name} run {index}: {key} differs"
            )


def test_amplified_invisispec_blocks_the_replay_head():
    # The exactness test above must reach the path that keeps stepping: a
    # replay head waiting for one of the two MSHRs.
    sandbox = Sandbox()
    programs, inputs = _workload(sandbox)
    observations = _simulate(
        "invisispec", CONFIGS["amplified"], sandbox, ExecutionMode.OPT, programs, inputs
    )
    assert sum(run["mshr_stall_events"] for run in observations) > 0


class _CountingTick(defense_class("baseline")):
    """Baseline with a plugin-style tick that returns None."""

    def __init__(self, bugs=None) -> None:
        super().__init__(bugs)
        self.ticks = 0

    def tick(self, cycle: int) -> None:
        self.ticks += 1


class _IdleTick(_CountingTick):
    """A tick that always reports it has nothing pending."""

    def tick(self, cycle: int) -> bool:
        self.ticks += 1
        return False


def _run_each(defense_type):
    sandbox = Sandbox()
    programs, inputs = _workload(sandbox)
    for program in programs:
        for test_input in inputs:
            defense = defense_type()
            result = O3Core(program, defense=defense, sandbox=sandbox).run(test_input)
            yield defense, result


class TestTickContract:
    def test_tick_returning_none_runs_once_per_simulated_cycle(self):
        for defense, result in _run_each(_CountingTick):
            assert result.exit_reached
            assert defense.ticks == result.cycles

    def test_tick_returning_false_lets_the_core_skip(self):
        plain = [result for _, result in _run_each(defense_class("baseline"))]
        idle = list(_run_each(_IdleTick))
        assert any(defense.ticks < result.cycles for defense, result in idle)
        for reference, (_, result) in zip(plain, idle):
            assert result.cycles == reference.cycles
            assert result.stats.as_dict() == reference.stats.as_dict()

    def test_compiled_replay_tick_returns_false_exactly_when_queue_is_empty(self):
        calls = []

        class Recording(defense_class("invisispec")):
            def tick(self, cycle: int):
                pending = super().tick(cycle)
                calls.append((pending, len(self._replay_queue)))
                return pending

        for config in CONFIGS.values():
            sandbox = Sandbox()
            programs, inputs = _workload(sandbox)
            for program in programs:
                for test_input in inputs:
                    O3Core(
                        program, config=config, defense=Recording(), sandbox=sandbox
                    ).run(test_input)
        assert {pending for pending, _ in calls} == {True, False}
        for pending, queued in calls:
            assert pending is (queued > 0)


class TestFetchAheadReplay:
    def test_n_steps_at_once_equal_n_single_steps(self):
        sandbox = Sandbox()
        programs, _ = _workload(sandbox)
        program = programs[0]
        batched = O3Core(program, sandbox=sandbox)
        stepped = O3Core(program, sandbox=sandbox)
        limit = batched._fetch_ahead_limit
        line = batched.memory.l1i.config.line_size
        boundary = program.end_pc - program.end_pc % line + line
        # Start on a line boundary, mid-line, and a few steps short of the
        # limit; ask for more steps than remain so the limit cuts the run.
        starts = (
            boundary,
            boundary + INSTRUCTION_SIZE,
            limit - 3 * batched._fetch_ahead_step - INSTRUCTION_SIZE,
        )
        for start in starts:
            for core in (batched, stepped):
                core.memory.reset_caches()
                core._fetch_ahead_pc = start
            for steps in (1, 3, 17, 64, 10_000):
                assert batched._fetch_ahead(steps) == stepped._fetch_ahead()
                for _ in range(steps - 1):
                    stepped._fetch_ahead()
                assert batched._fetch_ahead_pc == stepped._fetch_ahead_pc
                for name in ("l1i", "l2"):
                    assert _cache_state(getattr(batched.memory, name)) == _cache_state(
                        getattr(stepped.memory, name)
                    )
        assert batched._fetch_ahead_pc >= limit
        assert not batched._fetch_ahead()
