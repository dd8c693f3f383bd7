"""Tests for the intra-round parallel simulation layer (simshard).

Covers the determinism contract — identical violations, signatures, corpus
contents and coverage bitmaps across ``sim_workers`` settings (the default,
inline, pooled at several widths) for every defense — a rewound chunk start
producing exactly a new core's records, plus the compact wire format (trace
digests, protocol-5 out-of-band input buffers, digest-then-materialize
second pass), the adaptive ``map_items`` chunking, and worker-process
hygiene after campaign-wide cancellation.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle

import pytest

from repro.backends import InlineBackend, ProcessPoolBackend, get_backend
from repro.backends import simshard
from repro.backends.simshard import (
    DigestTrace,
    ExecutorSpec,
    RemoteRecord,
    SimulationRouter,
    SimulationTask,
    dumps_oob,
    loads_oob,
    run_simulation_task,
)
from repro.core import Campaign, FuzzerConfig
from repro.core.detector import ViolationDetector
from repro.core.filtering import unique_violations
from repro.core.fuzzer import AmuletFuzzer
from repro.core.scheduler import ExecutionScheduler
from repro.defenses.registry import available_defenses
from repro.executor.executor import ExecutionMode, SimulatorExecutor
from repro.executor.traces import UarchTrace, trace_digest
from repro.generator.inputs import Input, InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.model.contracts import get_contract
from repro.model.emulator import Emulator
from repro.uarch.core import materialize_uarch_context


@pytest.fixture(autouse=True)
def _clean_pool():
    """Every test starts and ends without a lingering persistent pool."""
    simshard.shutdown_pool()
    yield
    simshard.shutdown_pool()


def _campaign_fingerprint(result):
    """Everything the determinism contract promises, in comparable form."""
    coverage = result.merged_coverage()
    return {
        "violations": result.violation_count(),
        "signatures": sorted(
            str(signature) for signature in unique_violations(result.violations)
        ),
        "witnesses": sorted(
            (violation.input_a.fingerprint(), violation.input_b.fingerprint())
            for violation in result.violations
        ),
        "test_cases": result.total_test_cases,
        "corpus_ids": sorted(result.merged_corpus().entry_ids()),
        "coverage_bitmap": bytes(coverage.bitmap) if coverage else None,
        "coverage_counters": result.coverage_counters(),
    }


def _run_campaign(defense, sim_workers=None, **overrides):
    """One single-instance campaign; ``sim_workers=None`` keeps the default."""
    if sim_workers is not None:
        overrides["sim_workers"] = sim_workers
    config = FuzzerConfig(
        defense=defense,
        programs_per_instance=overrides.pop("programs", 2),
        inputs_per_program=overrides.pop("inputs", 7),
        seed=overrides.pop("seed", 3),
        **overrides,
    )
    return Campaign(config, instances=1).run()


def _run_inline(tasks, executors=None):
    """Every task on the calling thread, on one executor cache."""
    executors = {} if executors is None else executors
    return [run_simulation_task(task, executors) for task in tasks]


def _make_tasks(defense="baseline", programs=2, inputs=6, seed=5):
    """Deterministic simulation tasks straight from the round pipeline."""
    config = FuzzerConfig(
        defense=defense,
        programs_per_instance=programs,
        inputs_per_program=inputs,
        boost_factor=2,
        seed=seed,
    )
    fuzzer = AmuletFuzzer(config)
    spec = ExecutorSpec.from_fuzzer_config(config, sandbox_pages=fuzzer.sandbox.pages)
    tasks = []
    task_id = 0
    for _ in range(programs):
        program = fuzzer.program_source.next_program().program
        test_case = fuzzer._build_test_case(program)
        plan = fuzzer.scheduler.plan(test_case)
        for entries in plan.executable_classes():
            tasks.append(
                SimulationTask(
                    task_id=task_id,
                    spec=spec,
                    program=program,
                    inputs=tuple(entry.test_input for entry in entries),
                )
            )
            task_id += 1
    return tasks


class TestTraceDigest:
    def _trace(self, payload):
        return UarchTrace(components=(("l1d", payload),))

    def test_equal_traces_share_a_digest(self):
        assert trace_digest(self._trace(((1, 2),))) == trace_digest(
            self._trace(((1, 2),))
        )

    def test_different_traces_differ(self):
        assert trace_digest(self._trace(((1, 2),))) != trace_digest(
            self._trace(((1, 3),))
        )

    def test_digest_is_stable_across_pickling(self):
        trace = self._trace(((4, 5), (6, 7)))
        clone = pickle.loads(pickle.dumps(trace))
        assert trace_digest(clone) == trace_digest(trace)

    def test_digest_trace_groups_like_the_digest(self):
        a = DigestTrace(b"x" * 16)
        b = DigestTrace(b"x" * 16)
        c = DigestTrace(b"y" * 16)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_digest_trace_never_equals_a_full_trace(self):
        trace = self._trace(((1,),))
        assert DigestTrace(trace_digest(trace)) != trace


class TestProtocol5Transport:
    def _input(self, pages=2):
        sandbox = Sandbox(pages=pages)
        return InputGenerator(sandbox, seed=9).generate_one()

    def test_default_protocol_round_trip_unchanged(self):
        test_input = self._input()
        clone = pickle.loads(pickle.dumps(test_input))
        assert clone == test_input
        assert isinstance(clone.memory, bytes)

    def test_protocol5_in_band_round_trip(self):
        test_input = self._input()
        clone = pickle.loads(pickle.dumps(test_input, protocol=5))
        assert clone == test_input
        assert isinstance(clone.memory, bytes)

    def test_out_of_band_buffers_carry_the_sandbox_image(self):
        test_input = self._input()
        payload, buffers = dumps_oob([test_input])
        # The sandbox image must have left the opcode stream.
        assert buffers and sum(len(buffer) for buffer in buffers) >= len(
            test_input.memory
        )
        assert len(payload) < len(test_input.memory)
        (clone,) = loads_oob(payload, buffers)
        assert clone == test_input
        assert isinstance(clone.memory, bytes)

    def test_oob_round_trips_whole_tasks(self):
        tasks = _make_tasks(programs=1)
        payload, buffers = dumps_oob(tasks)
        clones = loads_oob(payload, buffers)
        assert [clone.task_id for clone in clones] == [task.task_id for task in tasks]
        assert clones[0].inputs == tasks[0].inputs
        assert clones[0].spec == tasks[0].spec


class TestAdaptiveMapChunksize:
    def test_adaptive_targets_four_chunks_per_worker(self):
        backend = ProcessPoolBackend(workers=2)
        assert backend.resolve_map_chunksize(64, 2) == 8
        assert backend.resolve_map_chunksize(8, 2) == 1

    def test_override_pins_the_chunksize(self):
        backend = ProcessPoolBackend(workers=2, map_chunksize=3)
        assert backend.resolve_map_chunksize(64, 2) == 3
        with pytest.raises(ValueError):
            ProcessPoolBackend(map_chunksize=0)

    def test_get_backend_threads_the_override(self):
        backend = get_backend("process", workers=2, map_chunksize=5)
        assert backend.map_chunksize == 5
        # The inline backend accepts and ignores it.
        assert isinstance(
            get_backend("inline", map_chunksize=5), InlineBackend
        )

    def test_mixed_duration_items_return_in_input_order(self):
        # Long and short items interleaved: whatever the chunking, pool.map
        # must stitch results back in input order.
        items = [30, 0, 25, 1, 20, 2, 15, 3, 10, 4, 5, 6]
        inline = InlineBackend().map_items(_busy_then_echo, items)
        for map_chunksize in (None, 1, 4):
            pooled = ProcessPoolBackend(
                workers=2, map_chunksize=map_chunksize
            ).map_items(_busy_then_echo, items)
            assert pooled == inline == items


def _busy_then_echo(value):
    """Module-level so the process pool can pickle it; busy-waits ~value*0.1ms."""
    total = 0
    for i in range(value * 100):
        total += i
    del total
    return value


class TestInlineSharding:
    def test_inline_matches_unsharded_executor_in_naive_mode(self):
        # In Naive mode every input starts on a fresh core, so a chunked
        # task must match one executor run over its inputs, record for record.
        tasks = _make_tasks()
        naive_tasks = [
            dataclasses.replace(
                task, spec=dataclasses.replace(task.spec, mode="naive")
            )
            for task in tasks
        ]
        outcomes = _run_inline(naive_tasks)
        for task, outcome in zip(naive_tasks, outcomes):
            executor = task.spec.build_executor()
            executor.load_program(task.program)
            records = executor.run_batch(list(task.inputs))
            assert [r.trace for r in records] == [
                record.trace for record in outcome.records
            ]
            assert [r.result.stats for r in records] == [
                record.result.stats for record in outcome.records
            ]

    def test_executor_cache_is_reused_across_tasks(self):
        tasks = _make_tasks(programs=2)
        executors = {}
        _run_inline(tasks, executors)
        assert len(executors) == 1  # one spec -> one cached executor

    def test_inline_router_returns_full_records_in_task_order(self):
        tasks = _make_tasks(programs=1)
        outcomes = SimulationRouter(0).map(tasks)
        assert [outcome.task_id for outcome in outcomes] == [
            task.task_id for task in tasks
        ]
        assert all(not outcome.pooled for outcome in outcomes)
        assert all(
            isinstance(record.trace, UarchTrace)
            for outcome in outcomes
            for record in outcome.records
        )


def _record_fingerprint(record):
    """Everything a simulated record carries, in comparable form."""
    return (
        pickle.dumps(record.trace),
        record.result.stats,
        record.result.final_registers,
        materialize_uarch_context(record.uarch_context),
    )


class TestChunkStart:
    """A chunk started on a loaded core equals one started on a new core."""

    @pytest.mark.parametrize("defense", sorted(available_defenses()))
    def test_back_to_back_tasks_match_new_executors(self, defense):
        tasks = _make_tasks(defense=defense, programs=2, inputs=8)
        # Chunks of one program (rewound starts) and of the next program.
        programs = {id(task.program) for task in tasks}
        assert len(programs) == 2 and len(tasks) > len(programs)
        executors = {}
        shared = [
            [_record_fingerprint(record) for record in outcome.records]
            for outcome in _run_inline(tasks, executors)
        ]
        assert len(executors) == 1
        for task, records in zip(tasks, shared):
            (fresh,) = _run_inline([task])
            assert records == [_record_fingerprint(record) for record in fresh.records]

    def test_rewind_keeps_earlier_contexts_materializable(self):
        tasks = _make_tasks(programs=1, inputs=8)
        assert len(tasks) > 1
        executors = {}
        (first,) = _run_inline(tasks[:1], executors)
        (executor,) = executors.values()
        core = executor._core
        _run_inline(tasks[1:], executors)
        assert executor._core is core  # later chunks rewound the same core
        # Materialize the first chunk's contexts only after later chunks ran.
        late = [materialize_uarch_context(r.uarch_context) for r in first.records]
        (fresh,) = _run_inline(tasks[:1])
        assert late == [
            materialize_uarch_context(r.uarch_context) for r in fresh.records
        ]


class TestPooledSharding:
    def test_pooled_outcomes_match_inline_digests_and_stats(self):
        tasks = _make_tasks()
        inline = _run_inline(tasks)
        pool = simshard.get_pool(2)
        pooled = pool.map(tasks)
        assert [outcome.task_id for outcome in pooled] == [
            task.task_id for task in tasks
        ]
        for inline_outcome, pooled_outcome in zip(inline, pooled):
            assert [
                trace_digest(record.trace) for record in inline_outcome.records
            ] == [record.trace.digest for record in pooled_outcome.records]
            assert [record.result.stats for record in inline_outcome.records] == [
                record.result.stats for record in pooled_outcome.records
            ]
            assert (
                pooled_outcome.simulator_starts == inline_outcome.simulator_starts
            )

    def test_fetch_materializes_full_records(self):
        tasks = _make_tasks(programs=1)
        inline = _run_inline(tasks)
        pool = simshard.get_pool(2)
        pooled = pool.map(tasks)
        record = pooled[0].records[0]
        assert isinstance(record, RemoteRecord) and record.pending
        full = pool.fetch(tasks[0].task_id, [0, 1])
        record.apply_full(full[0])
        assert not record.pending
        assert record.trace == inline[0].records[0].trace
        assert isinstance(record.uarch_context, dict)
        pool.release([task.task_id for task in tasks])

    def test_compact_results_are_smaller_than_full_records(self):
        tasks = _make_tasks(programs=1)
        inline = _run_inline(tasks)
        pool = simshard.get_pool(1)
        pooled = pool.map(tasks)
        full_bytes = len(
            pickle.dumps([outcome.records for outcome in inline], protocol=5)
        )
        compact_bytes = sum(outcome.compact_bytes for outcome in pooled)
        assert 0 < compact_bytes < full_bytes

    def test_pool_resizes_on_demand(self):
        first = simshard.get_pool(1)
        assert simshard.get_pool(1) is first
        second = simshard.get_pool(2)
        assert second is not first and second.workers == 2


class TestSimulationRouter:
    def test_sim_workers_semantics(self):
        assert not SimulationRouter(0).pooled
        assert SimulationRouter(2).pooled
        with pytest.raises(ValueError):
            SimulationRouter(-1)

    def test_materialize_ignores_full_records(self):
        # Inline records are already full; the hook must be a no-op.
        router = SimulationRouter(0)
        tasks = _make_tasks(programs=1)
        outcomes = router.map(tasks)

        class Entry:
            def __init__(self, record):
                self.record = record

        router.materialize_entries([Entry(outcomes[0].records[0])])


class TestDetectorMaterializeHook:
    def test_hook_runs_on_witnesses_before_violation_is_built(self):
        # Build a round inline, then replay detection with digest stand-ins
        # and a hook that swaps the full records back in: the violations
        # must match a straight full-record detection.
        config = FuzzerConfig(
            defense="baseline", programs_per_instance=1, inputs_per_program=7, seed=3
        )
        fuzzer = AmuletFuzzer(config)
        program = fuzzer.program_source.next_program().program
        test_case = fuzzer._build_test_case(program)
        plan = fuzzer.scheduler.plan(test_case)
        fuzzer.executor.load_program(program)
        records = fuzzer.executor.run_batch(
            [entry.test_input for entry in plan.executable]
        )
        for entry, record in zip(plan.executable, records):
            entry.record = record
        detector = ViolationDetector("baseline", fuzzer.contract_name)
        expected = detector.detect(test_case, classes=plan.classes)

        full_records = {entry.index: entry.record for entry in plan.executable}
        for entry in plan.executable:
            entry.record = _DigestOnlyRecord(entry.record)
        materialized = []

        def hook(entries):
            for entry in entries:
                materialized.append(entry.index)
                entry.record = full_records[entry.index]

        hooked = detector.detect(test_case, classes=plan.classes, materialize=hook)
        assert len(hooked) == len(expected)
        for a, b in zip(hooked, expected):
            assert a.trace_a == b.trace_a and a.trace_b == b.trace_b
            assert a.violating_input_count == b.violating_input_count
        if expected:
            assert materialized  # the hook actually ran on the witnesses


class _DigestOnlyRecord:
    """An ExecutionRecord reduced to its digest (test stand-in)."""

    def __init__(self, record):
        self.trace = DigestTrace(trace_digest(record.trace))
        self.result = record.result
        self.uarch_context = None


class TestRoundEquivalence:
    """Same seeds -> identical results across --sim-workers {0,2,4}."""

    @pytest.mark.parametrize("defense", sorted(available_defenses()))
    def test_all_defenses_agree_across_worker_counts(self, defense):
        fingerprints = {
            workers: _campaign_fingerprint(_run_campaign(defense, workers))
            for workers in (0, 2, 4)
        }
        assert fingerprints[0] == fingerprints[2] == fingerprints[4]

    @pytest.mark.parametrize(
        "defense, mode",
        [
            ("stt", ExecutionMode.OPT),
            ("baseline", ExecutionMode.OPT),
            ("invisispec", ExecutionMode.OPT),
            ("baseline", ExecutionMode.NAIVE),
        ],
    )
    def test_default_config_matches_every_sim_workers_setting(self, defense, mode):
        # One answer per campaign: the default configuration (no
        # ``sim_workers`` given) must find exactly what sharded-inline and
        # pooled execution find, in Opt mode too, where predictor state
        # carries across the inputs of one simulator start.
        kwargs = {
            "mode": mode,
            "programs": 6,
            "inputs": 14,
            "seed": 7,
            "validate_violations": False,
        }
        default = _campaign_fingerprint(_run_campaign(defense, **kwargs))
        for workers in (0, 2):
            sharded = _campaign_fingerprint(_run_campaign(defense, workers, **kwargs))
            for key in ("violations", "signatures", "corpus_ids", "coverage_bitmap"):
                assert default[key] == sharded[key], (key, workers)

    def test_sharding_composes_with_filtering(self):
        kwargs = {"filter": "speculation", "boost_factor": 0, "inputs": 8}
        fingerprints = [
            _campaign_fingerprint(_run_campaign("baseline", workers, **kwargs))
            for workers in (0, 2)
        ]
        assert fingerprints[0] == fingerprints[1]

    def test_phase_breakdown_reports_the_split(self):
        result = _run_campaign("baseline", 2)
        phases = result.phase_breakdown()["seconds"]
        assert {"generate", "contract", "boost", "simulate", "detect", "ipc"} <= set(
            phases
        )
        summary = result.parallel_sim_summary()
        assert summary["pooled"] and summary["tasks"] > 0
        assert summary["result_bytes"] > 0
        payload = result.to_json_dict()
        assert payload["phase_breakdown"]["seconds"]
        assert payload["parallel_sim"]["tasks"] == summary["tasks"]

    def test_inline_path_moves_no_bytes(self):
        result = _run_campaign("baseline")
        summary = result.parallel_sim_summary()
        assert not summary["pooled"] and summary["tasks"] > 0
        assert "result_bytes" not in summary


class TestWorkerHygiene:
    def _sim_children(self):
        return [
            process
            for process in multiprocessing.active_children()
            if process.name.startswith("Process-")
        ]

    def test_cancellation_leaves_no_orphaned_workers(self):
        # A stop-on-violation campaign cancels outstanding rounds; the
        # persistent pool must survive for the session and die with
        # shutdown_pool, leaving no orphans either way.
        result = _run_campaign(
            "baseline", 2, programs=4, stop_on_violation=True
        )
        assert result.violation_count() >= 1
        pool = simshard._POOL
        simshard.shutdown_pool()
        assert not self._sim_children()
        # A healthy cancellation answers the stop message: no sim worker was
        # force-killed and no supervision fault was recorded.
        assert pool is not None
        assert pool.force_kills == 0
        assert pool.fault_counters == {}

    def test_nested_in_process_backend_falls_back_inline(self):
        # ProcessPoolBackend campaign workers are daemonic and cannot spawn
        # sim workers; the run must still complete with identical results.
        config = FuzzerConfig(
            defense="baseline",
            programs_per_instance=2,
            inputs_per_program=7,
            seed=3,
            sim_workers=2,
        )
        pooled_campaign = Campaign(
            config, instances=2, backend=ProcessPoolBackend(workers=2)
        ).run()
        inline_campaign = Campaign(config, instances=2, backend=InlineBackend()).run()
        assert _campaign_fingerprint(pooled_campaign) == _campaign_fingerprint(
            inline_campaign
        )
        report = pooled_campaign.reports[0]
        assert report.parallel_sim.get("fallback_reason")
        simshard.shutdown_pool()
        assert not self._sim_children()
