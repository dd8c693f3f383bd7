"""Persistent process-pool backend with streaming rounds and worker supervision.

Unlike the old ``multiprocessing.Pool.map`` over whole instances, this
backend keeps one :class:`~repro.core.fuzzer.AmuletFuzzer` alive per instance
inside a persistent worker process and schedules *rounds* — (instance,
program_index) work units — in chunks.  Instances are pinned to workers
(round-robin), which preserves each instance's generator and predictor state
so per-instance results are identical to a sequential run; within a worker,
instances are interleaved chunk by chunk so every instance makes progress and
the cancellation flag is observed at chunk boundaries.

Every completed round is streamed back over a result queue the moment it
exists.  When ``stop_on_violation`` is set, the worker that confirms a
violation raises a shared event; all workers stop issuing chunks, flush
partial reports for their instances, and exit — no instance runs to
completion just because it was scheduled.

**Supervision.**  Workers additionally stream resume snapshots
(:meth:`AmuletFuzzer.state_dict`) at state boundaries.  The coordinator
keeps the latest snapshot per instance and supervises its workers through
the slot primitive of :mod:`repro.backends.supervision`: when a worker dies
(or overruns ``task_timeout_seconds`` and is force-killed) it respawns a
replacement — after an exponential backoff, up to ``max_retries`` times per
worker slot — restored from the latest snapshots.  Replayed rounds are
deduplicated by program index (rounds are counter-addressed pure functions,
so a replay is byte-identical), which makes recovery exactly-once from the
caller's point of view.  A worker slot that exhausts its retries degrades gracefully: its
unfinished instances report the rounds they completed, and the abandoned
remainder is recorded in ``FuzzerReport.faults`` (per-reason counters plus
lost-round IDs) instead of killing the campaign.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends.base import (
    CampaignPlan,
    ExecutionBackend,
    RoundCallback,
    StateCallback,
)
from repro.backends.supervision import POLL_SECONDS, WorkerSlot, supervise
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import AmuletFuzzer, FuzzerReport, report_from_state


def _worker_main(
    worker_id: int,
    generation: int,
    assignments: Sequence[Tuple[int, FuzzerConfig]],
    initial_states: Sequence[Optional[dict]],
    chunk_size: int,
    stop_on_violation: bool,
    stop_event,
    results,
    state_interval: int,
) -> None:
    """Run all rounds of the assigned instances, interleaved chunk by chunk."""
    try:
        # Ctrl-C belongs to the coordinator: it drains the campaign
        # gracefully; a worker that died to SIGINT would look like a crash.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    from repro.backends.faults import fault_plan, reset_fault_plan

    # Forked workers inherit the parent's parsed plan (including its fired
    # flags); re-read the environment so this process has its own.
    reset_fault_plan()
    faults = fault_plan()
    try:
        active: List[Tuple[int, AmuletFuzzer]] = []
        for (instance_index, config), state in zip(assignments, initial_states):
            fuzzer = AmuletFuzzer(config)
            if state is not None:
                fuzzer.restore_state(state)
            active.append((instance_index, fuzzer))
        rounds = {
            instance_index: fuzzer.iter_rounds() for instance_index, fuzzer in active
        }
        since_state = {instance_index: 0 for instance_index, _ in active}
        while active:
            still_active = []
            for instance_index, fuzzer in active:
                if stop_event.is_set():
                    results.put(
                        ("state", worker_id, instance_index, fuzzer.state_dict())
                    )
                    results.put(("report", worker_id, instance_index, fuzzer.report))
                    continue
                for _ in range(chunk_size):
                    if fuzzer.finished:
                        break
                    round_index = fuzzer.report.programs_tested
                    context = {
                        "worker": worker_id,
                        "instance": instance_index,
                        "round": round_index,
                        "generation": generation,
                    }
                    faults.maybe_delay("pool_worker", **context)
                    faults.maybe_kill("pool_worker", flush=results, **context)
                    result = next(rounds[instance_index], None)
                    if result is None:
                        break
                    results.put(("round", worker_id, instance_index, result))
                    since_state[instance_index] += 1
                    if result.violations and stop_on_violation:
                        stop_event.set()
                if fuzzer.finished:
                    results.put(
                        ("state", worker_id, instance_index, fuzzer.state_dict())
                    )
                    results.put(("report", worker_id, instance_index, fuzzer.report))
                else:
                    if since_state[instance_index] >= state_interval:
                        results.put(
                            ("state", worker_id, instance_index, fuzzer.state_dict())
                        )
                        since_state[instance_index] = 0
                    still_active.append((instance_index, fuzzer))
            active = still_active
    except BaseException:
        results.put(("error", worker_id, None, traceback.format_exc()))


class ProcessPoolBackend(ExecutionBackend):
    """Schedules campaign rounds across a supervised pool of worker processes."""

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: int = 1,
        map_chunksize: Optional[int] = None,
        max_retries: int = 2,
        retry_backoff_seconds: float = 0.05,
        task_timeout_seconds: Optional[float] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if map_chunksize is not None and map_chunksize < 1:
            raise ValueError("map_chunksize must be at least 1 (or None for adaptive)")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        self.workers = workers
        self.chunk_size = chunk_size
        self.map_chunksize = map_chunksize
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.task_timeout_seconds = task_timeout_seconds
        self.force_kills = 0

    def worker_count(self, instances: int) -> int:
        """Actual number of worker processes used for ``instances`` instances."""
        requested = self.workers if self.workers is not None else (os.cpu_count() or 2)
        return max(1, min(requested, instances))

    def resolve_map_chunksize(self, item_count: int, workers: int) -> int:
        """Chunk size for ``map_items``: the configured override, else adaptive.

        The adaptive choice targets ~4 chunks per worker: small enough that a
        long item (e.g. a violation with a slow minimization) doesn't
        serialise a whole worker's queue behind it, large enough that
        per-chunk pickling doesn't dominate when items are many and cheap.
        ``pool.map`` preserves input order regardless of chunking.
        """
        if self.map_chunksize is not None:
            return self.map_chunksize
        return max(1, item_count // (workers * 4))

    def map_items(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Any]:
        """Fan independent work items across a process pool, results in order.

        ``fn`` and the items must be picklable.  Chunking is adaptive (see
        :meth:`resolve_map_chunksize`) unless ``map_chunksize`` pins it.
        """
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        workers = self.worker_count(len(items))
        chunksize = self.resolve_map_chunksize(len(items), workers)
        context = multiprocessing.get_context()
        with context.Pool(processes=workers) as pool:
            return pool.map(fn, items, chunksize=chunksize)

    def _supervision_knobs(
        self, plan: CampaignPlan
    ) -> Tuple[int, float, Optional[float]]:
        """Retry/deadline knobs: the plan's config overrides the defaults."""
        if plan.configs:
            config = plan.configs[0]
            return (
                getattr(config, "max_retries", self.max_retries),
                getattr(config, "retry_backoff_seconds", self.retry_backoff_seconds),
                getattr(config, "task_timeout_seconds", self.task_timeout_seconds),
            )
        return self.max_retries, self.retry_backoff_seconds, self.task_timeout_seconds

    def run(
        self,
        plan: CampaignPlan,
        on_round: Optional[RoundCallback] = None,
        on_state: Optional[StateCallback] = None,
        stop_event: Optional[Any] = None,
        state_interval: int = 10,
    ) -> List[FuzzerReport]:
        self.force_kills = 0
        max_retries, backoff_seconds, task_timeout = self._supervision_knobs(plan)
        workers = self.worker_count(plan.instances)
        context = multiprocessing.get_context()
        mp_stop = context.Event()
        results = context.Queue()

        # Pin instances to workers round-robin: affinity keeps each fuzzer's
        # state with its instance, round-robin balances instance counts.
        pinned: List[List[int]] = [[] for _ in range(workers)]
        for instance_index in range(plan.instances):
            pinned[instance_index % workers].append(instance_index)

        # Latest resume snapshot and next expected round per instance.  The
        # plan's initial states (campaign resume) seed both: replayed rounds
        # below the expected index are byte-identical duplicates and are
        # dropped, which is what makes respawn recovery exactly-once.
        latest_state: Dict[int, Optional[dict]] = {}
        expected: Dict[int, int] = {}
        for instance_index in range(plan.instances):
            state = plan.initial_state(instance_index)
            latest_state[instance_index] = state
            expected[instance_index] = (
                state["programs_tested"] if state is not None else 0
            )

        reports: Dict[int, FuzzerReport] = {}
        fault_counters: Dict[int, Dict[str, int]] = {
            index: {} for index in range(plan.instances)
        }
        lost_rounds: Dict[int, List[int]] = {
            index: [] for index in range(plan.instances)
        }
        failure: Optional[str] = None

        def unfinished(slot: WorkerSlot) -> List[int]:
            return [index for index in pinned[slot.index] if index not in reports]

        def start(slot: WorkerSlot):
            assigned = [(index, plan.configs[index]) for index in unfinished(slot)]
            process = context.Process(
                target=_worker_main,
                args=(
                    slot.index,
                    slot.generation,
                    assigned,
                    [latest_state[index] for index, _ in assigned],
                    self.chunk_size,
                    plan.stop_on_violation,
                    mp_stop,
                    results,
                    state_interval,
                ),
                daemon=True,
            )
            process.start()
            return process

        slots = [WorkerSlot(worker_id, start) for worker_id in range(workers)]

        def handle_message(kind, worker_id, instance_index, payload) -> None:
            nonlocal failure
            slots[worker_id].touch()
            if kind == "round":
                if payload.program_index < expected[instance_index]:
                    return  # replayed after a respawn; already streamed
                expected[instance_index] = payload.program_index + 1
                if on_round is not None:
                    on_round(instance_index, payload)
                if payload.violations and plan.stop_on_violation:
                    mp_stop.set()
            elif kind == "state":
                current = latest_state[instance_index]
                if (
                    current is None
                    or payload["programs_tested"] >= current["programs_tested"]
                ):
                    latest_state[instance_index] = payload
                    if on_state is not None:
                        on_state(instance_index, payload)
            elif kind == "report":
                current = reports.get(instance_index)
                if (
                    current is None
                    or payload.programs_tested >= current.programs_tested
                ):
                    reports[instance_index] = payload
            else:  # "error": a Python exception inside the round pipeline is
                # a bug, not an infrastructure fault — it stays fatal.
                failure = payload

        def drain_pending() -> None:
            while True:
                try:
                    message = results.get_nowait()
                except queue_module.Empty:
                    return
                handle_message(*message)

        def handle_worker_loss(slot: WorkerSlot, reason: str) -> None:
            """A worker died or was killed for overrunning its deadline."""
            affected = unfinished(slot)
            for index in affected:
                fault_counters[index][reason] = (
                    fault_counters[index].get(reason, 0) + 1
                )
            if slot.respawn(max_retries, backoff_seconds, give_up=mp_stop.is_set()):
                return
            # Degrade: keep everything the lost instances completed (the
            # latest snapshot's report), record the abandoned remainder.
            for index in affected:
                state = latest_state[index]
                report = (
                    report_from_state(state)
                    if state is not None
                    else self.empty_report(plan.configs[index])
                )
                if not mp_stop.is_set():
                    budget = plan.configs[index].programs_per_instance
                    lost_rounds[index] = list(range(report.programs_tested, budget))
                reports[index] = report

        for slot in slots:
            slot.spawn()

        try:
            while len(reports) < plan.instances and failure is None:
                if stop_event is not None and stop_event.is_set():
                    mp_stop.set()
                try:
                    message = results.get(timeout=POLL_SECONDS)
                except queue_module.Empty:
                    self.force_kills += supervise(
                        slots,
                        task_timeout,
                        lambda slot: bool(unfinished(slot)),
                        drain_pending,
                        handle_worker_loss,
                    )
                    continue
                handle_message(*message)
        finally:
            mp_stop.set()
            for slot in slots:
                self.force_kills += slot.stop()
            results.close()
            results.join_thread()

        if failure is not None:
            raise RuntimeError(f"campaign worker failed: {failure}")

        final_reports = []
        for index in range(plan.instances):
            report = reports[index]
            # Fold the coordinator-side fault accounting into the report the
            # caller sees (the worker that suffered the fault could not).
            for reason, count in fault_counters[index].items():
                counters = report.faults.setdefault("counters", {})
                counters[reason] = counters.get(reason, 0) + count
            if lost_rounds[index]:
                lost = report.faults.setdefault("lost_rounds", [])
                for round_index in lost_rounds[index]:
                    if round_index not in lost:
                        lost.append(round_index)
            final_reports.append(report)
        return final_reports
