"""Intra-round parallel simulation with compact trace transport.

After the execution scheduler partitions a round into contract-equivalence
classes, detection is *class-local*: a Definition 2.1 violation is witnessed
(or not) entirely inside one class, validation contexts come from inside the
class, and coverage features are per-entry.  That makes the witnessable
classes of a round independent shard units.  Every round goes through this
module, whatever ``sim_workers`` is: ``0`` runs the shards inline on the
calling thread, ``>= 1`` fans them out across a pool of persistent worker
processes, and both give the same answer:

* each :class:`SimulationTask` is one *chunk*: a contiguous run of classes
  (entries in plan order) merged by :func:`chunk_classes` into a fixed
  per-round shard count.  A chunk is one AMuLeT-Opt batch: it runs on a
  **freshly started simulator**, with predictor state carried across its
  inputs, so a task's result depends only on the task, never on which
  worker ran it or in what order.  (Starting the next chunk of the same
  program rewinds the loaded core instead of building a new one; the
  records are the same.)
* workers keep a :class:`SimulatorExecutor` per :class:`ExecutorSpec`
  (defense, uarch config, mode, trace format, ...) alive across rounds, so
  the executor's primed machinery is reused instead of re-pickled per
  round;
* pooled results travel back in a **compact wire format**: a BLAKE2b digest
  of each micro-architectural trace plus the :class:`CoreStatistics` the
  coverage map needs — the detector only groups traces by equality, so
  digests suffice.  Full :class:`~repro.executor.traces.UarchTrace` payloads
  and materialized predictor contexts are fetched in a targeted second pass
  for the minority-group entries the detector actually promotes to
  violation witnesses (workers hold their task results in memory until the
  round releases them).  Inline shards keep their full records and compute
  no digests;
* task payloads are pickled with **protocol 5 out-of-band buffers**, so the
  sandbox memory of every :class:`~repro.generator.inputs.Input` is carved
  out of the opcode stream instead of being copied through it;
* the **contract pass** shards through the same workers: each base input's
  leakage-model run plus its contract-preserving boosted variants is one
  :class:`ContractTask` — base inputs are counter-seeded and variant
  derivation is seeded purely by the base input's fingerprint, so every
  worker derives exactly the same inputs.  Boosting
  (``InputGenerator.mutate_preserving``) lives in this pass; it decodes
  each variant's unpreserved locations in bulk from a SHAKE-128 stream, so
  even STT's 128-page sandbox costs ~3 ms per variant, less than
  generating the base image.

The pool is a process-wide singleton (persistent workers are the point);
``shutdown_pool()`` tears it down explicitly and an ``atexit`` hook — plus
daemonized workers — guarantees nothing outlives the interpreter.  Inside a
daemonic process (e.g. a :class:`ProcessPoolBackend` campaign worker, which
cannot have children), a pooled setting runs its shards inline instead,
with identical results.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import queue as queue_module
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.faults import fault_plan, reset_fault_plan
from repro.backends.supervision import POLL_SECONDS, WorkerSlot, supervise
from repro.executor.executor import (
    ExecutionMode,
    ExecutionRecord,
    PrimeStrategy,
    SimulatorExecutor,
)
from repro.executor.traces import TraceConfig, UarchTrace, trace_digest
from repro.generator.inputs import Input, InputGenerator
from repro.generator.sandbox import Sandbox
from repro.isa.program import Program
from repro.model.contracts import get_contract
from repro.model.emulator import ContractTrace, Emulator, SpeculationProfile
from repro.uarch.config import UarchConfig
from repro.uarch.core import SimulationResult
from repro.uarch.stats import CoreStatistics

# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def dumps_oob(obj) -> Tuple[bytes, List[bytes]]:
    """Pickle ``obj`` with protocol 5, extracting buffers out of band.

    ``Input.memory`` (the dominant payload of a simulation task: one sandbox
    image per input) advertises itself as a :class:`pickle.PickleBuffer`, so
    it lands in the returned buffer list untraversed instead of being copied
    through the opcode stream.
    """
    buffers: List[pickle.PickleBuffer] = []
    payload = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    return payload, [bytes(buffer.raw()) for buffer in buffers]


def loads_oob(payload: bytes, buffers: Sequence[bytes]):
    """Inverse of :func:`dumps_oob`."""
    return pickle.loads(payload, buffers=buffers)


@dataclass(frozen=True)
class ExecutorSpec:
    """Everything needed to (re)build one executor, and the worker cache key.

    All fields are hashable (``TraceConfig`` and ``UarchConfig`` are frozen
    dataclasses), so a worker's executor cache is a plain dict keyed by the
    spec — two fuzzing instances with the same configuration share one
    executor.
    """

    defense: str
    patched: bool
    mode: str
    prime_strategy: Optional[str]
    trace_config: TraceConfig
    uarch_config: UarchConfig
    sandbox_pages: int

    @staticmethod
    def from_fuzzer_config(config, sandbox_pages: int) -> "ExecutorSpec":
        """Spec for the executor an :class:`AmuletFuzzer` would build."""
        prime = config.prime_strategy
        return ExecutorSpec(
            defense=config.defense,
            patched=config.patched,
            mode=ExecutionMode(config.mode).value,
            prime_strategy=PrimeStrategy(prime).value if prime is not None else None,
            trace_config=config.trace_config,
            uarch_config=config.uarch_config,
            sandbox_pages=sandbox_pages,
        )

    def build_executor(self) -> SimulatorExecutor:
        from repro.defenses.registry import create_defense

        defense_name, patched = self.defense, self.patched
        return SimulatorExecutor(
            defense_factory=lambda: create_defense(defense_name, patched=patched),
            uarch_config=self.uarch_config,
            sandbox=Sandbox(pages=self.sandbox_pages),
            trace_config=self.trace_config,
            mode=ExecutionMode(self.mode),
            prime_strategy=(
                PrimeStrategy(self.prime_strategy)
                if self.prime_strategy is not None
                else None
            ),
        )


@dataclass
class SimulationTask:
    """One shard unit: a chunk of contract-equivalence classes of one round.

    ``inputs`` are the chunk's executable entries in plan (original input)
    order (see :func:`chunk_classes`).  The task is self-contained: a worker
    loads ``program`` on a fresh simulator built from ``spec`` and runs the
    inputs back to back.
    """

    task_id: int
    spec: ExecutorSpec
    program: Program
    inputs: Tuple[Input, ...]

    def weight(self) -> int:
        """Scheduling cost estimate: one unit per simulated input."""
        return len(self.inputs)


@dataclass(frozen=True)
class ContractSpec:
    """Worker-side recipe for one round's contract pass (and its cache key).

    ``mutate_preserving`` keys each variant's SHAKE-128 stream with the base
    input's fingerprint, the base index (its ``salt``) and the variant
    index — never with generator instance state — so any ``InputGenerator``
    over an identically sized sandbox derives identical boosted variants.
    That is what makes the contract pass shardable.
    """

    contract: str
    sandbox_pages: int
    boost_factor: int
    #: The fuzzing instance's input-generator seed: a worker generator built
    #: from it materializes counter-addressed base inputs bit-identically.
    generator_seed: int = 0


@dataclass
class ContractTask:
    """One contract-pass shard: a single base input of one round.

    The base input travels either as a literal (corpus-seeded inputs, which
    exist only in the coordinator) or as a stream ``base_counter`` — inputs
    are pure functions of (generator seed, counter), so the worker
    materializes them locally and the (large, for big sandboxes) sandbox
    image never crosses the wire inbound.

    ``program_key`` is unique per (instance, round); workers key their cached
    :class:`~repro.model.emulator.Emulator` on it so all base inputs of a
    round share one decoded program.
    """

    task_id: int
    spec: ContractSpec
    program_key: int
    program: Program
    base_index: int
    base_input: Optional[Input] = None
    base_counter: Optional[int] = None

    def weight(self) -> int:
        """Scheduling cost estimate: the base input plus its variants."""
        return 1 + self.spec.boost_factor


@dataclass
class ContractOutcome:
    """Contract traces, the materialized base input, and boosted variants.

    Contract traces travel whole (the coordinator partitions on them, so
    digests cannot stand in); the heavy payloads — the base input's and each
    variant's sandbox image — ride as protocol-5 out-of-band buffers.
    """

    task_id: int
    base_input: Input
    base_trace: ContractTrace
    base_speculation: SpeculationProfile
    variants: Tuple[Input, ...]
    variant_traces: Tuple[ContractTrace, ...]
    variant_speculations: Tuple[SpeculationProfile, ...]
    #: Wall-clock the worker spent on this task (generation + emulation +
    #: mutation).
    elapsed_seconds: float = 0.0
    #: The part of ``elapsed_seconds`` spent deriving the boosted variants.
    boost_seconds: float = 0.0
    pooled: bool = False

    def busy_seconds(self) -> float:
        return self.elapsed_seconds


@dataclass
class CompactRecord:
    """The digest-plus-counters wire form of one executed entry.

    Everything the round pipeline reads for *non-witness* entries: the trace
    digest (detection groups by equality), and the simulation counters the
    coverage map and time accounting consume.  The full trace, the final
    architectural registers, and the predictor context stay worker-side
    until :meth:`SimWorkerPool.fetch` asks for them.
    """

    digest: bytes
    cycles: int
    instructions_committed: int
    exit_reached: bool
    stats: CoreStatistics

    @staticmethod
    def from_record(record: ExecutionRecord) -> "CompactRecord":
        result = record.result
        return CompactRecord(
            digest=trace_digest(record.trace),
            cycles=result.cycles,
            instructions_committed=result.instructions_committed,
            exit_reached=result.exit_reached,
            stats=result.stats,
        )


@dataclass
class FullRecord:
    """The second-pass payload for one witness entry."""

    trace: UarchTrace
    uarch_context: Optional[dict]
    result: SimulationResult


@dataclass(frozen=True, eq=False)
class DigestTrace:
    """Hashable stand-in for a :class:`UarchTrace` on the compact path.

    Equality and hashing go through the content digest, so the detector's
    group-by-trace dictionaries behave exactly as with full traces (BLAKE2b
    collisions at 128 bits are not a practical concern).  Deliberately never
    equal to a real ``UarchTrace``: a round must group either all-digest or
    all-full, and mixing the two is a bug this asymmetry surfaces.
    """

    digest: bytes

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DigestTrace) and self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def differing_components(self, other) -> Tuple[str, ...]:
        raise TypeError(
            "DigestTrace carries no components; materialize the full trace "
            "(SimulationRouter.materialize_entries) before diffing"
        )


class RemoteRecord:
    """Execution record whose heavy payload still lives in a worker.

    Mirrors the :class:`~repro.executor.executor.ExecutionRecord` attribute
    surface the round pipeline touches (``trace``, ``result``,
    ``uarch_context``, ``materialized_context()``); ``apply_full`` swaps in
    the fetched second-pass payload for witness entries.
    """

    __slots__ = ("trace", "result", "uarch_context", "task_id", "input_index")

    def __init__(self, task_id: int, input_index: int, compact: CompactRecord) -> None:
        self.task_id = task_id
        self.input_index = input_index
        self.trace: object = DigestTrace(compact.digest)
        self.result = SimulationResult(
            cycles=compact.cycles,
            instructions_committed=compact.instructions_committed,
            exit_reached=compact.exit_reached,
            stats=compact.stats,
        )
        self.uarch_context: Optional[dict] = None

    @property
    def pending(self) -> bool:
        """True while only the compact payload is present."""
        return isinstance(self.trace, DigestTrace)

    def apply_full(self, full: FullRecord) -> None:
        if trace_digest(full.trace) != self.trace.digest:  # pragma: no cover
            raise RuntimeError("fetched trace does not match its digest")
        self.trace = full.trace
        self.result = full.result
        self.uarch_context = full.uarch_context

    def materialized_context(self) -> Optional[dict]:
        return self.uarch_context


@dataclass
class TaskOutcome:
    """One simulation task's records plus the executor time it added."""

    task_id: int
    #: One record per task input: a full ``ExecutionRecord`` (inline), a
    #: :class:`CompactRecord` (on the wire), or a digest-backed
    #: :class:`RemoteRecord` (pooled, on the coordinator).
    records: List[object]
    #: Modeled / wall-clock seconds this task added to the executor's ledger.
    modeled_seconds: Dict[str, float]
    wall_clock_seconds: Dict[str, float]
    simulator_starts: int
    #: Wall-clock measured *around* the task, which exceeds the executor's
    #: own ledger deltas by per-task costs the ledger does not attribute
    #: (simulator start, record assembly).  This is what the task really
    #: costs wherever it runs, so scheduling and makespan math use it.
    elapsed_seconds: float = 0.0
    pooled: bool = False
    #: Result-message bytes on the wire (0 inline).
    compact_bytes: int = 0

    def busy_seconds(self) -> float:
        return self.elapsed_seconds


# ---------------------------------------------------------------------------
# task execution (shared by the inline fallback and the workers)
# ---------------------------------------------------------------------------


def _time_snapshot(executor: SimulatorExecutor) -> Tuple[Dict[str, float], Dict[str, float], int]:
    return (
        dict(executor.time.modeled_seconds),
        dict(executor.time.wall_clock_seconds),
        executor.simulator_starts,
    )


def _time_delta(
    before: Tuple[Dict[str, float], Dict[str, float], int],
    executor: SimulatorExecutor,
) -> Tuple[Dict[str, float], Dict[str, float], int]:
    modeled_before, wall_before, starts_before = before
    modeled = {
        component: seconds - modeled_before.get(component, 0.0)
        for component, seconds in executor.time.modeled_seconds.items()
        if seconds - modeled_before.get(component, 0.0) > 0.0
    }
    wall = {
        component: seconds - wall_before.get(component, 0.0)
        for component, seconds in executor.time.wall_clock_seconds.items()
        if seconds - wall_before.get(component, 0.0) > 0.0
    }
    return modeled, wall, executor.simulator_starts - starts_before


def run_simulation_task(
    task: SimulationTask, executors: Dict[ExecutorSpec, SimulatorExecutor]
) -> TaskOutcome:
    """Run one task on a cached (or new) executor; full records.

    ``load_program`` starts a fresh simulator in Opt mode, so every task —
    wherever it runs — starts from the same micro-architectural state and
    its records are a pure function of the task.
    """
    started = time.perf_counter()
    executor = executors.get(task.spec)
    if executor is None:
        executor = task.spec.build_executor()
        executors[task.spec] = executor
    before = _time_snapshot(executor)
    executor.load_program(task.program)
    records = executor.run_batch(list(task.inputs))
    modeled, wall, starts = _time_delta(before, executor)
    return TaskOutcome(
        task_id=task.task_id,
        records=records,
        modeled_seconds=modeled,
        wall_clock_seconds=wall,
        simulator_starts=starts,
        elapsed_seconds=time.perf_counter() - started,
    )


#: Fixed shard granularity of a round's micro-architectural simulation: its
#: witnessable classes are merged, in plan order, into at most this many
#: contiguous chunks (one simulator start each).  A fixed constant — never the
#: worker count — so the chunking, and with it every simulated trace, is
#: byte-identical at any ``sim_workers`` setting.  Six chunks is the
#: measured sweet spot for a 4-worker round: fewer pays too coarse an LPT
#: schedule, more pays too many cold cores.
SIM_CHUNKS_PER_ROUND = 6


def chunk_classes(
    classes: Sequence[Sequence], max_chunks: int = SIM_CHUNKS_PER_ROUND
) -> List[List]:
    """Merge contract-equivalence classes into contiguous, balanced chunks.

    Returns at most ``max_chunks`` lists of entries (plan order preserved,
    classes never split), with chunk boundaries chosen greedily so chunks
    carry roughly equal input counts.  Each chunk simulates on one freshly
    started simulator; predictor state carries across the chunk's inputs as
    AMuLeT-Opt carries it across one batch — and since the chunking depends
    only on the plan, results are independent of where chunks execute.
    """
    if not classes:
        return []
    count = min(len(classes), max(1, max_chunks))
    total = sum(len(entries) for entries in classes)
    chunks: List[List] = []
    current: List = []
    consumed = 0
    for entries in classes:
        current.extend(entries)
        consumed += len(entries)
        if (
            len(chunks) < count - 1
            and consumed * count >= total * (len(chunks) + 1)
        ):
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return chunks


class ContractRunner:
    """Per-process cache behind contract-pass shards.

    Caches one :class:`InputGenerator` per spec (sandboxes are per-spec) and
    one :class:`~repro.model.emulator.Emulator` per (spec, program_key), so
    every base input of a round reuses the round's decoded program.
    """

    def __init__(self) -> None:
        self._generators: Dict[ContractSpec, InputGenerator] = {}
        self._emulators: Dict[ContractSpec, Tuple[int, Emulator]] = {}

    def run(self, task: ContractTask) -> ContractOutcome:
        started = time.perf_counter()
        spec = task.spec
        generator = self._generators.get(spec)
        if generator is None:
            generator = InputGenerator(
                Sandbox(pages=spec.sandbox_pages), seed=spec.generator_seed
            )
            self._generators[spec] = generator
        cached = self._emulators.get(spec)
        if cached is None or cached[0] != task.program_key:
            emulator = Emulator(task.program, generator.sandbox)
            self._emulators[spec] = (task.program_key, emulator)
        else:
            emulator = cached[1]
        base_input = task.base_input
        if base_input is None:
            base_input = generator.generate_at(task.base_counter)
        contract = get_contract(spec.contract)
        model_result = emulator.run(base_input, contract)
        boost_started = time.perf_counter()
        variants = generator.mutate_preserving(
            base_input,
            model_result.relevant_labels,
            count=spec.boost_factor,
            salt=task.base_index,
        )
        boost_seconds = time.perf_counter() - boost_started
        variant_results = (
            emulator.collect_traces_batch(variants, contract) if variants else []
        )
        return ContractOutcome(
            task_id=task.task_id,
            base_input=base_input,
            base_trace=model_result.trace,
            base_speculation=model_result.speculation,
            variants=tuple(variants),
            variant_traces=tuple(result.trace for result in variant_results),
            variant_speculations=tuple(
                result.speculation for result in variant_results
            ),
            elapsed_seconds=time.perf_counter() - started,
            boost_seconds=boost_seconds,
        )


# ---------------------------------------------------------------------------
# the worker pool
# ---------------------------------------------------------------------------


def _full_records(
    records: Sequence[ExecutionRecord], indices: Sequence[int]
) -> Dict[int, FullRecord]:
    """The second-pass payload for selected records of one task."""
    return {
        index: FullRecord(
            trace=records[index].trace,
            uarch_context=records[index].materialized_context(),
            result=records[index].result,
        )
        for index in indices
    }


def _sim_worker_main(
    worker_index: int, generation: int, task_queue, result_queue
) -> None:
    """Worker loop: run simulation and contract shards, serve fetches.

    Every reply is ``(kind, worker_index, generation, task_id, payload,
    buffers)``.  ``generation`` counts this slot's incarnations (see
    :class:`~repro.backends.supervision.WorkerSlot`) and keys deterministic
    fault injection.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A forked worker inherits the coordinator's SIGTERM handler (the CLI's
    # only sets a stop event); ``terminate()`` must end it, not be ignored.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Forked workers inherit the parent's parsed plan; re-read the
    # environment so per-worker match keys see this process's context.
    reset_fault_plan()
    plan = fault_plan()
    executors: Dict[ExecutorSpec, SimulatorExecutor] = {}
    contract_runner = ContractRunner()
    held: Dict[int, List[ExecutionRecord]] = {}
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            return
        try:
            if kind == "release":
                for task_id in message[1]:
                    held.pop(task_id, None)
                continue
            if kind == "fetch":
                task_id = message[1]
                reply = dumps_oob(_full_records(held[task_id], message[2]))
                result_queue.put((kind, worker_index, generation, task_id, *reply))
                continue
            site = "sim_worker" if kind == "sim" else "sim_contract"
            for task in loads_oob(message[1], message[2]):
                context = {
                    "worker": worker_index,
                    "task": task.task_id,
                    "generation": generation,
                }
                plan.maybe_delay(site, **context)
                plan.maybe_kill(site, flush=result_queue, **context)
                if kind == "sim":
                    outcome = run_simulation_task(task, executors)
                    held[task.task_id] = outcome.records
                    outcome.records = [
                        CompactRecord.from_record(record) for record in outcome.records
                    ]
                else:
                    outcome = contract_runner.run(task)
                reply = dumps_oob(outcome)
                result_queue.put((kind, worker_index, generation, task.task_id, *reply))
        except BaseException:
            result_queue.put(
                ("error", worker_index, generation, None, traceback.format_exc(), [])
            )


class SimWorkerPool:
    """A supervised, persistent pool of simulation workers.

    Tasks are assigned with a deterministic longest-processing-time
    heuristic (:meth:`SimulationTask.weight` / :meth:`ContractTask.weight`),
    one batched message per worker per dispatch; results stream back over a
    shared queue and are re-ordered by task id.  The pool remembers which
    worker incarnation ran which task so the second-pass ``fetch`` can be
    targeted.

    Supervision (:mod:`repro.backends.supervision`): one collect loop serves
    simulation shards, contract shards and fetches alike.  While the result
    queue is idle it checks each slot that owes results for death (or a
    ``task_timeout_seconds`` deadline overrun, which force-kills the
    straggler).  A lost slot is respawned with exponential backoff — a
    fresh incarnation with a fresh task queue — and its outstanding tasks
    are re-dispatched; because every task is a pure function of its
    payload, replayed results are byte-identical and stale duplicates from
    the dead incarnation are simply dropped.  Beyond ``max_retries``
    respawns a slot is disabled; once every slot is disabled, remaining
    tasks run inline on the coordinator (still in the compact-record shape,
    so a round never mixes digest and full traces).  Full records lost with
    a dead incarnation are re-simulated inline on fetch from the
    coordinator-retained task payloads.
    """

    def __init__(
        self,
        workers: int,
        max_retries: int = 2,
        retry_backoff_seconds: float = 0.05,
        task_timeout_seconds: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("a simulation pool needs at least 1 worker")
        self.workers = workers
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.task_timeout_seconds = task_timeout_seconds
        self._context = multiprocessing.get_context()
        self._results = self._context.Queue()
        #: Slot index -> the task queue of its current incarnation.
        self._queues: Dict[int, object] = {}
        self._slots = [WorkerSlot(index, self._start_worker) for index in range(workers)]
        for slot in self._slots:
            slot.spawn()
        #: task_id -> (slot index, generation) of the incarnation holding the
        #: task's full records (set when the result is accepted).
        self._task_worker: Dict[int, Tuple[int, int]] = {}
        #: Dispatched task payloads, kept until release so lost records can
        #: be re-simulated inline (retention window: one round).
        self._retained: Dict[int, SimulationTask] = {}
        #: Full records produced on the coordinator (inline degradation or
        #: fetch-time re-simulation), served directly by ``fetch``.
        self._local_records: Dict[int, List[ExecutionRecord]] = {}
        self._inline_executors: Dict[ExecutorSpec, SimulatorExecutor] = {}
        self._inline_contract_runner = ContractRunner()
        self._closed = False
        #: Cumulative transport accounting (read by benchmarks/reports).
        self.sent_bytes = 0
        self.result_bytes = 0
        self.fetch_bytes = 0
        self.fetched_entries = 0
        #: Cumulative supervision accounting (mirrored into reports).
        self.fault_counters: Dict[str, int] = {}
        self.force_kills = 0

    @property
    def degraded(self) -> bool:
        """True once any slot has been disabled (retry budget exhausted)."""
        return any(slot.disabled for slot in self._slots)

    def _count_fault(self, reason: str, count: int = 1) -> None:
        self.fault_counters[reason] = self.fault_counters.get(reason, 0) + count

    # -- worker lifecycle -----------------------------------------------------
    def _start_worker(self, slot: WorkerSlot):
        """Start ``slot``'s new incarnation on a fresh task queue."""
        old_queue = self._queues.get(slot.index)
        task_queue = self._context.Queue()
        self._queues[slot.index] = task_queue
        process = self._context.Process(
            target=_sim_worker_main,
            args=(slot.index, slot.generation, task_queue, self._results),
            daemon=True,
        )
        process.start()
        if old_queue is not None:
            # The dead incarnation's queue (and whatever undelivered messages
            # it still holds) is abandoned; free its feeder thread.
            try:
                old_queue.close()
            except (ValueError, OSError):  # pragma: no cover - teardown race
                pass
        return process

    def _lose(self, slot: WorkerSlot, reason: str) -> None:
        """An incarnation was lost: count it, forget its records, respawn."""
        self._count_fault(reason)
        incarnation = (slot.index, slot.generation)
        for task_id, holder in list(self._task_worker.items()):
            if holder == incarnation:
                del self._task_worker[task_id]
        slot.respawn(self.max_retries, self.retry_backoff_seconds)

    # -- scheduling -----------------------------------------------------------
    def _dispatch(self, kind: str, tasks: Sequence, pending, assignment, outcomes) -> None:
        """LPT-shard ``tasks`` across the enabled slots (inline if none is)."""
        enabled = [slot for slot in self._slots if not slot.disabled]
        if not enabled:
            self._count_fault("sim_inline_fallback", len(tasks))
            for task in tasks:
                del pending[task.task_id]
                outcomes[task.task_id] = self._run_inline(kind, task)
            return
        loads = [0] * len(enabled)
        shards: List[List] = [[] for _ in enabled]
        for task in sorted(tasks, key=lambda task: (-task.weight(), task.task_id)):
            target = loads.index(min(loads))
            shards[target].append(task)
            loads[target] += max(1, task.weight())
        for slot, shard in zip(enabled, shards):
            if not shard:
                continue
            payload, buffers = dumps_oob(shard)
            self.sent_bytes += len(payload) + sum(len(buffer) for buffer in buffers)
            self._queues[slot.index].put((kind, payload, buffers))
            slot.touch()
            for task in shard:
                assignment[task.task_id] = (slot.index, slot.generation)

    def _collect(self, kind: str, pending: Dict[int, object], assignment, outcomes) -> None:
        """Wait until nothing of ``kind`` is pending; supervise while idle.

        ``pending`` maps task ids to what finishing them elsewhere takes
        after a loss: the task itself, or a fetch's entry indices.
        """

        def owes_work(slot: WorkerSlot) -> bool:
            incarnation = (slot.index, slot.generation)
            return any(assignment.get(task_id) == incarnation for task_id in pending)

        def handle(message) -> None:
            tag, worker_index, generation, task_id, payload, buffers = message
            if tag == "error":
                raise RuntimeError(f"simulation worker failed:\n{payload}")
            slot = self._slots[worker_index]
            if generation == slot.generation:
                slot.touch()
            if tag != kind or task_id not in pending:
                return  # a replaced incarnation's straggler, or a replay
            del pending[task_id]
            outcomes[task_id] = self._accept(
                kind, (worker_index, generation), task_id, payload, buffers
            )

        def drain() -> None:
            while True:
                try:
                    message = self._results.get_nowait()
                except queue_module.Empty:
                    return
                handle(message)

        def on_loss(slot: WorkerSlot, reason: str) -> None:
            incarnation = (slot.index, slot.generation)
            lost = [task_id for task_id in pending if assignment.get(task_id) == incarnation]
            self._lose(slot, "sim_" + reason)
            if kind == "fetch":
                for task_id in lost:
                    outcomes[task_id] = self._fetch_local(task_id, pending.pop(task_id))
            else:
                self._dispatch(
                    kind, [pending[task_id] for task_id in lost], pending, assignment, outcomes
                )

        while pending:
            try:
                message = self._results.get(timeout=POLL_SECONDS)
            except queue_module.Empty:
                self.force_kills += supervise(
                    self._slots, self.task_timeout_seconds, owes_work, drain, on_loss
                )
                continue
            handle(message)

    def _accept(self, kind: str, holder: Tuple[int, int], task_id: int, payload, buffers):
        """Decode one worker reply and account its bytes."""
        size = len(payload) + sum(len(buffer) for buffer in buffers)
        result = loads_oob(payload, buffers)
        if kind == "fetch":
            self.fetch_bytes += size
            self.fetched_entries += len(result)
            return result
        self.result_bytes += size
        result.pooled = True
        if kind == "sim":
            self._task_worker[task_id] = holder
            result.compact_bytes = size
            result.records = [
                RemoteRecord(task_id, index, compact)
                for index, compact in enumerate(result.records)
            ]
        return result

    # -- inline degradation ---------------------------------------------------
    def _run_inline(self, kind: str, task):
        """Run one task on the coordinator, in the pooled result shape.

        A simulation outcome carries :class:`RemoteRecord`\\ s (digest
        traces), never full records — a round must stay all-digest — with
        the full records retained locally so ``fetch`` serves them.
        """
        if kind == "contract":
            return self._inline_contract_runner.run(task)
        outcome = run_simulation_task(task, self._inline_executors)
        self._local_records[task.task_id] = outcome.records
        outcome.records = [
            RemoteRecord(task.task_id, index, CompactRecord.from_record(record))
            for index, record in enumerate(outcome.records)
        ]
        return outcome

    def _fetch_local(self, task_id: int, indices: Sequence[int]) -> Dict[int, FullRecord]:
        records = self._local_records.get(task_id)
        if records is None:
            task = self._retained.get(task_id)
            if task is None:
                raise KeyError(f"simulation task {task_id} is no longer retained")
            self._count_fault("sim_refetch_resimulated")
            records = run_simulation_task(task, self._inline_executors).records
            self._local_records[task_id] = records
        self.fetched_entries += len(indices)
        return _full_records(records, indices)

    # -- public API -----------------------------------------------------------
    def _map(self, kind: str, tasks: Sequence) -> List:
        if self._closed:
            raise RuntimeError("simulation pool is closed")
        outcomes: Dict[int, object] = {}
        pending = {task.task_id: task for task in tasks}
        assignment: Dict[int, Tuple[int, int]] = {}
        self._dispatch(kind, list(tasks), pending, assignment, outcomes)
        self._collect(kind, pending, assignment, outcomes)
        return [outcomes[task.task_id] for task in tasks]

    def map(self, tasks: Sequence[SimulationTask]) -> List[TaskOutcome]:
        """Shard simulation tasks across the workers; outcomes in task order."""
        for task in tasks:
            self._retained[task.task_id] = task
        return self._map("sim", tasks)

    def map_contract(self, tasks: Sequence[ContractTask]) -> List[ContractOutcome]:
        """Shard contract-pass tasks across the workers; outcomes in order.

        Contract tasks have no second pass: nothing is held worker-side.
        """
        return self._map("contract", tasks)

    def fetch(self, task_id: int, indices: Sequence[int]) -> Dict[int, FullRecord]:
        """Second pass: full records for selected entries of a past task.

        Served by the worker incarnation that ran the task while it lives;
        otherwise re-simulated inline from the retained task payload
        (byte-identical records — the task is a pure function).
        """
        holder = self._task_worker.get(task_id)
        slot = self._slots[holder[0]] if holder is not None else None
        if (
            slot is None
            or slot.disabled
            or slot.generation != holder[1]
            or not slot.process.is_alive()
        ):
            return self._fetch_local(task_id, indices)
        self._queues[slot.index].put(("fetch", task_id, list(indices)))
        slot.touch()
        outcomes: Dict[int, Dict[int, FullRecord]] = {}
        self._collect("fetch", {task_id: list(indices)}, {task_id: holder}, outcomes)
        return outcomes[task_id]

    def release(self, task_ids: Sequence[int]) -> None:
        """Drop everything retained for finished tasks (worker- and local-side).

        Broadcast to every live slot: after a respawn-and-replay, more than
        one incarnation may hold a task's records, and workers drop unknown
        ids tolerantly.
        """
        ids = list(task_ids)
        if not ids:
            return
        for task_id in ids:
            self._task_worker.pop(task_id, None)
            self._retained.pop(task_id, None)
            self._local_records.pop(task_id, None)
        for slot in self._slots:
            if not slot.disabled:
                self._queues[slot.index].put(("release", ids))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if slot.disabled:
                continue
            try:
                self._queues[slot.index].put(("stop",))
            except (ValueError, OSError):  # pragma: no cover - teardown race
                pass
        for slot in self._slots:
            self.force_kills += slot.stop()
        for handle in [*self._queues.values(), self._results]:
            handle.close()
            handle.join_thread()


_POOL: Optional[SimWorkerPool] = None


def get_pool(
    workers: int,
    max_retries: int = 2,
    retry_backoff_seconds: float = 0.05,
    task_timeout_seconds: Optional[float] = None,
) -> SimWorkerPool:
    """The process-wide persistent pool.

    Recreated when the size changes, after a close, or when a previous
    campaign exhausted a slot's retry budget (a new campaign deserves a
    healthy pool); supervision knobs just update in place.
    """
    global _POOL
    if _POOL is not None and (
        _POOL.workers != workers or _POOL._closed or _POOL.degraded
    ):
        _POOL.close()
        _POOL = None
    if _POOL is None:
        _POOL = SimWorkerPool(
            workers,
            max_retries=max_retries,
            retry_backoff_seconds=retry_backoff_seconds,
            task_timeout_seconds=task_timeout_seconds,
        )
    else:
        _POOL.max_retries = max_retries
        _POOL.retry_backoff_seconds = retry_backoff_seconds
        _POOL.task_timeout_seconds = task_timeout_seconds
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (tests; also runs atexit)."""
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# the per-fuzzer router
# ---------------------------------------------------------------------------


class SimulationRouter:
    """Runs one fuzzer's round shards inline or on the worker pool.

    ``sim_workers`` (mirrors ``FuzzerConfig.sim_workers``) is ``0`` for
    shards run on the calling thread — no processes, no IPC, full records —
    or ``>= 1`` for that many persistent worker processes with compact
    trace transport.  Either way the same chunks run on freshly started
    simulators, so results are byte-identical at every setting.  Inside a
    daemonic process (a pooled campaign worker cannot spawn children) a
    pooled setting runs inline instead — same results.
    """

    def __init__(
        self,
        sim_workers: int = 0,
        max_retries: int = 2,
        retry_backoff_seconds: float = 0.05,
        task_timeout_seconds: Optional[float] = None,
    ) -> None:
        if sim_workers < 0:
            raise ValueError("sim_workers must be >= 0")
        self.requested = sim_workers
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.task_timeout_seconds = task_timeout_seconds
        self.fallback_reason: Optional[str] = None
        if sim_workers and multiprocessing.current_process().daemon:
            self.fallback_reason = "daemonic process cannot spawn sim workers"
        self._executors: Dict[ExecutorSpec, SimulatorExecutor] = {}
        self._contract_runner = ContractRunner()
        #: The pool this router dispatches through, pinned at first use.  A
        #: router must keep using one pool object for its whole life: the
        #: pool retains task payloads and locally re-simulated records that
        #: the round's second-pass fetch depends on, so swapping pools
        #: mid-round (e.g. ``get_pool`` replacing a degraded pool) would
        #: lose them.
        self._pool_instance: Optional[SimWorkerPool] = None
        #: Supervision events of the (process-wide) pool that happened
        #: during this router's calls.
        self.faults: Dict[str, int] = {}
        self.force_kills = 0
        #: Per-dispatch task timings, one entry per ``map``/``map_contract``
        #: call.  Each dispatch is a barrier (a round cannot simulate before
        #: its contract pass returns), so an honest multi-worker makespan
        #: projection is per-dispatch LPT, not one global LPT over every
        #: task of the campaign.
        self.dispatches: List[Dict[str, object]] = []
        self.tasks_dispatched = 0
        self.pooled_tasks = 0
        self.contract_tasks_dispatched = 0
        self.roundtrip_seconds = 0.0
        self.busy_seconds = 0.0
        self.contract_busy_seconds = 0.0

    @property
    def pooled(self) -> bool:
        return self.requested > 0 and self.fallback_reason is None

    def _on_pool(self, call):
        """``call(pool)``, charging the pool's supervision events to this router."""
        pool = self._pool_instance
        if pool is None or pool._closed:
            pool = self._pool_instance = get_pool(
                self.requested,
                max_retries=self.max_retries,
                retry_backoff_seconds=self.retry_backoff_seconds,
                task_timeout_seconds=self.task_timeout_seconds,
            )
        faults_before, force_kills_before = dict(pool.fault_counters), pool.force_kills
        try:
            return call(pool)
        finally:
            for reason, count in pool.fault_counters.items():
                delta = count - faults_before.get(reason, 0)
                if delta:
                    self.faults[reason] = self.faults.get(reason, 0) + delta
            self.force_kills += pool.force_kills - force_kills_before

    def _log_dispatch(self, kind: str, outcomes: Sequence, started: float) -> float:
        """Account one dispatch; returns its tasks' busy seconds."""
        self.roundtrip_seconds += time.perf_counter() - started
        timings = [outcome.busy_seconds() for outcome in outcomes]
        self.pooled_tasks += sum(1 for outcome in outcomes if outcome.pooled)
        self.dispatches.append(
            {"kind": kind, "task_seconds": [round(seconds, 6) for seconds in timings]}
        )
        return sum(timings)

    def map(self, tasks: Sequence[SimulationTask]) -> List[TaskOutcome]:
        started = time.perf_counter()
        if self.pooled:
            outcomes = self._on_pool(lambda pool: pool.map(tasks))
        else:
            outcomes = [run_simulation_task(task, self._executors) for task in tasks]
        self.tasks_dispatched += len(tasks)
        self.busy_seconds += self._log_dispatch("sim", outcomes, started)
        return outcomes

    def map_contract(self, tasks: Sequence[ContractTask]) -> List[ContractOutcome]:
        started = time.perf_counter()
        if self.pooled:
            outcomes = self._on_pool(lambda pool: pool.map_contract(tasks))
        else:
            outcomes = [self._contract_runner.run(task) for task in tasks]
        self.contract_tasks_dispatched += len(tasks)
        self.contract_busy_seconds += self._log_dispatch("contract", outcomes, started)
        return outcomes

    def materialize_entries(self, entries) -> None:
        """Second pass: swap compact witness records for full ones in place.

        Accepts test-case entries whose ``record`` may be inline
        ``ExecutionRecord``s (no-op) or pending :class:`RemoteRecord`s
        (fetched from the worker that holds them, batched per task).
        """
        by_task: Dict[int, List] = {}
        for entry in entries:
            record = entry.record
            if isinstance(record, RemoteRecord) and record.pending:
                by_task.setdefault(record.task_id, []).append(entry)
        for task_id, task_entries in by_task.items():
            indices = [entry.record.input_index for entry in task_entries]
            full = self._on_pool(lambda pool: pool.fetch(task_id, indices))
            for entry in task_entries:
                entry.record.apply_full(full[entry.record.input_index])

    def release(self, task_ids: Sequence[int]) -> None:
        pool = self._pool_instance
        if pool is not None and not pool._closed:
            pool.release(task_ids)

    def stats(self) -> Dict[str, object]:
        """Transport/scheduling counters mirrored into ``FuzzerReport``."""
        payload: Dict[str, object] = {
            "requested_workers": self.requested,
            "pooled": self.pooled,
            "tasks": self.tasks_dispatched,
            "pooled_tasks": self.pooled_tasks,
            "contract_tasks": self.contract_tasks_dispatched,
            "roundtrip_seconds": round(self.roundtrip_seconds, 6),
            "busy_seconds": round(self.busy_seconds, 6),
            "contract_busy_seconds": round(self.contract_busy_seconds, 6),
            "dispatches": list(self.dispatches),
        }
        if self.fallback_reason:
            payload["fallback_reason"] = self.fallback_reason
        pool = self._pool_instance
        if pool is not None:
            payload.update(
                sent_bytes=pool.sent_bytes,
                result_bytes=pool.result_bytes,
                fetch_bytes=pool.fetch_bytes,
                fetched_entries=pool.fetched_entries,
            )
        if self.faults:
            payload["faults"] = dict(self.faults)
        if self.force_kills:
            payload["force_kills"] = self.force_kills
        return payload


__all__ = [
    "SIM_CHUNKS_PER_ROUND",
    "chunk_classes",
    "CompactRecord",
    "ContractOutcome",
    "ContractRunner",
    "ContractSpec",
    "ContractTask",
    "DigestTrace",
    "ExecutorSpec",
    "FullRecord",
    "RemoteRecord",
    "SimWorkerPool",
    "SimulationRouter",
    "SimulationTask",
    "TaskOutcome",
    "dumps_oob",
    "get_pool",
    "loads_oob",
    "run_simulation_task",
    "shutdown_pool",
]
