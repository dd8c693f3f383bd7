"""External span tracer: wraps the public entry points of ``src/repro``.

The benchmark records spans from its own files, around the calls into each
layer, without touching the program.  :func:`install` replaces each target
(a method on a class, or a module-level function together with every
``from ... import name`` alias of it in the loaded ``repro`` modules) with a
wrapper that records ``(name, start_ns, end_ns, parent)`` and, for some
targets, counts work done.  :func:`restore` puts every original back.

A layer's *self time* is its span time minus the time of its direct child
spans.  Calls are synchronous, so spans nest strictly within one process and
self times plus the time no span covers add up to the traced wall time.

Pooled campaign workers are forked, so they inherit the wrappers; the
worker entry point itself is wrapped so that each worker starts with an
empty ledger and writes it to a file when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Spans whose self time is round orchestration, not a pipeline layer.
ORCHESTRATION = ("core.campaign", "backends.inline", "core.fuzzer")


class Tracer:
    """In-memory span and counter ledger of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Wrappers record nothing while False (see :func:`paused`).
        self.enabled = True
        #: ``[name, start_ns, end_ns, parent_index]`` per span, in open order.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def to_json(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


TRACER = Tracer()


@contextlib.contextmanager
def paused():
    """Run the benchmark's own checks without recording them."""
    previous, TRACER.enabled = TRACER.enabled, False
    try:
        yield
    finally:
        TRACER.enabled = previous


def self_times(spans: List[list]) -> Dict[str, float]:
    """Seconds of self time per span name (span minus its direct children)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: Dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start - child_ns[index]) / 1e9
    return totals


def top_level_seconds(spans: List[list]) -> float:
    """Seconds covered by spans that have no parent."""
    return sum(end - start for _name, start, end, parent in spans if parent < 0) / 1e9


# ---------------------------------------------------------------------------
# counters taken from a wrapped call's arguments and result
# ---------------------------------------------------------------------------


def _count_boost(tracer, args, kwargs, result) -> None:
    tracer.count("generator.boost.variants", len(result))
    count = kwargs.get("count", args[3] if len(args) > 3 else 1)
    if count == 0:
        tracer.count("generator.boost.empty_calls")


def _count_inputs(tracer, args, kwargs, result) -> None:
    tracer.count("generator.inputs.inputs")


def _count_model_run(tracer, args, kwargs, result) -> None:
    tracer.count("model.traces")


def _count_plan(tracer, args, kwargs, result) -> None:
    tracer.count("core.scheduler.generated", result.generated)
    tracer.count("core.scheduler.executed", result.executed)


def _count_batch(tracer, args, kwargs, result) -> None:
    tracer.count("executor.simulations", len(result))
    tracer.count(
        "executor.instructions",
        sum(record.result.instructions_committed for record in result),
    )


def _count_validate(tracer, args, kwargs, result) -> None:
    tracer.count("executor.validate.pairs")


def _count_detect(tracer, args, kwargs, result) -> None:
    tracer.count("core.detector.detected", len(result))


def _count_coverage(tracer, args, kwargs, result) -> None:
    tracer.count("feedback.coverage.new_features", result.new_features)


def _count_checkpoint_write(tracer, args, kwargs, result) -> None:
    tracer.count("core.checkpoint.writes")
    tracer.count("core.checkpoint.bytes", os.path.getsize(result))


#: (layer, module, attribute path, counter hook).  Attribute paths name a
#: class method ("Class.method") or a module-level function ("function").
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("core.campaign", "repro.core.campaign", "Campaign.run", None),
    ("backends.inline", "repro.backends.inline", "InlineBackend.run", None),
    ("backends.process_pool", "repro.backends.process_pool", "ProcessPoolBackend.run", None),
    ("core.fuzzer", "repro.core.fuzzer", "AmuletFuzzer.run_round", None),
    ("core.fuzzer.build", "repro.core.fuzzer", "AmuletFuzzer.__init__", None),
    ("core.checkpoint", "repro.core.fuzzer", "AmuletFuzzer.state_dict", None),
    ("core.checkpoint", "repro.core.checkpoint", "CheckpointManager.record_state", None),
    ("core.checkpoint", "repro.core.checkpoint", "CheckpointManager.save", _count_checkpoint_write),
    ("generator.program", "repro.generator.program_generator", "ProgramGenerator.generate", None),
    ("generator.inputs", "repro.generator.inputs", "InputGenerator.generate_at", _count_inputs),
    ("generator.boost", "repro.generator.inputs", "InputGenerator.mutate_preserving", _count_boost),
    ("feedback.strategy", "repro.feedback.strategy", "FeedbackProgramSource.next_program", None),
    ("feedback.strategy", "repro.feedback.strategy", "FeedbackProgramSource.record_feedback", None),
    ("feedback.mutate", "repro.feedback.mutate", "ProgramMutator.mutate", None),
    ("feedback.mutate", "repro.feedback.mutate", "mutate_input_pair", None),
    ("feedback.corpus", "repro.feedback.corpus", "Corpus.select", None),
    ("feedback.corpus", "repro.feedback.corpus", "Corpus.add_program", None),
    ("feedback.corpus", "repro.feedback.corpus", "Corpus.reward", None),
    ("feedback.corpus", "repro.feedback.corpus", "Corpus.seed_from_litmus", None),
    ("feedback.corpus", "repro.feedback.corpus", "Corpus.entries", None),
    ("feedback.coverage", "repro.feedback.coverage", "CoverageTracker.observe_round", _count_coverage),
    ("model", "repro.model.emulator", "Emulator.__init__", None),
    ("model", "repro.model.emulator", "Emulator.run", _count_model_run),
    ("model", "repro.model.emulator", "Emulator.collect_traces_batch", None),
    ("core.scheduler", "repro.core.scheduler", "ExecutionScheduler.plan", _count_plan),
    ("executor", "repro.executor.executor", "SimulatorExecutor.__init__", None),
    ("executor", "repro.executor.executor", "SimulatorExecutor.load_program", None),
    ("executor", "repro.executor.executor", "SimulatorExecutor.run_batch", _count_batch),
    ("executor.validate", "repro.executor.executor", "SimulatorExecutor.run_pair_with_shared_context", _count_validate),
    ("core.detector", "repro.core.detector", "ViolationDetector.detect", _count_detect),
    ("core.analysis", "repro.core.analysis", "compute_signature", None),
    ("backends.simshard", "repro.backends.simshard", "SimulationRouter.map", None),
    ("backends.simshard", "repro.backends.simshard", "SimulationRouter.map_contract", None),
    ("backends.simshard", "repro.backends.simshard", "SimulationRouter.materialize_entries", None),
)


def _wrap(name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _worker_wrapper(fn: Callable, out_dir: str) -> Callable:
    """Pool worker entry: fresh ledger in the child, written out at exit."""

    @functools.wraps(fn)
    def worker_main(*args, **kwargs):
        TRACER.reset()
        index = TRACER.open("backends.process_pool.worker")
        try:
            return fn(*args, **kwargs)
        finally:
            TRACER.close(index)
            path = os.path.join(out_dir, f"worker-{os.getpid()}-{time.perf_counter_ns()}.json")
            with open(path, "w") as handle:
                json.dump(TRACER.to_json(), handle)

    worker_main.__perfbench_original__ = fn
    return worker_main


#: Undo log of installed patches: (owner object, attribute, original value).
_PATCHES: List[Tuple[object, str, object]] = []


def _patch(owner: object, attribute: str, value: object) -> None:
    _PATCHES.append((owner, attribute, owner.__dict__[attribute]))
    setattr(owner, attribute, value)


def install(worker_dir: str) -> None:
    """Wrap every target and the pool worker entry point (once; see restore)."""
    if _PATCHES:
        raise RuntimeError("tracer wrappers are already installed")
    TRACER.reset()
    for layer, module_name, path, hook in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            _patch(owner, attribute, _wrap(layer, owner.__dict__[attribute], hook))
            continue
        original = getattr(module, path)
        wrapper = _wrap(layer, original, hook)
        # Patch the defining module and every module that imported the name.
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.split(".")[0] != "repro" or loaded is None:
                continue
            if loaded.__dict__.get(path) is original:
                _patch(loaded, path, wrapper)
    from repro.backends import process_pool

    _patch(
        process_pool,
        "_worker_main",
        _worker_wrapper(process_pool.__dict__["_worker_main"], worker_dir),
    )


def restore() -> None:
    """Put every original back, newest patch first.

    A module imported while the wrappers were installed may have bound a
    wrapped function by name; those references are unwrapped too.
    """
    while _PATCHES:
        owner, attribute, original = _PATCHES.pop()
        setattr(owner, attribute, original)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for attribute, value in list(module.__dict__.items()):
            original = getattr(value, "__perfbench_original__", None)
            if original is not None:
                setattr(module, attribute, original)


def load_worker_ledgers(worker_dir: str) -> List[dict]:
    ledgers = []
    for name in sorted(os.listdir(worker_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            with open(os.path.join(worker_dir, name)) as handle:
                ledgers.append(json.load(handle))
    return ledgers
