"""Per-layer metrics of one traced pass.

Spans come from the coordinator and from every pooled campaign worker.
Time a span cannot see from outside comes from the figures the program
already returns: the simulation router's ``stats()`` in each report's
``parallel_sim`` block (worker busy time is ``TaskOutcome.busy_seconds()``)
and the specialization counters; ``FuzzerReport.phase_breakdown`` and
``time_breakdown`` are printed beside the spans.
"""

from __future__ import annotations

from typing import Dict, List

import tracer
from workloads import PassResult


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def merge_ledgers(coordinator: dict, workers: List[dict]) -> Dict[str, Dict[str, float]]:
    """Self seconds per layer and counters, summed over all processes."""
    busy = dict(tracer.self_times(coordinator["spans"]))
    counters = dict(coordinator["counters"])
    for ledger in workers:
        for name, seconds in tracer.self_times(ledger["spans"]).items():
            busy[name] = busy.get(name, 0.0) + seconds
        for name, value in ledger["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"busy": busy, "counters": counters}


def pool_utilisation(coordinator: dict, workers: List[dict], pool_size: int) -> float:
    """Worker time inside round work over worker capacity while pools ran."""
    pool_seconds = sum(
        end - start
        for name, start, end, _parent in coordinator["spans"]
        if name == "backends.process_pool"
    ) / 1e9
    working = 0.0
    for ledger in workers:
        # A worker ledger has one root span; its children are round work.
        spans = ledger["spans"]
        root_seconds = tracer.top_level_seconds(spans)
        working += root_seconds - tracer.self_times(spans)["backends.process_pool.worker"]
    return _ratio(working, pool_size * pool_seconds)


def layer_metrics(
    pass_result: PassResult,
    coordinator: dict,
    workers: List[dict],
    pool_size: int,
) -> Dict[str, float]:
    merged = merge_ledgers(coordinator, workers)
    busy, counters = merged["busy"], merged["counters"]
    wall = pass_result.campaign_seconds()
    untraced = wall - tracer.top_level_seconds(coordinator["spans"])
    layered = sum(
        seconds
        for name, seconds in tracer.self_times(coordinator["spans"]).items()
        if name not in tracer.ORCHESTRATION
    )

    specialization = pass_result.total("specialization")
    lookups = specialization["cache_hits"] + specialization["cache_misses"]
    shard = pass_result.total("shard")
    confirmed = sum(c.violations for c in pass_result.campaigns)

    return {
        "generator.boost.busy_s": busy.get("generator.boost", 0.0),
        "generator.boost.variants": counters.get("generator.boost.variants", 0),
        "generator.boost.empty_calls": counters.get("generator.boost.empty_calls", 0),
        "generator.inputs.busy_s": busy.get("generator.inputs", 0.0),
        "generator.inputs.inputs": counters.get("generator.inputs.inputs", 0),
        "generator.program.busy_s": busy.get("generator.program", 0.0),
        "feedback.mutate.busy_s": busy.get("feedback.mutate", 0.0),
        "model.busy_s": busy.get("model", 0.0),
        "model.traces": counters.get("model.traces", 0),
        "isa.specialized.compile_s": specialization["compile_seconds"],
        "isa.specialized.hit_rate": _ratio(specialization["cache_hits"], lookups),
        "core.scheduler.busy_s": busy.get("core.scheduler", 0.0),
        "core.scheduler.executed_share": _ratio(
            counters.get("core.scheduler.executed", 0),
            counters.get("core.scheduler.generated", 0),
        ),
        "executor.busy_s": busy.get("executor", 0.0),
        "executor.simulations": counters.get("executor.simulations", 0),
        "executor.insts_per_busy_s": _ratio(
            counters.get("executor.instructions", 0), busy.get("executor", 0.0)
        ),
        "executor.validate.busy_s": busy.get("executor.validate", 0.0),
        "executor.validate.confirmed_share": _ratio(
            confirmed, counters.get("core.detector.detected", 0)
        ),
        "core.detector.busy_s": busy.get("core.detector", 0.0),
        "core.analysis.busy_s": busy.get("core.analysis", 0.0),
        "core.fuzzer.busy_s": busy.get("core.fuzzer", 0.0),
        "feedback.coverage.busy_s": busy.get("feedback.coverage", 0.0),
        "feedback.coverage.new_features": counters.get("feedback.coverage.new_features", 0),
        "feedback.corpus.busy_s": busy.get("feedback.corpus", 0.0),
        "core.checkpoint.busy_s": busy.get("core.checkpoint", 0.0),
        "core.checkpoint.writes": counters.get("core.checkpoint.writes", 0),
        "core.checkpoint.bytes": counters.get("core.checkpoint.bytes", 0),
        "backends.process_pool.wait_s": busy.get("backends.process_pool", 0.0),
        "backends.process_pool.worker_utilisation": pool_utilisation(
            coordinator, workers, pool_size
        ),
        "backends.process_pool.respawns": pass_result.failed_rounds(),
        "backends.simshard.roundtrip_s": shard["roundtrip"],
        "backends.simshard.worker_busy_s": shard["busy"],
        # The program's own transport figure: per dispatch, round trip minus
        # worker busy time (booked as the "ipc" phase).
        "backends.simshard.transport_s": pass_result.total("phases").get("ipc", 0.0),
        "backends.simshard.bytes_per_result": _ratio(
            # Pool totals are running maxima per campaign; the last is the pass's.
            pass_result.campaigns[-1].shard["result_bytes"], shard["tasks"]
        ),
        "backends.simshard.fetched_entries": pass_result.campaigns[-1].shard["fetched_entries"],
        "untraced_s": untraced,
        "layer_share": _ratio(layered, wall),
    }
