"""The benchmark's workloads and the pass that runs one of them.

Each workload is a closed loop driven from one process: campaigns run one
after another through the public :class:`repro.core.campaign.Campaign` API,
each waiting for the previous one, with at most two worker processes.  A
*pass* runs the workload's campaigns 0, 1, 2, ... in turn, each derived
from the workload seed and its index; how many is fixed by the measured
time and the workload's nominal rate, not by the speed of the run.
"""

from __future__ import annotations

import dataclasses
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.campaign import Campaign, CampaignResult
from repro.core.config import FuzzerConfig
from repro.core.seeding import derive_instance_seed
from repro.feedback.strategy import GenerationStrategy
from repro.isa.specialized import clear_cache


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign of a pass: its configuration and how to run it."""

    config: FuzzerConfig
    instances: int
    #: Write a campaign checkpoint after every round.
    checkpoint: bool = False


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in ``BENCHMARK.json`` and README.md."""

    name: str
    #: ``campaign(seed, index)``: the index-th campaign of a pass.
    campaign: Callable[[int, int], CampaignSpec]
    #: Campaigns per second on the reference host: a run of ``seconds``
    #: measures a fixed budget of ``budget(seconds)`` campaigns, so two
    #: commits always measure the same work, whatever their speed.
    campaigns_per_second: float
    #: Start the worker pools the workload keeps across campaigns.
    prepare: Callable[[], None] = lambda: None
    #: Stop them again.
    teardown: Callable[[], None] = lambda: None

    def budget(self, seconds: float) -> range:
        return range(max(MIN_CAMPAIGNS, round(seconds * self.campaigns_per_second)))


#: Campaigns a pass runs at least, however short its time.
MIN_CAMPAIGNS = 2


def _stt_boosted(seed: int, index: int) -> CampaignSpec:
    return CampaignSpec(
        FuzzerConfig(defense="stt", programs_per_instance=2, seed=derive_instance_seed(seed, index)),
        instances=1,
    )


WIDE_DEFENSES = ("baseline", "invisispec", "cleanupspec", "speclfb")


def _wide_sim(seed: int, index: int) -> CampaignSpec:
    return CampaignSpec(
        FuzzerConfig(
            defense=WIDE_DEFENSES[index % len(WIDE_DEFENSES)],
            boost_factor=0,
            programs_per_instance=4,
            seed=derive_instance_seed(seed, index),
        ),
        instances=4,
    )


def _instances_feedback(seed: int, index: int) -> CampaignSpec:
    return CampaignSpec(
        FuzzerConfig(
            defense="invisispec",
            programs_per_instance=3,
            seed=derive_instance_seed(seed, index),
            backend="process",
            workers=2,
            strategy=GenerationStrategy.HYBRID,
            corpus_litmus=True,
        ),
        instances=4,
        checkpoint=True,
    )


SHARD_WORKERS = 2


def _sharded_sim(seed: int, index: int) -> CampaignSpec:
    return CampaignSpec(
        FuzzerConfig(
            defense="baseline",
            programs_per_instance=4,
            seed=derive_instance_seed(seed, index),
            sim_workers=SHARD_WORKERS,
        ),
        instances=4,
    )


def _start_sim_pool() -> None:
    from repro.backends.simshard import get_pool

    get_pool(SHARD_WORKERS)


def _stop_sim_pool() -> None:
    from repro.backends.simshard import shutdown_pool

    shutdown_pool()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "stt_boosted",
            _stt_boosted,
            campaigns_per_second=0.75,
        ),
        Workload(
            "wide_sim",
            _wide_sim,
            campaigns_per_second=1.6,
        ),
        Workload(
            "instances_feedback",
            _instances_feedback,
            campaigns_per_second=1.7,
        ),
        Workload(
            "sharded_sim",
            _sharded_sim,
            campaigns_per_second=1.35,
            prepare=_start_sim_pool,
            teardown=_stop_sim_pool,
        ),
    )
}


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


@dataclass
class CampaignSummary:
    """What the benchmark keeps of one campaign (its result is dropped).

    Campaigns are gated and summarized as they finish, so the coordinator's
    memory high-water mark is the program's, not a pile of kept results.
    """

    index: int
    seconds: float
    rounds: int
    test_cases: int
    #: ``CampaignResult.average_detection_seconds()`` (None: nothing found).
    detect_s: Optional[float]
    unique_violations: int
    violations: int
    signatures: List[str]
    #: Rounds lost or re-dispatched by worker supervision.
    failed: int
    problems: List[str]
    phases: Dict[str, float]
    wall_components: Dict[str, float]
    specialization: Dict[str, float]
    #: Router counters summed over fuzzers, pool transport counters (max).
    shard: Dict[str, float]


def summarize(index: int, spec: CampaignSpec, result: CampaignResult, seconds: float) -> CampaignSummary:
    import gate
    import tracer

    with tracer.paused():
        problems = gate.check_campaign(spec, result)
    faults = result.fault_summary()
    shard = {"roundtrip": 0.0, "busy": 0.0, "tasks": 0, "result_bytes": 0, "fetched_entries": 0}
    for report in result.reports:
        stats = report.parallel_sim
        if not stats:
            continue
        shard["roundtrip"] += stats.get("roundtrip_seconds", 0.0)
        shard["busy"] += stats.get("busy_seconds", 0.0) + stats.get("contract_busy_seconds", 0.0)
        shard["tasks"] += stats.get("tasks", 0) + stats.get("contract_tasks", 0)
        # The pool's running totals: one fresh pool per pass, so the
        # largest value seen is the pass total so far.
        for key in ("result_bytes", "fetched_entries"):
            shard[key] = max(shard[key], stats.get(key, 0))
    return CampaignSummary(
        index=index,
        seconds=seconds,
        rounds=result.rounds_completed,
        test_cases=result.total_test_cases_generated,
        detect_s=result.average_detection_seconds(),
        unique_violations=result.unique_violation_count(),
        violations=result.violation_count(),
        signatures=sorted({str(violation.signature) for violation in result.violations}),
        failed=sum(faults["counters"].values())
        + sum(len(lost) for lost in faults["lost_rounds"].values())
        + faults["force_kills"],
        problems=problems,
        phases=result.phase_breakdown()["seconds"],
        wall_components=result.time_breakdown()["wall_clock_seconds"],
        specialization=result.specialization_counters(),
        shard=shard,
    )


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the host runs now.

    The loop is the benchmark's own code (random numbers, scattered writes
    to a 256 KiB buffer, a small dict), so no change to the program can
    move it.  Run before each campaign, it tracks the speed of a shared
    host, which drifts by tens of percent over minutes.
    """
    started = time.perf_counter()
    rng = random.Random(1)
    buffer = bytearray(1 << 18)
    counts: Dict[int, int] = {}
    for step in range(50000):
        buffer[(step * 4099) & 0x3FFFF] = rng.getrandbits(8)
        counts[step & 1023] = counts.get(step & 1023, 0) + step
    return time.perf_counter() - started


#: ``host_probe()`` seconds on the reference host (2-vCPU Xeon VM, 2.0 GHz).
REFERENCE_PROBE_SECONDS = 0.02


@dataclass
class PassResult:
    campaigns: List[CampaignSummary] = field(default_factory=list)
    #: ``host_probe()`` seconds, one before each campaign.
    probes: List[float] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return sum(c.rounds for c in self.campaigns)

    @property
    def test_cases(self) -> int:
        return sum(c.test_cases for c in self.campaigns)

    def campaign_seconds(self) -> float:
        """Host seconds inside the campaigns (the gate runs between them)."""
        return sum(c.seconds for c in self.campaigns)

    def tc_per_s(self) -> float:
        return self.test_cases / self.campaign_seconds()

    def tc_per_ref_s(self) -> float:
        """``tc_per_s`` scaled to the reference host's speed by the probes."""
        return self.tc_per_s() * statistics.mean(self.probes) / REFERENCE_PROBE_SECONDS

    def detect_s(self) -> Optional[float]:
        """Median over detecting campaigns of their average detection time."""
        values = [c.detect_s for c in self.campaigns if c.detect_s is not None]
        return statistics.median(values) if values else None

    def unique_violations(self) -> int:
        return sum(c.unique_violations for c in self.campaigns)

    def failed_rounds(self) -> int:
        return sum(c.failed for c in self.campaigns)

    def signatures(self) -> Dict[int, List[str]]:
        return {c.index: c.signatures for c in self.campaigns}

    def problems(self) -> List[str]:
        return [f"campaign {c.index}: {p}" for c in self.campaigns for p in c.problems]

    def total(self, field_name: str) -> Dict[str, float]:
        """Sum a per-campaign ``{name: value}`` field over the pass."""
        totals: Dict[str, float] = {}
        for campaign in self.campaigns:
            for name, value in getattr(campaign, field_name).items():
                totals[name] = totals.get(name, 0) + value
        return totals


def run_pass(
    workload: Workload,
    seed: int,
    scratch_dir: str,
    indices: Iterable[int],
) -> PassResult:
    """Run the campaigns ``indices`` at ``seed``, one after another.

    Every pass starts cold, as a fresh campaign would: the process-wide
    specialization cache is emptied, and the workload's pools are started
    before the first campaign and stopped after the last.
    """
    clear_cache()
    result = PassResult()
    workload.prepare()
    try:
        for index in indices:
            result.probes.append(host_probe())
            result.campaigns.append(run_campaign(workload, seed, index, scratch_dir))
    finally:
        workload.teardown()
    return result


def run_campaign(workload: Workload, seed: int, index: int, scratch_dir: str) -> CampaignSummary:
    spec = workload.campaign(seed, index)
    kwargs = {}
    if spec.checkpoint:
        path = os.path.join(scratch_dir, f"{workload.name}-checkpoint.json")
        if os.path.exists(path):
            os.remove(path)
        kwargs = {"checkpoint_path": path, "checkpoint_every": 1}
    started = time.perf_counter()
    result = Campaign(spec.config, instances=spec.instances).run(**kwargs)
    return summarize(index, spec, result, time.perf_counter() - started)


def with_config(spec: CampaignSpec, **changes) -> CampaignSpec:
    return dataclasses.replace(spec, config=dataclasses.replace(spec.config, **changes))
