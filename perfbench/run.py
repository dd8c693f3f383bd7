"""Repository benchmark: campaign workloads measured end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 16] [--trace 0|1]

Run from the root of a checkout (the program is imported from ``src/``).
``--trace 0`` runs the workload's campaigns at the seed for a budget of
about ``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced pass of half that budget each and prints the
per-layer metrics.  Every campaign goes through the correctness gate.
Human-readable detail goes to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Campaigns with violations that the gate repeats at the same seed.
REPEAT_CAMPAIGNS = 2
#: Set-up probes per measured run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Pool workers of the process-pool workload (one per CPU of the reference box).
POOL_WORKERS = 2

END_TO_END_UNITS = {
    "tc_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "clean_share": "ratio",
}

PER_LAYER_UNITS = {
    "generator.boost.busy_s": "s",
    "generator.boost.variants": "count",
    "generator.boost.empty_calls": "count",
    "generator.inputs.busy_s": "s",
    "generator.inputs.inputs": "count",
    "generator.program.busy_s": "s",
    "feedback.mutate.busy_s": "s",
    "model.busy_s": "s",
    "model.traces": "count",
    "isa.specialized.compile_s": "s",
    "isa.specialized.hit_rate": "ratio",
    "core.scheduler.busy_s": "s",
    "core.scheduler.executed_share": "ratio",
    "executor.busy_s": "s",
    "executor.simulations": "count",
    "executor.insts_per_busy_s": "1/s",
    "executor.validate.busy_s": "s",
    "executor.validate.confirmed_share": "ratio",
    "core.detector.busy_s": "s",
    "core.analysis.busy_s": "s",
    "core.fuzzer.busy_s": "s",
    "feedback.coverage.busy_s": "s",
    "feedback.coverage.new_features": "count",
    "feedback.corpus.busy_s": "s",
    "core.checkpoint.busy_s": "s",
    "core.checkpoint.writes": "count",
    "core.checkpoint.bytes": "B",
    "backends.process_pool.wait_s": "s",
    "backends.process_pool.worker_utilisation": "ratio",
    "backends.process_pool.respawns": "count",
    "backends.simshard.roundtrip_s": "s",
    "backends.simshard.worker_busy_s": "s",
    "backends.simshard.transport_s": "s",
    "backends.simshard.bytes_per_result": "B",
    "backends.simshard.fetched_entries": "count",
    "untraced_s": "s",
    "layer_share": "ratio",
    "failed_share": "ratio",
    "detect_s": "s",
    "unique_violations": "count",
    "trace_overhead_share": "ratio",
}


def fingerprint(workload: str, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "start_method": multiprocessing.get_start_method(),
        "workload": workload,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Coordinator high-water mark plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_samples(workload: str, seed: int, scratch: str) -> list:
    """Seconds from process start to the first round, one probe process each."""
    samples = []
    for index in range(SETUP_SAMPLES):
        stamp = os.path.join(scratch, f"setup-{index}.stamp")
        started = time.monotonic()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), stamp],
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        with open(stamp) as handle:
            samples.append(float(handle.read()) - started)
    return samples


def warm_up(workload, seed: int, scratch: str) -> None:
    """One untimed campaign first: lazy one-time work of the process
    (registry discovery, first imports) belongs to ``setup_s``, not to the
    first measured campaign."""
    from workloads import run_pass

    run_pass(workload, seed, scratch, [0])


def repeat_check(workload, seed: int, scratch: str, measured) -> list:
    """Re-run campaigns that found violations at the same seed, untimed.

    They must find the same signatures.  For ``sharded_sim`` the repeat runs
    with ``sim_workers=0`` (sharded but inline), which must answer alike.
    """
    import gate
    from workloads import run_pass, with_config

    indices = [c.index for c in measured.campaigns if c.violations][:REPEAT_CAMPAIGNS]
    label, repeat = "repeat at the same seed", workload
    if workload.name == "sharded_sim":
        label = "sim_workers=0 repeat"
        repeat = dataclasses.replace(
            workload,
            campaign=lambda s, i: with_config(workload.campaign(s, i), sim_workers=0),
            prepare=lambda: None,
            teardown=lambda: None,
        )
    repeated = run_pass(repeat, seed, scratch, indices or [0])
    return repeated.problems() + gate.check_same_answer(
        measured.signatures(), repeated.signatures(), label
    )


def measure(workload, seed: int, seconds: float, scratch: str) -> tuple:
    """One pass of the ``seconds`` budget; gate it; end-to-end metrics."""
    from workloads import run_pass

    warm_up(workload, seed, scratch)
    measured = run_pass(workload, seed, scratch, workload.budget(seconds))
    rss = peak_rss_mb()
    problems = measured.problems() + repeat_check(workload, seed, scratch, measured)
    setup = setup_samples(workload.name, seed, scratch)
    metrics = {
        "tc_per_ref_s": measured.tc_per_ref_s(),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "clean_share": 1.0 - measured.failed_rounds() / measured.rounds,
    }
    detail = outcome_detail(measured)
    detail["setup_s_samples"] = setup
    return metrics, detail, problems, measured.rounds, measured.failed_rounds()


def outcome_detail(measured) -> dict:
    return {
        "tc_per_s": measured.tc_per_s(),
        "host_probe_s": statistics.mean(measured.probes),
        "campaigns": len(measured.campaigns),
        "rounds": measured.rounds,
        "test_cases": measured.test_cases,
        "campaign_seconds": measured.campaign_seconds(),
        "violations": sum(c.violations for c in measured.campaigns),
        "detect_s": measured.detect_s(),
        "detecting_campaigns": sum(1 for c in measured.campaigns if c.detect_s is not None),
        "unique_violations": measured.unique_violations(),
    }


def measure_traced(workload, seed: int, seconds: float, scratch: str) -> tuple:
    """An untraced and a traced pass of the same budget, half the time each;
    per-layer metrics from the traced one."""
    import gate
    import layers
    import tracer
    from workloads import run_pass

    worker_dir = os.path.join(scratch, "workers")
    os.makedirs(worker_dir, exist_ok=True)
    budget = workload.budget(seconds / 2)
    warm_up(workload, seed, scratch)
    untraced = run_pass(workload, seed, scratch, budget)
    tracer.install(worker_dir)
    try:
        traced = run_pass(workload, seed, scratch, budget)
    finally:
        tracer.restore()
    coordinator = tracer.TRACER.to_json()
    workers = tracer.load_worker_ledgers(worker_dir)

    problems = untraced.problems() + traced.problems()
    problems += gate.check_same_answer(untraced.signatures(), traced.signatures(), "traced pass")
    if workload.name == "sharded_sim":
        problems += repeat_check(workload, seed, scratch, untraced)
    metrics = layers.layer_metrics(traced, coordinator, workers, POOL_WORKERS)
    attempted = untraced.rounds + traced.rounds
    failed = untraced.failed_rounds() + traced.failed_rounds()
    metrics["failed_share"] = failed / attempted
    metrics["detect_s"] = untraced.detect_s() or 0.0
    metrics["unique_violations"] = untraced.unique_violations()
    metrics["trace_overhead_share"] = untraced.tc_per_s() / traced.tc_per_s() - 1.0

    detail = outcome_detail(untraced)
    detail.update(
        {
            "wall_s": traced.campaign_seconds(),
            "tc_per_s_untraced": untraced.tc_per_s(),
            "tc_per_s_traced": traced.tc_per_s(),
            "coordinator_self_s": tracer.self_times(coordinator["spans"]),
            "worker_self_s": layers.merge_ledgers({"spans": [], "counters": {}}, workers)["busy"],
            "span_counters": layers.merge_ledgers(coordinator, workers)["counters"],
            "worker_processes": len(workers),
            "program_phase_breakdown_s": traced.total("phases"),
            "program_time_breakdown_wall_s": traced.total("wall_components"),
        }
    )
    return metrics, detail, problems, attempted, failed


def print_traced_table(detail: dict) -> None:
    wall = detail["wall_s"]
    coordinator, workers = detail["coordinator_self_s"], detail["worker_self_s"]
    print(f"traced pass: {wall:.3f} s campaign wall time; self seconds per span")
    print(f"  {'span':34s} {'coordinator':>11s} {'% of wall':>9s} {'workers':>9s}")
    for name in sorted(
        set(coordinator) | set(workers),
        key=lambda n: -(coordinator.get(n, 0.0) + workers.get(n, 0.0)),
    ):
        seconds = coordinator.get(name, 0.0)
        print(
            f"  {name:34s} {seconds:11.4f} {100 * seconds / wall:9.1f} "
            f"{workers.get(name, 0.0):9.4f}"
        )
    print("program's own phase_breakdown (seconds):")
    for name, seconds in detail["program_phase_breakdown_s"].items():
        print(f"  {name:34s} {seconds:11.4f}")
    print("program's own time_breakdown wall_clock_seconds:")
    for name, seconds in detail["program_time_breakdown_wall_s"].items():
        print(f"  {name:34s} {seconds:11.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.trace:
            metrics, detail, problems, attempted, failed = measure_traced(
                workload, args.seed, args.seconds, scratch
            )
            units = PER_LAYER_UNITS
            print_traced_table(detail)
        else:
            metrics, detail, problems, attempted, failed = measure(
                workload, args.seed, args.seconds, scratch
            )
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print(f"correctness: {problem}")
    detail["fingerprint"] = fingerprint(workload.name, args.seed)
    print(json.dumps({"detail": detail}, default=str))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
