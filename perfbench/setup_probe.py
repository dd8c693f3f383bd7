"""Set-up time probe, run as its own process by ``run.py``.

    python3 perfbench/setup_probe.py WORKLOAD SEED STAMP_FILE

Imports the program, builds the workload's first campaign (registry
discovery, fuzzer and corpus construction, litmus seeding, pool spawn) and
writes ``time.monotonic()`` to STAMP_FILE when the first round starts, in
whichever process that is.  The caller subtracts the time it started this
process.  Only the first round matters, so the coordinator stops there.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _FirstRound(Exception):
    pass


def main() -> int:
    name, seed, stamp = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from repro.core.campaign import Campaign
    from repro.core.fuzzer import AmuletFuzzer

    coordinator = os.getpid()
    original = AmuletFuzzer.run_round

    def run_round(self, *args, **kwargs):
        now = time.monotonic()
        try:
            handle = os.open(stamp, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            pass
        else:
            os.write(handle, repr(now).encode())
            os.close(handle)
        if os.getpid() == coordinator:
            raise _FirstRound()
        return original(self, *args, **kwargs)

    AmuletFuzzer.run_round = run_round
    workload = workloads.WORKLOADS[name]
    workload.prepare()
    try:
        spec = workloads.with_config(workload.campaign(seed, 0), programs_per_instance=1)
        kwargs = {}
        if spec.checkpoint:
            kwargs = {"checkpoint_path": stamp + ".checkpoint.json", "checkpoint_every": 1}
        Campaign(spec.config, instances=spec.instances).run(**kwargs)
    except _FirstRound:
        pass
    finally:
        workload.teardown()
    return 0 if os.path.exists(stamp) else 1


if __name__ == "__main__":
    sys.exit(main())
