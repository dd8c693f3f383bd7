"""The campaign execution backend interface.

A campaign is a set of independent fuzzing instances, each a deterministic
stream of *rounds* (one generated program tested against one defense).  A
backend decides how those rounds are scheduled onto compute: inline on the
calling thread, across a persistent process pool, or — in the future — across
machines.  The contract every backend honours:

* each instance's rounds execute **in order** against one persistent
  :class:`~repro.core.fuzzer.AmuletFuzzer`, so per-instance results are
  bit-identical to running that instance alone with the same seed;
* every completed round is streamed to the caller's ``on_round`` callback as
  soon as it exists (no waiting for whole instances);
* when ``stop_on_violation`` is set, the first confirmed violation cancels
  all outstanding work across **all** instances, not just the one that found
  it;
* ``run`` returns one :class:`~repro.core.fuzzer.FuzzerReport` per instance,
  in instance order, reflecting exactly the rounds that actually executed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.config import FuzzerConfig, resolve_contract_name
from repro.core.fuzzer import FuzzerReport, RoundResult


@dataclass(frozen=True)
class CampaignPlan:
    """Everything a backend needs to execute one campaign."""

    #: Per-instance configurations, seeds already derived (index == instance).
    configs: Tuple[FuzzerConfig, ...]
    #: Cancel all outstanding work campaign-wide at the first violation.
    stop_on_violation: bool = False
    #: Per-instance resume snapshots (:meth:`AmuletFuzzer.state_dict`
    #: payloads), aligned with ``configs``; ``None`` entries (and a plan
    #: with no states at all) start fresh.  Backends restore each instance
    #: from its snapshot before running rounds, so a resumed campaign
    #: continues the deterministic stream exactly where it stopped.
    initial_states: Tuple[Optional[dict], ...] = ()

    @property
    def instances(self) -> int:
        return len(self.configs)

    @property
    def scheduled_programs(self) -> int:
        """Total rounds the plan would execute if nothing stops early."""
        return sum(config.programs_per_instance for config in self.configs)

    def initial_state(self, instance_index: int) -> Optional[dict]:
        """Resume snapshot for one instance (None: start fresh)."""
        if instance_index < len(self.initial_states):
            return self.initial_states[instance_index]
        return None


#: Streaming callback: ``on_round(instance_index, round_result)``.
RoundCallback = Callable[[int, RoundResult], None]

#: Snapshot callback: ``on_state(instance_index, state_dict)``.  Backends
#: invoke it with a fresh :meth:`AmuletFuzzer.state_dict` snapshot at state
#: boundaries (periodically, when an instance finishes, and when a stop
#: drains); checkpoint writers fold the latest snapshots into the
#: campaign checkpoint.
StateCallback = Callable[[int, dict], None]


class ExecutionBackend(ABC):
    """Schedules a campaign's rounds onto compute and streams results back."""

    #: Registry key and the name reported in campaign summaries.
    name: str = "abstract"

    #: Worker processes this backend had to force-kill during its last
    #: ``run`` (teardown ``terminate()`` after an unanswered ``join``, or a
    #: deadline overrun).  Zero on a healthy run; campaign summaries surface
    #: the counter so shutdown raciness is visible instead of silent.
    force_kills: int = 0

    @abstractmethod
    def run(
        self,
        plan: CampaignPlan,
        on_round: Optional[RoundCallback] = None,
        on_state: Optional["StateCallback"] = None,
        stop_event: Optional[Any] = None,
        state_interval: int = 10,
    ) -> List[FuzzerReport]:
        """Execute ``plan``; stream rounds to ``on_round``; return per-instance reports.

        ``on_state`` (optional) receives periodic resume snapshots per
        instance; ``stop_event`` (a ``threading.Event``-like object,
        optional) requests a graceful stop: in-flight rounds drain, final
        snapshots flush, and partial reports are returned.
        """

    def map_items(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Any]:
        """Apply ``fn`` to independent work items, results in item order.

        Campaign-adjacent fan-out (violation triage) reuses the backend
        abstraction: items are self-contained and order-independent, so the
        result list is identical whatever the scheduling.  The base
        implementation runs sequentially on the calling thread; pooled
        backends override it (``fn`` and every item must then be picklable).
        """
        return [fn(item) for item in items]

    @staticmethod
    def empty_report(config: FuzzerConfig) -> FuzzerReport:
        """Report for an instance whose work was cancelled before it started."""
        from repro.feedback.strategy import GenerationStrategy

        return FuzzerReport(
            defense=config.defense,
            contract=resolve_contract_name(config),
            strategy=GenerationStrategy(config.strategy).value,
        )
