"""Worker supervision shared by both worker pools.

:class:`~repro.backends.process_pool.ProcessPoolBackend` (campaign rounds)
and :class:`~repro.backends.simshard.SimWorkerPool` (round shards) supervise
their worker processes the same way, through one primitive:

* a :class:`WorkerSlot` is one worker position.  Each incarnation of its
  process carries a **generation** tag, so the coordinator can tell live
  messages from a replaced incarnation's stragglers, and deterministic
  fault injection can target one incarnation (a fault matched on
  ``generation: 0`` fires once and lets the respawn replay cleanly);
* :func:`supervise` is the idle tick both pools run while their result
  queue is quiet.  A slot that owes work is lost when its process died, or
  when it stayed silent past the deadline (it is then force-killed).  The
  messages it flushed before dying are drained first; only work still owed
  after the drain is handed to the pool's loss handler;
* :meth:`WorkerSlot.respawn` starts a new incarnation after an exponential
  backoff, or disables the slot once its retry budget is spent;
* :meth:`WorkerSlot.stop` joins the process and terminates it if it will
  not exit.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Optional

#: How long a coordinator waits on its result queue before an idle tick
#: re-checks worker liveness (a crashed worker must not deadlock it).
POLL_SECONDS = 0.25


class WorkerSlot:
    """One supervised worker position: its process, incarnation and retries.

    ``start(slot)`` creates and starts the process of the slot's current
    generation and returns it.
    """

    def __init__(self, index: int, start: Callable[["WorkerSlot"], Any]) -> None:
        self.index = index
        self._start = start
        self.process = None
        self.generation = -1
        self.retries = 0
        self.last_activity = 0.0
        self.disabled = False

    def spawn(self) -> None:
        """Start the next incarnation."""
        self.generation += 1
        self.process = self._start(self)
        self.touch()

    def touch(self) -> None:
        """Record activity: the deadline counts from the last sign of life."""
        self.last_activity = time.monotonic()

    def lost(self, deadline: Optional[float]) -> Optional[str]:
        """``"worker_death"``, ``"deadline"`` (force-killed now), or None."""
        if not self.process.is_alive():
            return "worker_death"
        if deadline is not None and time.monotonic() - self.last_activity > deadline:
            self.process.kill()
            self.process.join(timeout=5)
            return "deadline"
        return None

    def respawn(self, max_retries: int, backoff_seconds: float, give_up: bool = False) -> bool:
        """After a loss: respawn after a backoff (True), or disable (False)."""
        self.retries += 1
        if give_up or self.retries > max_retries:
            self.disabled = True
            return False
        time.sleep(backoff_seconds * (2 ** (self.retries - 1)))
        self.spawn()
        return True

    def stop(self) -> bool:
        """Join the process; terminate it if it will not exit (True then)."""
        if self.process is None:
            return False
        self.process.join(timeout=10)
        if not self.process.is_alive():
            return False
        # Last resort: the worker ignored its stop request.
        self.process.terminate()
        self.process.join(timeout=5)
        return True


def supervise(
    slots: Iterable[WorkerSlot],
    deadline: Optional[float],
    owes_work: Callable[[WorkerSlot], bool],
    drain: Callable[[], None],
    on_loss: Callable[[WorkerSlot, str], None],
) -> int:
    """One idle tick over ``slots``; returns how many workers it force-killed.

    ``owes_work(slot)`` tells whether the slot's current incarnation still
    owes results; ``drain()`` handles every message already queued; a slot
    that still owes work after the drain goes to ``on_loss(slot, reason)``.
    """
    force_kills = 0
    for slot in slots:
        if slot.disabled or not owes_work(slot):
            continue
        reason = slot.lost(deadline)
        if reason is None:
            continue
        force_kills += reason == "deadline"
        drain()
        if owes_work(slot):
            on_loss(slot, reason)
    return force_kills
