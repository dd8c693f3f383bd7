"""Campaign checkpointing: atomic snapshots a killed campaign resumes from.

A checkpoint (``format: amulet-checkpoint-v1``) captures one campaign
mid-flight: the resume snapshot of every instance
(:meth:`~repro.core.fuzzer.AmuletFuzzer.state_dict` payloads — generator
counters, coverage bitmap, corpus with exact energies, the pickled report),
plus a fingerprint of the determinism-relevant campaign configuration so a
checkpoint can never silently resume a *different* campaign.

Because all instance randomness is counter-addressed, resuming from a
checkpoint continues the exact round stream: the final campaign JSON of a
killed-and-resumed run is identical (violations, signatures, coverage,
corpus) to the same campaign run uninterrupted — the property
``tests/test_fault_tolerance.py`` asserts.

Layout and cost.  The file is one compact JSON object (no indentation):
a small header (format, fingerprint, instance count, rounds completed,
``interrupted``) followed by ``"states"``, one snapshot per instance (or
``null``).  Each snapshot holds the corpus once: the pickled report leaves
out its coverage bitmap and corpus entries, which
:func:`~repro.core.fuzzer.report_from_state` refills from the snapshot's
own ``coverage`` and ``corpus_entries``.  :class:`CheckpointManager`
encodes a snapshot exactly once, with the C JSON encoder, when it arrives;
a write encodes only the header and streams it together with the cached
per-instance texts, so a write costs the bytes on disk, not a re-encode of
every instance.  Older indented files, and older snapshots whose report
still carries both copies, load and resume the same way.

Writes go through :func:`repro.core.io.atomic_write_chunks` (stage +
rename), so a crash mid-write leaves the previous checkpoint intact, never
a truncated one.  Loading damage raises a ``ValueError`` naming the file
and byte offset; ``--resume-fresh`` downgrades that to a warning and a
fresh start.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from typing import Dict, Iterator, List, Optional

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import AmuletFuzzer, FuzzerReport, report_from_state
from repro.core.io import atomic_write_chunks, load_json

CHECKPOINT_FORMAT = "amulet-checkpoint-v1"

#: Config fields that do not affect campaign *results* (scheduling and
#: supervision knobs; results are backend- and ``sim_workers``-independent
#: by contract), excluded from the fingerprint so a checkpoint taken under
#: ``--backend pool`` can be resumed inline, with different (simulation)
#: worker counts, or with different retry budgets.
_EXECUTION_ONLY_FIELDS = (
    "backend",
    "workers",
    "chunk_size",
    "map_chunksize",
    "sim_workers",
    "max_retries",
    "retry_backoff_seconds",
    "task_timeout_seconds",
)


def campaign_fingerprint(config: FuzzerConfig, instances: int) -> str:
    """Digest of the determinism-relevant campaign configuration."""
    payload = dataclasses.asdict(config)
    for name in _EXECUTION_ONLY_FIELDS:
        payload.pop(name, None)
    payload["instances"] = instances
    # The removed ``specialize`` knob (always True by default) stays in the
    # digest so checkpoints written before its removal still resume.
    payload["specialize"] = True
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


class CheckpointManager:
    """Accumulates instance snapshots and persists them atomically.

    Backends stream ``(instance_index, state_dict)`` snapshots through
    :meth:`record_state`; the manager encodes each one once, on arrival,
    keeps the latest encoding per instance, and rewrites the checkpoint file
    whenever at least ``interval`` new rounds landed since the last write
    (and from :meth:`save_final`, unless that would rewrite identical
    contents).
    """

    def __init__(
        self,
        path: str,
        config: FuzzerConfig,
        instances: int,
        interval: int = 10,
    ) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be at least 1 round")
        self.path = path
        self.fingerprint = campaign_fingerprint(config, instances)
        self.instances = instances
        self.interval = interval
        #: Latest snapshot per instance as compact JSON text (None: none
        #: yet), plus its ``programs_tested``, so no state dict is kept.
        self._encoded: List[Optional[str]] = [None] * instances
        self._programs_tested: List[int] = [0] * instances
        #: The states a resume loaded (reports for :meth:`initial_reports`).
        self._loaded: List[Optional[dict]] = [None] * instances
        self._rounds_at_last_write = -1
        #: ``interrupted`` flag of the file on disk (None: not written yet),
        #: and whether a snapshot arrived since it was written.
        self._written_interrupted: Optional[bool] = None
        self._dirty = False

    # -- loading ----------------------------------------------------------------
    def load(self, resume_fresh: bool = False) -> Optional[List[Optional[dict]]]:
        """Load resume states from ``self.path`` (None: start fresh).

        A corrupt file or a fingerprint mismatch raises ``ValueError``;
        ``resume_fresh`` downgrades either to a warning on stderr and a
        fresh start.  Loaded states also seed this manager, so the first
        post-resume write preserves instances that have not streamed a new
        snapshot yet.
        """
        if not os.path.exists(self.path):
            return None
        try:
            payload = self._load_payload()
        except ValueError as error:
            if not resume_fresh:
                raise
            sys.stderr.write(
                f"warning: discarding unusable checkpoint and starting fresh "
                f"({error})\n"
            )
            return None
        self._loaded = list(payload["states"])
        for index, state in enumerate(self._loaded):
            if state is not None:
                self._remember(index, state)
        self._rounds_at_last_write = self.rounds_completed()
        self._written_interrupted = payload.get("interrupted")
        self._dirty = False
        return list(self._loaded)

    def _load_payload(self) -> dict:
        payload = load_json(
            self.path, kind="checkpoint", expected_format=CHECKPOINT_FORMAT
        )
        if payload.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"{self.path}: checkpoint belongs to a different campaign "
                f"configuration (fingerprint {payload.get('fingerprint')!r}, "
                f"this campaign {self.fingerprint!r})"
            )
        states = payload.get("states")
        if not isinstance(states, list) or len(states) != self.instances:
            raise ValueError(
                f"{self.path}: checkpoint instance count mismatch "
                f"(found {len(states) if isinstance(states, list) else 'none'}, "
                f"expected {self.instances})"
            )
        for index, state in enumerate(states):
            if state is not None and state.get("format") != AmuletFuzzer.STATE_FORMAT:
                raise ValueError(
                    f"{self.path}: instance {index} state has unexpected format "
                    f"{state.get('format')!r}"
                )
        return payload

    def initial_reports(self) -> Dict[int, FuzzerReport]:
        """Pre-resume reports, keyed by instance index.

        Campaign aggregation pre-seeds its streamed totals from these so a
        resumed campaign's summary covers the rounds that ran before the
        interruption.
        """
        return {
            index: report_from_state(state)
            for index, state in enumerate(self._loaded)
            if state is not None
        }

    # -- writing ----------------------------------------------------------------
    def rounds_completed(self) -> int:
        return sum(self._programs_tested)

    def _remember(self, instance_index: int, state: dict) -> None:
        self._encoded[instance_index] = json.dumps(
            state, separators=(",", ":"), default=str
        )
        self._programs_tested[instance_index] = state["programs_tested"]

    def record_state(self, instance_index: int, state: dict) -> None:
        """Fold one instance snapshot in; write if the interval elapsed."""
        self._remember(instance_index, state)
        self._dirty = True
        if self.rounds_completed() - self._rounds_at_last_write >= self.interval:
            self.save()

    def save(self, interrupted: bool = False) -> str:
        """Write the checkpoint atomically; returns the path written.

        Only the small header is encoded here: the per-instance snapshots
        were encoded when they arrived and are spliced in as they are.
        """
        rounds = self.rounds_completed()
        header = json.dumps(
            {
                "format": CHECKPOINT_FORMAT,
                "fingerprint": self.fingerprint,
                "instances": self.instances,
                "rounds_completed": rounds,
                "interrupted": interrupted,
            },
            separators=(",", ":"),
        )
        path = atomic_write_chunks(self.path, self._pieces(header))
        self._rounds_at_last_write = rounds
        self._written_interrupted = interrupted
        self._dirty = False
        # Deterministic fault injection (inert without REPRO_FAULT_PLAN).
        from repro.backends.faults import fault_plan

        fault_plan().maybe_corrupt("checkpoint", path)
        return path

    def _pieces(self, header: str) -> Iterator[str]:
        """``header`` with a ``"states"`` list of the cached encodings appended."""
        yield header[:-1]
        yield ',"states":['
        for index, encoded in enumerate(self._encoded):
            if index:
                yield ","
            yield "null" if encoded is None else encoded
        yield "]}\n"

    def save_final(self, interrupted: bool = False) -> str:
        """Write at campaign end / graceful interruption.

        Skipped when the file on disk already holds exactly this content:
        no snapshot arrived since the last write and the ``interrupted``
        flag is unchanged (a resumed run of an interrupted campaign still
        rewrites it as not interrupted).
        """
        if (
            not self._dirty
            and interrupted == self._written_interrupted
            and os.path.exists(self.path)
        ):
            return os.path.abspath(self.path)
        return self.save(interrupted=interrupted)
