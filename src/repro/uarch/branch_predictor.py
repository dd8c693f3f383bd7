"""Branch direction prediction (gshare) and a branch target buffer.

The predictor's state is part of two of the alternative micro-architectural
trace formats evaluated in the paper (the "BP state" and "branch prediction
order" traces of Table 5).  In AMuLeT-Opt the predictor state is deliberately
*not* reset between inputs of the same program — the paper notes this widens
the variety of predictions and increases the chance of finding violations —
so the predictor supports snapshot/restore for violation validation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Journal sentinel: the key had no entry before the journalled write.
_ABSENT = object()


class BranchPredictor:
    """A gshare direction predictor plus a small LRU branch target buffer.

    Every state mutation appends its old value to an undo journal, so a
    "snapshot" of the predictor at any past moment is just a journal mark
    (two integers).  ``state_at(mark)`` materializes the full state dict for
    that moment by copying the live state and replaying the journal suffix
    backwards — executors therefore capture a per-test-case context in O(1)
    and only pay the dict copies for the handful of test cases that end up
    as violation witnesses.
    """

    def __init__(
        self,
        entries: int = 1024,
        history_bits: int = 8,
        btb_entries: int = 64,
    ) -> None:
        if entries & (entries - 1):
            raise ValueError("predictor entries must be a power of two")
        self.entries = entries
        self.history_bits = history_bits
        self.btb_entries = btb_entries
        self._counters: Dict[int, int] = {}
        self._history = 0
        self._btb: Dict[int, int] = {}
        self._btb_lru: Dict[int, int] = {}
        self._use_counter = 0
        #: Undo journal of ``(kind, key, *old_values)`` tuples.  The epoch is
        #: bumped whenever the journal is invalidated (restore/reset), so a
        #: stale mark can never silently materialize garbage.
        self._journal: List[Tuple] = []
        self._epoch = 0

    # -- direction prediction ----------------------------------------------------
    def _index(self, pc: int) -> int:
        # A PC-indexed (bimodal) table keeps training behaviour predictable:
        # a branch that was taken once is predicted taken on its next
        # occurrence, which is the property both the Spectre litmus tests and
        # AMuLeT-Opt's carried-over predictor state rely on.  The global
        # history register is still maintained (it is part of the BP-state
        # micro-architectural trace) but does not hash into the index.
        return (pc >> 2) & (self.entries - 1)

    def predict_direction(self, pc: int) -> bool:
        """Predict taken/not-taken for the conditional branch at ``pc``."""
        counter = self._counters.get(self._index(pc), 1)
        return counter >= 2

    def update_direction(self, pc: int, taken: bool) -> None:
        """Train the direction predictor and shift the global history."""
        index = self._index(pc)
        old = self._counters.get(index, _ABSENT)
        self._journal.append(("dir", index, old, self._history))
        counter = 1 if old is _ABSENT else old
        if taken:
            counter = min(3, counter + 1)
        else:
            counter = max(0, counter - 1)
        self._counters[index] = counter
        mask = (1 << self.history_bits) - 1
        self._history = ((self._history << 1) | int(taken)) & mask

    # -- branch target buffer -------------------------------------------------------
    def predict_target(self, pc: int) -> Optional[int]:
        target = self._btb.get(pc)
        if target is not None:
            self._journal.append(
                ("lru", pc, self._btb_lru.get(pc, _ABSENT), self._use_counter)
            )
            self._use_counter += 1
            self._btb_lru[pc] = self._use_counter
        return target

    def update_target(self, pc: int, target: int) -> None:
        if pc not in self._btb and len(self._btb) >= self.btb_entries:
            victim = min(self._btb_lru, key=self._btb_lru.get)
            self._journal.append(
                ("evict", victim, self._btb[victim], self._btb_lru[victim])
            )
            del self._btb[victim]
            del self._btb_lru[victim]
        self._journal.append(
            (
                "btb",
                pc,
                self._btb.get(pc, _ABSENT),
                self._btb_lru.get(pc, _ABSENT),
                self._use_counter,
            )
        )
        self._use_counter += 1
        self._btb[pc] = target
        self._btb_lru[pc] = self._use_counter

    # -- state management ----------------------------------------------------------
    def snapshot(self) -> Tuple:
        """Hashable snapshot of the full predictor state (for BP-state traces)."""
        return (
            tuple(sorted(self._counters.items())),
            self._history,
            tuple(sorted(self._btb.items())),
        )

    def save_state(self) -> dict:
        return self._state_of(
            self._counters, self._history, self._btb, self._btb_lru, self._use_counter
        )

    @staticmethod
    def _state_of(counters, history, btb, btb_lru, use_counter) -> dict:
        return {
            "counters": dict(counters),
            "history": history,
            "btb": dict(btb),
            "btb_lru": dict(btb_lru),
            "use_counter": use_counter,
        }

    def journal_mark(self) -> Tuple[int, int]:
        """O(1) snapshot handle: the current ``(epoch, journal length)``."""
        return (self._epoch, len(self._journal))

    def state_at(self, mark: Tuple[int, int]) -> dict:
        """Materialize the full state as it was when ``mark`` was taken."""
        epoch, length = mark
        if epoch != self._epoch:
            raise RuntimeError(
                "stale predictor journal mark: the journal was invalidated by "
                "a restore/reset after the mark was taken"
            )
        state = self.save_state()
        counters = state["counters"]
        btb = state["btb"]
        btb_lru = state["btb_lru"]
        for record in reversed(self._journal[length:]):
            kind, key, old = record[0], record[1], record[2]
            if kind == "rewind":
                state = self._state_of(*old)
                counters = state["counters"]
                btb = state["btb"]
                btb_lru = state["btb_lru"]
            elif kind == "dir":
                if old is _ABSENT:
                    counters.pop(key, None)
                else:
                    counters[key] = old
                state["history"] = record[3]
            elif kind == "btb":
                if old is _ABSENT:
                    btb.pop(key, None)
                else:
                    btb[key] = old
                if record[3] is _ABSENT:
                    btb_lru.pop(key, None)
                else:
                    btb_lru[key] = record[3]
                state["use_counter"] = record[4]
            elif kind == "evict":
                btb[key] = old
                btb_lru[key] = record[3]
            elif kind == "lru":
                if old is _ABSENT:
                    btb_lru.pop(key, None)
                else:
                    btb_lru[key] = old
                state["use_counter"] = record[3]
        return state

    def rewind(self) -> None:
        """Return to the just-constructed (empty) state, in O(1).

        Unlike :meth:`reset`, the rewind is itself journalled (the old
        tables are parked in one journal record, never copied), so marks
        taken before it stay valid and still materialize their states.
        """
        self._journal.append(
            (
                "rewind",
                None,
                (self._counters, self._history, self._btb, self._btb_lru, self._use_counter),
            )
        )
        self._counters = {}
        self._history = 0
        self._btb = {}
        self._btb_lru = {}
        self._use_counter = 0

    def restore_state(self, state: dict) -> None:
        self._counters = dict(state["counters"])
        self._history = state["history"]
        self._btb = dict(state["btb"])
        self._btb_lru = dict(state["btb_lru"])
        self._use_counter = state["use_counter"]
        self._journal.clear()
        self._epoch += 1

    def reset(self) -> None:
        self._counters.clear()
        self._history = 0
        self._btb.clear()
        self._btb_lru.clear()
        self._use_counter = 0
        self._journal.clear()
        self._epoch += 1
