"""Memory dependence prediction (speculative store bypass).

A load that reaches the memory stage while an older store's address is still
unknown can either wait (conservative) or speculatively assume the store does
not alias and proceed — reading a stale value if the prediction was wrong.
That wrong-path value is exactly what Spectre-v4 leaks, and the predictor
being trained only after a violation is why the paper finds Spectre-v4 much
more slowly than Spectre-v1 (Table 3).

The predictor below is a small saturating-counter table keyed by load PC,
similar in spirit to store-set predictors: it predicts "no alias" until a
memory-order violation trains it to make the load wait.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Journal sentinel: the counter had no entry before the journalled write.
_ABSENT = object()


class MemoryDependencePredictor:
    """Predicts whether a load must wait for older unresolved stores.

    Like :class:`~repro.uarch.branch_predictor.BranchPredictor`, mutations
    append their old value to an undo journal so per-test-case context
    snapshots are O(1) marks, materialized only on demand.
    """

    def __init__(self, entries: int = 256, threshold: int = 2) -> None:
        self.entries = entries
        self.threshold = threshold
        self._counters: Dict[int, int] = {}
        self._journal: List[Tuple] = []
        self._epoch = 0

    def _index(self, load_pc: int) -> int:
        return (load_pc >> 2) % self.entries

    def predicts_alias(self, load_pc: int) -> bool:
        """True if the load should wait for older stores to resolve."""
        return self._counters.get(self._index(load_pc), 0) >= self.threshold

    def train_violation(self, load_pc: int) -> None:
        """A bypass turned out to alias: make this load conservative."""
        index = self._index(load_pc)
        self._journal.append((index, self._counters.get(index, _ABSENT)))
        self._counters[index] = min(3, self._counters.get(index, 0) + 2)

    def train_no_violation(self, load_pc: int) -> None:
        """A bypass was confirmed safe: slowly decay towards aggressive."""
        index = self._index(load_pc)
        if index in self._counters and self._counters[index] > 0:
            self._journal.append((index, self._counters[index]))
            self._counters[index] -= 1

    # -- state management ------------------------------------------------------
    def save_state(self) -> dict:
        return {"counters": dict(self._counters)}

    def journal_mark(self) -> Tuple[int, int]:
        """O(1) snapshot handle: the current ``(epoch, journal length)``."""
        return (self._epoch, len(self._journal))

    def state_at(self, mark: Tuple[int, int]) -> dict:
        """Materialize the counters as they were when ``mark`` was taken."""
        epoch, length = mark
        if epoch != self._epoch:
            raise RuntimeError(
                "stale predictor journal mark: the journal was invalidated by "
                "a restore/reset after the mark was taken"
            )
        counters = dict(self._counters)
        for index, old in reversed(self._journal[length:]):
            if index is None:  # a rewind record parks the whole table
                counters = dict(old)
            elif old is _ABSENT:
                counters.pop(index, None)
            else:
                counters[index] = old
        return {"counters": counters}

    def rewind(self) -> None:
        """Return to the empty state in O(1), keeping earlier marks valid
        (the old table is parked in one journal record)."""
        self._journal.append((None, self._counters))
        self._counters = {}

    def restore_state(self, state: dict) -> None:
        self._counters = dict(state["counters"])
        self._journal.clear()
        self._epoch += 1

    def snapshot(self):
        return tuple(sorted(self._counters.items()))

    def reset(self) -> None:
        self._counters.clear()
        self._journal.clear()
        self._epoch += 1
