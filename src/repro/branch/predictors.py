"""Branch predictors.

Both simulated machines use a table of 2-bit saturating counters (Table 1).
The cores predict an explicit ``BLMISS`` check or the implicit trap branch
not-taken without consulting the table, so the mispredict penalty applies
only to the cache-miss case (Section 2.1).
"""

from __future__ import annotations


class BranchPredictor:
    """Interface: predict an outcome for pc, then train on the real one."""

    def predict(self, pc: int) -> bool:
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        raise NotImplementedError


class TwoBitCounterPredictor(BranchPredictor):
    """Classic table of 2-bit saturating counters, indexed by pc.

    Counter states 0..3; predict taken when >= 2.  Initialised to
    weakly-not-taken (1).
    """

    def __init__(self, entries: int = 2048) -> None:
        if entries < 1 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self._table = [1] * entries
        self.lookups = 0
        self.mispredicts = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        self.lookups += 1
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._table[index]
        if taken:
            self._table[index] = min(3, counter + 1)
        else:
            self._table[index] = max(0, counter - 1)

    def record_mispredict(self) -> None:
        self.mispredicts += 1

    @property
    def accuracy(self) -> float:
        if self.lookups == 0:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups
