"""Byte accounting for the solver's large allocations.

Every array whose size scales with the combination count is registered here
under a label, so tests can verify that the column generation path never
materializes more than the cost vector plus an n_duplicates-length dual sum.
"""

from __future__ import annotations


class AllocationLedger:
    def __init__(self):
        self.live: dict[str, int] = {}
        self.peak = 0

    def register(self, label: str, nbytes: int):
        self.live[label] = int(nbytes)
        self.peak = max(self.peak, sum(self.live.values()))
