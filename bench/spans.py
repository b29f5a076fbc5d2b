"""Spans and counts around the solver's layer functions, installed from outside.

``Tracer.installed()`` swaps each traced function for a wrapper in every
``wbary`` module namespace that holds it (``from .x import f`` makes a second
reference), and restores the originals on exit. A span is
[id, parent id, name, start, end]; spans of one solve nest under its
``driver.solve`` span. Untraced helpers count towards the self time of the
nearest traced caller.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Functions wrapped, as <module>.<function>. recompute_reduced_costs is the
# periodic rebuild of the same vector, so it is reported under the update.
TRACED = (
    "driver.solve",
    "model.cost_vector",
    "pricing.init_reduced_costs",
    "pricing.update_reduced_costs",
    "pricing.recompute_reduced_costs",
    "pricing.best_costs",
    "pricing.solve_pricing",
    "transport.solve_transportation",
    "master.solve_rm",
    "master.add_column",
    "master.recover_solution",
    "initial.greedy_vertex",
    "initial.two_approx",
    "initial.repair_to_vertex",
    "simplex.solve_columns",
)


def _block_sizes(strides) -> list[int]:
    """Size of the measure block that holds each master row."""
    return [s for s in strides.sizes[2:] for _ in range(s)]


def _count_update(counts, args):
    _, y_old, y_new, _, strides = args
    block = _block_sizes(strides)
    changed = np.flatnonzero(np.asarray(y_new) - np.asarray(y_old))
    counts["pricing.changed_duals"] += int(changed.size)
    # Each changed row reads and writes N / (its block size) float64s.
    counts["pricing.update_bytes"] += sum(16 * strides.total // block[r] for r in changed)


def _count_recompute(counts, args):
    _, y, _, strides = args
    counts["pricing.changed_duals"] += len(y)
    # A copy of the costs, then one read-write pass per master measure.
    counts["pricing.update_bytes"] += 16 * strides.total * (len(strides.sizes) - 1)


def _count_pivots(counts, args):
    counts["master.pivots"] += int(args[0].last_pivots)


# Counts taken at the layer boundary once the call has returned.
AFTER = {
    "pricing.update_reduced_costs": _count_update,
    "pricing.recompute_reduced_costs": _count_recompute,
    "master.solve_rm": _count_pivots,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, time.perf_counter(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if after is not None:
                after(counts, args)
            return out

        return traced

    @contextmanager
    def installed(self):
        modules = [m for k, m in sys.modules.items() if k == "wbary" or k.startswith("wbary.")]
        targets = {}
        for qual in TRACED:
            mod, fn = qual.split(".")
            targets[id(getattr(sys.modules["wbary." + mod], fn))] = qual
        wrappers = {}
        patched = []
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                qual = targets.get(id(val))
                if qual is None:
                    continue
                if qual not in wrappers:
                    wrappers[qual] = self._wrap(qual, val)
                setattr(mod, attr, wrappers[qual])
                patched.append((mod, attr, val))
        try:
            yield self
        finally:
            for mod, attr, val in patched:
                setattr(mod, attr, val)

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name over the tree under span ``root``."""
        child_time = Counter()
        inside = {root}
        out = Counter()
        for span in self.spans[root:]:
            sid, parent, name, start, end = span
            if sid != root and parent not in inside:
                break
            inside.add(sid)
            if parent is not None and sid != root:
                child_time[parent] += end - start
        for sid in sorted(inside):
            _, _, name, start, end = self.spans[sid]
            out[name] += (end - start) - child_time[sid]
        return dict(out)
