"""A fixed piece of pure-Python work, run at a steady beat during a
benchmark run, that measures how fast the machine runs Python at each
moment of the run.

The benchmark runs on shared hosts whose cores switch between a fast and a
slow state, roughly 1.5x apart, from one second to the next, because other
tenants contend for them. A run that happens to spend more of its time in
the slow state reads slow as a whole, by 15% to 40% against another run of
the same code. Each vCPU switches on its own, so the speed has to be
measured on the thread that runs the workload, while it runs it.

The yardstick does that with a SIGALRM interval timer: every INTERVAL_S of
wall time the main thread stops where it is, between two bytecodes, and
times one short slice of fixed work. The slices sample the run uniformly in
time, long operations included, so they see the fast and slow states in
the same proportion as the workload's operations. `clock()` is
`time.perf_counter()` less the time spent in slices, so operations timed
with it exclude the slices. The gated times are then rescaled to the
reference speed:

    at_ref = measured * REFERENCE_SLICE_S / trimmed mean of the run's slices

The slice uses only the standard library and never calls the program, so a
change to the program moves the workload's times and not the yardstick's.
Its work is of the kinds the program does: set rebuilds as in the dedup
window, heap-ordered path search over a grid as in path allocation, JSON
written with indentation as in the store's data file, and small objects
built and looked up by attribute and key.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import signal
import sys
import time

# About the mean slice time on the machine the benchmark was tuned on, a
# two-vCPU x86-64 VM with CPython 3.11. The constant only sets the scale of
# the times at reference speed and is the same for every commit.
REFERENCE_SLICE_S = 0.0100
# Wall time between slices; with 10 ms slices about a twentieth of a run.
INTERVAL_S = 0.2

_GRID = 12


class _Record:
    __slots__ = ("key", "value", "weight")

    def __init__(self, key, value, weight):
        self.key = key
        self.value = value
        self.weight = weight


def _grid_graph() -> dict:
    graph = {}
    for r in range(_GRID):
        for c in range(_GRID):
            edges = []
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < _GRID and 0 <= cc < _GRID:
                    edges.append(((rr, cc), 1.0 + ((r * 7 + c * 3 + rr + cc) % 5) / 10))
            graph[(r, c)] = edges
    return graph


_GRAPH = _grid_graph()


def _set_window() -> int:
    seen = set(range(800))
    total = 0
    for seq in range(800, 860):
        seen.add(seq)
        floor = seq - 800
        seen = {s for s in seen if s > floor}
        total += len(seen)
    return total


def _paths() -> int:
    found = 0
    for source in ((0, 0), (_GRID // 2, _GRID - 1), (_GRID - 1, 0)):
        best = {}
        heap = [(0.0, (source,))]
        while heap:
            dist, nodes = heapq.heappop(heap)
            node = nodes[-1]
            if node in best:
                continue
            best[node] = dist
            for nxt, weight in _GRAPH[node]:
                if nxt not in best:
                    heapq.heappush(heap, (dist + weight, nodes + (nxt,)))
        found += len(best)
    return found


def _records() -> int:
    table = {}
    for i in range(1500):
        record = _Record(f"k-{i:05d}", {"n": i, "tag": str(i % 17)}, i % 13)
        table[record.key] = record
    heavy = [r for r in table.values() if r.weight > 6 and r.value["tag"] != "3"]
    heavy.sort(key=lambda r: (r.weight, r.key))
    return len(heavy)


def _json() -> int:
    doc = {f"entry-{i}": {"id": i, "kind": "action", "args": [i, str(i), i / 7],
                          "ok": i % 3 == 0} for i in range(150)}
    out = io.StringIO()
    json.dump(doc, out, indent=2, sort_keys=True)
    return len(json.loads(out.getvalue()))


def work() -> int:
    """One slice of fixed work, about 10 ms on the reference machine."""
    return _set_window() + _paths() + _records() + _json()


class Yardstick:
    """Slices timed on the main thread, at a steady beat while `running()`."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.spent = 0.0  # seconds spent in slices
        self._in_slice = False

    def clock(self) -> float:
        """Seconds, like time.perf_counter(), less the time spent in slices."""
        return time.perf_counter() - self.spent

    def _slice(self, signum, frame) -> None:
        if self._in_slice:
            return
        self._in_slice = True
        # no other thread takes the interpreter during the slice, so its
        # wall time is its own and can be taken out of the operation it cut
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            start = time.perf_counter()
            work()
            elapsed = time.perf_counter() - start
        finally:
            sys.setswitchinterval(switch)
            self._in_slice = False
        self.slices.append(elapsed)
        self.spent += elapsed

    @contextlib.contextmanager
    def running(self):
        """Run a slice every INTERVAL_S of wall time for the block."""
        previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean_s(self) -> float:
        return trimmed_mean(self.slices)

    def scale(self) -> float:
        """Factor that takes this run's times to the reference speed."""
        return REFERENCE_SLICE_S / self.mean_s()


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean of the values left after dropping the lowest and the highest
    `cut` share of them. The host's speed switches between a fast and a slow
    state, so times are a mixture of two modes; a mean moves in proportion
    to the time spent in each, where a median jumps between them."""
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    kept = ordered[drop:len(ordered) - drop]
    return sum(kept) / len(kept)
