"""Machine-speed probe run in short bursts *between* the ops of a measured phase.

The sandbox's speed drifts by tens of percent over minutes (neighbours
contending for cache and memory), a whole run sits in one state, and the
drift hits code with the simulator's memory behaviour harder than a
small arithmetic loop.  So the probe runs interleaved with the workload,
in the same process, and each burst is half a frozen miniature of the
program itself — generator clients on a heap-scheduled event loop, each
summing a random run of "pages" of a row table — and half the heap churn
of benchmarks/test_kernel_perf.py (copied, so that file stays free to
change).  The blend was fitted so the probe slows down under contention
by the factor ``rangescan_ro`` does (exponent 1.1).  Multiplying a
phase's wall time by the speed the probe saw cancels most of the drift:
at a fixed seed the spread between runs of ``rangescan_ro`` falls from
13.5 % to 3.3 %.

This file never imports the program: an optimisation of ``src/repro``
must not be able to speed the yardstick up.
"""

from __future__ import annotations

import heapq
import time

#: Burst time on the reference sandbox in its usual state; makes
#: ``speed`` read 1.0 there and normalised seconds read like seconds.
REFERENCE_BURST_S = 0.011
#: At least this much workload time separates two bursts (~5 % overhead).
GAP_S = 0.2
#: Event-loop steps and heap-churn rounds per burst: about 5 ms each.
_STEPS = 600
_HEAP_ROUNDS = 5
_ROWS = 100_000
_ROWS_PER_PAGE = 33
_CLIENTS = 40


class Calibrator:
    """Call :meth:`tick` after every op; read :attr:`speed` at the end."""

    def __init__(self):
        rows = [(key, float(1000 + key % 9000), "BUILDING") for key in range(_ROWS)]
        self._pages = [rows[i:i + _ROWS_PER_PAGE] for i in range(0, _ROWS, _ROWS_PER_PAGE)]
        self._state = 12345
        self._seq = 0
        self._heap: list = []
        for _ in range(_CLIENTS):
            client = self._client()
            self._seq += 1
            heapq.heappush(self._heap, (next(client), self._seq, client))
        self.bursts: list[float] = []
        self.burst()  # first touch of the table is not representative
        self.start()

    def _client(self):
        pages = self._pages
        while True:
            self._state = (self._state * 1103515245 + 12345) & 0x7FFFFFFF
            first = self._state % (len(pages) - 4)
            total = 0.0
            for page in pages[first:first + 4]:
                keys = [row[0] for row in page]
                for row in page:
                    total += row[1]
            yield 3.0 + (total + len(keys)) % 7

    def start(self) -> None:
        """Begin a measured phase: forget earlier bursts."""
        self.bursts = []
        self._last = time.perf_counter()

    def burst(self) -> None:
        heap = self._heap
        begin = time.perf_counter()
        for _ in range(_STEPS):
            when, _seq, client = heapq.heappop(heap)
            self._seq += 1
            heapq.heappush(heap, (when + next(client), self._seq, client))
        acc = 0
        for _ in range(_HEAP_ROUNDS):
            churn = [((i * 7919) % 1024, i) for i in range(2000)]
            heapq.heapify(churn)
            while churn:
                when, seq = heapq.heappop(churn)
                acc ^= when + seq
        self._last = time.perf_counter()
        self.bursts.append(self._last - begin)

    def tick(self) -> None:
        if time.perf_counter() - self._last >= GAP_S:
            self.burst()

    @property
    def spent_s(self) -> float:
        """Wall time the bursts themselves took (not workload time)."""
        return sum(self.bursts)

    @property
    def speed(self) -> float:
        """Machine speed over the phase, 1.0 = the reference sandbox.

        From the mean burst time without the fastest and slowest fifth:
        one burst that the host interrupts can take ten times the rest.
        """
        ordered = sorted(self.bursts)
        trim = len(ordered) // 5
        kept = ordered[trim:len(ordered) - trim]
        return REFERENCE_BURST_S * len(kept) / sum(kept)

    def drift(self) -> float:
        """Relative speed change between the phase's first and last third."""
        third = max(1, len(self.bursts) // 3)
        head, tail = sum(self.bursts[:third]), sum(self.bursts[-third:])
        return abs(head - tail) / max(head, tail)
