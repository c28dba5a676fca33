"""A fixed reference computation that measures the machine's speed.

The machine this benchmark was sized on shares its cores with other
tenants, and its speed moves with their load: the same pass of the same
workload takes up to twice the CPU time from one minute to the next,
in phases lasting from a fraction of a second to minutes.  Raw timings
of runs made a few minutes apart therefore spread by 10-25%, more than
any useful regression bound.

So every timed cell (a soak pass, a grid cell) is bracketed by short
bursts of this computation -- a small discrete-event message simulation
in plain Python, the same kind of work the simulator does, but
independent of the program under test and never changed by a change to
it -- and the cell's times are scaled by ``NOMINAL_S`` over the mean
time of the two bursts around it: they read as if the machine had run
the burst in ``NOMINAL_S`` seconds.  A cell that is slower because the
*program* is slower stays slower; a cell that is slower because the
*machine* is slower is scaled back.  In ten-seed runs on that machine,
the spread (interquartile range over median) of ops per CPU-second was
0.09-0.25 unscaled and 0.03-0.08 scaled.  The unscaled figures are
printed beside the scaled ones.
"""

from __future__ import annotations

import heapq
import time
from typing import Tuple

#: Seconds one burst takes on an uncontended core of the 2-core Xeon
#: (2.1 GHz) machine the benchmark was sized on; times are scaled to it.
NOMINAL_S = 0.025

#: Operations per burst.
BURST_OPS = 1500


class _Message:
    __slots__ = ("src", "dst", "kind", "ts", "key")

    def __init__(self, src, dst, kind, ts, key):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.ts = ts
        self.key = key


def _burst(ops: int = BURST_OPS, servers: int = 7, keys: int = 16) -> int:
    """Writes to ``keys`` registers on ``servers`` servers, each write
    done on ``servers - 2`` acks: heap events, slotted messages, dicts
    and sets, as in the simulator's hot loop."""
    queue = []
    seq = 0
    stores = [dict() for _ in range(servers)]
    acks = {}
    done = 0
    now = 0.0
    for op in range(ops):
        key = (op * 7919) % keys
        for server in range(servers):
            heapq.heappush(queue, (now + 1.0 + (server % 3) * 0.5, seq,
                                   _Message(-1, server, "w", op, key)))
            seq += 1
        while queue:
            now, _, message = heapq.heappop(queue)
            if message.kind == "w":
                store = stores[message.dst]
                old = store.get(message.key)
                if old is None or old[0] < message.ts:
                    store[message.key] = (message.ts, [message.ts] * 3)
                heapq.heappush(queue, (now + 1.0, seq, _Message(
                    message.dst, -1, "a", message.ts, message.key)))
                seq += 1
            else:
                got = acks.setdefault((message.ts, message.key), set())
                got.add(message.src)
                if len(got) == servers - 2:
                    done += 1
                    del acks[(message.ts, message.key)]
    return done


def burst() -> Tuple[float, float]:
    """Run one burst; return its ``(cpu seconds, wall seconds)``."""
    cpu, wall = time.process_time(), time.perf_counter()
    if _burst() != BURST_OPS:
        raise RuntimeError("reference burst lost a write")
    return time.process_time() - cpu, time.perf_counter() - wall
