"""A fixed plain-Python computation that measures how fast the host runs now.

The benchmark's machine is a small share of a shared host whose speed drifts
by up to 1.9x over minutes.  Timing this computation between solves, and
scaling the end-to-end timings by NOMINAL_S over its measured time, removes
most of that drift: over 10 minutes of dijkstra-sparse solves at n = 2000,
each followed by 1 s of this computation, the coefficient of variation of
35 s window means of the solve time was 0.112, and 0.047 once scaled.  What
is left is the speed changing within a solve, which a measurement between
solves cannot see.

It imports nothing from gdlog, so no change to gdlog changes its time.  Its
operations are the ones the engine, the fact reader and the serialiser spend
their time on: tuples hashed into dicts and sets, a heap, string splitting,
joining and int parsing, and plain function calls.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

# seconds one reference() call takes at the nominal host speed, close to its
# median on a two-CPU Xeon VM under Python 3.11 (0.014 to 0.019 s); a scaled
# timing is in seconds at the host speed where reference() takes NOMINAL_S
NOMINAL_S = 0.015

_N = 1200
_rng = random.Random(12345)
_EDGES = [(_rng.randrange(_N), _rng.randrange(_N), _rng.randrange(1, 50)) for _ in range(4 * _N)]
_LINES = ["\t".join(map(str, e)) for e in _EDGES]
_EXPECTED: int | None = None


def _weight(u: int, v: int, w: int) -> int:
    return w + (u ^ v) % 3


def reference() -> int:
    """Parse the edge lines, index them, run Dijkstra from node 0, probe the
    two-step paths and serialise the distances; returns a checksum."""
    adj: dict[int, list[tuple[int, int]]] = {}
    facts = set()
    for line in _LINES:
        u, v, w = (int(c) for c in line.split("\t"))
        facts.add((u, v, w))
        adj.setdefault(u, []).append((v, _weight(u, v, w)))
    dist = {0: 0}
    heap = [(0, 0)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj.get(u, ()):
            if d + w < dist.get(v, 1 << 60):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    joined = 0
    # tuple keys probed against int keys: every probe hashes and misses, as
    # most join probes in the dijkstra program do
    for u, v, _w in facts:
        for x, _ in adj.get(v, ())[:2]:
            joined += (u, x) in dist
    text = "\n".join(f"{u}\t{d}" for u, d in sorted(dist.items()))
    return joined + len(text)


def reference_s(min_seconds: float) -> float:
    """Run reference() for at least min_seconds (and at least once); return
    the seconds per call.  Fails if a call returns another checksum than the
    first, which would mean the computation is not the fixed one."""
    global _EXPECTED
    calls = 0
    t0 = perf_counter()
    while True:
        got = reference()
        if _EXPECTED is None:
            _EXPECTED = got
        elif got != _EXPECTED:
            raise RuntimeError(f"hostspeed: reference checksum {got} != {_EXPECTED}")
        calls += 1
        elapsed = perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / calls
