"""Scale timed samples to one host speed, with a fixed piece of reference work.

On a shared host other tenants slow this process down: a fixed loop's
time swings by 50 % and more within seconds, in noisy phases that last
for minutes, and CPU time swings with wall time (the process is not
preempted; each instruction takes longer).  A short run cannot outwait a
noisy phase, so the benchmark measures the host's speed next to every
timed sample and scales the sample by it.

`HostSpeed.probe` times `reference_work`, a fixed piece of pure-Python
graph work of about 0.8 ms, one or more times before each sample.
`HostSpeed.scale` gives, for a sample's interval, REFERENCE_S divided by
the mean reference time within WINDOW_S of that interval: a sample
averages the host's slowdown over its span, as a mean does.  A sample
times that factor is the sample's duration on a host where the
reference work takes REFERENCE_S, which is about its time on a quiet
host of the kind the benchmark was built on (Intel Xeon, 2 vCPUs).

The reference work does not touch `oppograph`, so a change to the
package cannot move it.  It is written like the package's hot loops (BFS
over adjacency sets, a 4-subset scan through a `has_edge` method), so
that it slows down with them: with a plain BFS loop instead, the program
slowed by a third more than the reference in noisy phases.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
from itertools import combinations
from time import perf_counter

REFERENCE_S = 0.0008
# reference runs within this distance of a sample describe its host speed
WINDOW_S = 0.25
# reference work before a sample: this share of the sample's expected time,
# at least one run and at most MAX_PROBES
PROBE_SHARE = 0.05
MAX_PROBES = 32


class _Graph:
    def __init__(self, n, edges):
        self.n = n
        self.adj = [set() for _ in range(n)]
        for u, v in edges:
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)

    def has_edge(self, u, v):
        return v in self.adj[u]


_rng = random.Random(20150702)
_SPARSE = _Graph(120, [(_rng.randrange(120), _rng.randrange(120)) for _ in range(360)])
_DENSE = _Graph(12, [e for e in combinations(range(12), 2) if _rng.random() < 0.35])


def reference_work() -> int:
    """BFS from three vertices of a sparse graph, then a 4-subset scan for induced P4s.

    The scan is written like the package's brute-force P4 check: a list
    of the edges inside each 4-subset through a method call, a degree dict
    and a sort.
    """
    g = _SPARSE
    total = 0
    for s in range(0, g.n, 40):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += sum(dist.values())
    g = _DENSE
    for quad in combinations(range(g.n), 4):
        inside = [(u, v) for u, v in combinations(quad, 2) if g.has_edge(u, v)]
        if len(inside) != 3:
            continue
        deg = {v: 0 for v in quad}
        for u, v in inside:
            deg[u] += 1
            deg[v] += 1
        total += sorted(deg.values()) == [1, 1, 2, 2]
    return total


class HostSpeed:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []

    def probe(self, expected_s: float = 0.0) -> None:
        """Time the reference work before a sample expected to last `expected_s`."""
        runs = min(MAX_PROBES, max(1, math.ceil(PROBE_SHARE * expected_s / REFERENCE_S)))
        for _ in range(runs):
            t0 = perf_counter()
            reference_work()
            self.starts.append(t0)
            self.times.append(perf_counter() - t0)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean reference time around [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return REFERENCE_S / statistics.fmean(self.times[lo:hi])

    def summary(self) -> str:
        t = sorted(self.times)
        return (
            f"host speed: reference work {len(t)} runs, min {1e3 * t[0]:.4f} ms, "
            f"median {1e3 * statistics.median(t):.4f} ms, p90 {1e3 * t[int(0.9 * (len(t) - 1))]:.4f} ms; "
            f"samples are scaled to {1e3 * REFERENCE_S:.2f} ms"
        )
