"""Seeded random generators for sweep corpora.

Distance-hereditary graphs grow by the inverse pruning operations
(pendant, true twin, false twin), which yields exactly that class; the
ptolemaic generator additionally refuses false twins on non-clique
neighborhoods so no C4 (and hence no chordality violation) can appear.
"""

from __future__ import annotations

import heapq
import random

from .constraints import ConstraintGraph
from .graphs import Graph
from .p4 import OPPOSITION


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_tree(n: int, seed) -> Graph:
    """Uniform random labeled tree from a Pruefer sequence."""
    rng = _rng(seed)
    if n <= 1:
        return Graph(max(n, 0))
    if n == 2:
        return Graph(2, [(0, 1)])
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(n, edges)


def _grow(n, seed, clique_false_twins: bool, keep=None) -> Graph:
    """Grow a graph one vertex at a time by a random pruning inverse.

    When ``keep(adj)`` rejects a pendant, the new vertex becomes a true
    twin of its anchor instead; twin steps are not tested.
    """
    if n <= 0:
        return Graph(0)
    rng = _rng(seed)
    adj: list[set[int]] = [set()]
    for v in range(1, n):
        anchor = rng.randrange(v)
        op = rng.choice(("pendant", "true-twin", "false-twin"))
        if op == "false-twin":
            nbrs = adj[anchor]
            bad = not nbrs or (
                clique_false_twins
                and any(b not in adj[a] for a in nbrs for b in nbrs if a < b)
            )
            if bad:
                op = "pendant"
        if op == "pendant":
            new = {anchor}
        elif op == "true-twin":
            new = set(adj[anchor]) | {anchor}
        else:
            new = set(adj[anchor])
        adj.append(set())
        for u in new:
            adj[v].add(u)
            adj[u].add(v)
        if keep is not None and op == "pendant" and not keep(adj):
            for u in new:
                adj[u].discard(v)
            adj[v] = set(adj[anchor]) | {anchor}
            for u in adj[v]:
                adj[u].add(v)
    return _to_graph(adj)


def _to_graph(adj) -> Graph:
    n = len(adj)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def random_distance_hereditary(n: int, seed) -> Graph:
    return _grow(n, seed, clique_false_twins=False)


def random_ptolemaic(n: int, seed) -> Graph:
    return _grow(n, seed, clique_false_twins=True)


def _o_bipartite(adj) -> bool:
    return ConstraintGraph(OPPOSITION, _to_graph(adj)).bipartite


def random_opposition_ptolemaic(n: int, seed) -> Graph:
    """Ptolemaic growth filtered to keep O(G) bipartite at every step.

    A twin step leaves the iterated twin quotient, and so O(G)'s classes
    and their bad marks, unchanged, so only pendant steps are tested.
    """
    return _grow(n, seed, clique_false_twins=True, keep=_o_bipartite)
