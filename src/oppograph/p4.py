"""Induced P4 enumeration, the opposition and coalition P4 conditions,
and BFS-layer classification.  The producer walks P4s in one place,
``mid_edge_blocks``; the checker in ``verify`` keeps its own walk.

An orientation treats a chordless path a-b-c-d by its end-edges: they are
opposed when both point toward the middle (a->b and d->c) or both away
from it (b->a and c->d), and aligned with the path otherwise.  Neither
reading depends on the end the path is read from.  An acyclic orientation
is an opposition orientation when every induced P4 has opposed end-edges,
and a coalition orientation when every induced P4 has aligned ones;
dropping the acyclicity requirement from the former gives generalized
opposition.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .graphs import Graph, Orientation, bits, neighbour_bits

OPPOSITION = "opposition"
GENERALIZED_OPPOSITION = "generalized-opposition"
COALITION = "coalition"

GRAPH_CLASSES = (OPPOSITION, GENERALIZED_OPPOSITION, COALITION)


# A chordless path a-b-c-d, stored once with a < d.
P4 = tuple[int, int, int, int]


def mid_edge_blocks(nbr, edges) -> Iterator[tuple[int, int, int, int]]:
    """(b, c, L, R) for every edge {b, c} in ``edges`` with both sides
    L = N(b) minus N[c] and R = N(c) minus N[b] non-empty, b and c swapped
    so that L is the smaller by bit count; ``nbr`` holds the neighbourhood
    bitsets, of G or of a quotient.  The block's P4s are a-b-c-d with a in
    L and d in R minus N(a); each P4 is in the block of its middle edge.
    """
    for b, c in edges:
        # N(b) minus N(c) holds c, so one bit left means an empty side
        left = nbr[b] & ~nbr[c]
        if left & left - 1 == 0:
            continue
        right = nbr[c] & ~nbr[b]
        if right & right - 1 == 0:
            continue
        left ^= 1 << c
        right ^= 1 << b
        if left.bit_count() > right.bit_count():
            b, c, left, right = c, b, right, left
        yield b, c, left, right


def induced_p4s(g: Graph) -> list[P4]:
    """All induced P4s, one (a, b, c, d) tuple with a < d each, sorted,
    read off the `mid_edge_blocks` of g."""
    nbr = neighbour_bits(g)
    return sorted(
        (a, b, c, d) if a < d else (d, c, b, a)
        for b, c, left, right in mid_edge_blocks(nbr, g.edges)
        for a in bits(left)
        for d in bits(right & ~nbr[a])
    )


def end_edges(g: Graph, p4s: list[P4] | None = None) -> list[tuple[int, int]]:
    """Edges occurring as first or last edge of some induced P4, sorted."""
    if p4s is None:
        p4s = induced_p4s(g)
    seen = set()
    for a, b, c, d in p4s:
        seen.add((a, b) if a < b else (b, a))
        seen.add((c, d) if c < d else (d, c))
    return sorted(seen)


def orientation_good_for(p: P4, o, graph_class: str) -> bool:
    """Does this (possibly partial) orientation treat the P4 correctly?

    Requires both end-edges of the P4 to be directed.
    """
    a, b, c, d = p
    opposed = o.forward(a, b) != o.forward(c, d)
    if graph_class in (OPPOSITION, GENERALIZED_OPPOSITION):
        return opposed
    if graph_class == COALITION:
        return not opposed
    raise ValueError(f"unknown graph class {graph_class!r}")


def verify_orientation(o: Orientation, graph_class: str) -> bool:
    """Does o witness the class (see the module docstring)?  A yes/no
    wrapper of `verify.check_orientation`, the package's one checker."""
    from .verify import check_orientation  # verify imports this module

    return check_orientation(o.base, o, graph_class)[0]


# ---------------------------------------------------------------------------
# BFS layers and the five layer types


class DisconnectedRootError(ValueError):
    pass


def layer_decompose(g: Graph, w: int) -> tuple[int, ...]:
    """The BFS distance of every vertex from the root w."""
    dist = [-1] * g.n
    dist[w] = 0
    queue = deque([w])
    while queue:
        v = queue.popleft()
        for u in g.sorted_neighbors(v):
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    if any(d < 0 for d in dist):
        raise DisconnectedRootError(f"graph is not connected from root {w}")
    return tuple(dist)


class LayerTypeError(ValueError):
    """No layer type matches: the ptolemaic structural assumptions fail."""


def classify_layer_type(p: P4, layers: tuple[int, ...]) -> tuple[str, P4]:
    """Match a P4 against the five layer patterns.

    Returns the type letter and the relabeled path (a, b, c, d) realizing
    the pattern; exactly one type matches on ptolemaic graphs.

      A: a@i, b@i+1, c@i+2, d@i+3      B: b,c@i and a,d@i+1
      C: b@i, a,c@i+1, d@i+2           D: a,b@i, c@i+1, d@i+2
      E: a,b,c@i, d@i+1
    """
    for order in (p, p[::-1]):
        la, lb, lc, ld = (layers[v] for v in order)
        if (lb, lc, ld) == (la + 1, la + 2, la + 3):
            return "A", order
        if lb == lc and la == ld == lb + 1:
            return "B", order
        if la == lc == lb + 1 and ld == lb + 2:
            return "C", order
        if la == lb and lc == lb + 1 and ld == lb + 2:
            return "D", order
        if la == lb == lc and ld == lc + 1:
            return "E", order
    raise LayerTypeError(f"P4 {p} fits no layer pattern from root {layers.index(0)}")
