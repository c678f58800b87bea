"""Auxiliary constraint graphs over end-edge orientation variables.

For each edge {x, y} that is an end-edge of an induced P4 there are two
variables (x, y) and (y, x), one per direction, always adjacent to each
other.  A P4 a-b-c-d adds, per kind:

  opposition:  (a,b) ~ (c,d)  and  (b,a) ~ (d,c)
  coalition:   (a,b) ~ (d,c)  and  (b,a) ~ (c,d)

so that independent sets of the auxiliary graph are exactly the
conflict-free direction choices.  Bipartiteness therefore decides the
"generalized" membership question, and a bipartition side induces the
forced partial orientation of the end-edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import (
    DirectedCycleCertificate,
    Graph,
    Orientation,
    PartialOrientation,
    orient_along,
    topo_order_or_cycle,
)
from .p4 import COALITION, OPPOSITION, P4, induced_p4s

ArcVar = tuple[int, int]

# above this many variable-edge products, settle for a non-minimal odd walk
_SHORTEST_WALK_BUDGET = 4_000_000


class ConstraintGraph:
    """The auxiliary graph O(G) (kind "opposition") or C(G) ("coalition")."""

    __slots__ = ("kind", "base", "vars", "index", "adj", "p4_count")

    def __init__(self, kind: str, base: Graph, p4s: list[P4] | None = None):
        if kind not in (OPPOSITION, COALITION):
            raise ValueError(f"constraint graph kind must be opposition or coalition, got {kind!r}")
        if p4s is None:
            p4s = induced_p4s(base)
        ends = set()
        for p in p4s:
            ends.update(p.end_edges())
        vars_: list[ArcVar] = []
        for x, y in sorted(ends):
            vars_.append((x, y))
            vars_.append((y, x))
        index = {v: i for i, v in enumerate(vars_)}
        adj: list[set[int]] = [set() for _ in vars_]

        def link(p: ArcVar, q: ArcVar) -> None:
            i, j = index[p], index[q]
            adj[i].add(j)
            adj[j].add(i)

        for x, y in ends:
            link((x, y), (y, x))
        for p in p4s:
            a, b, c, d = p.vertices
            if kind == OPPOSITION:
                link((a, b), (c, d))
                link((b, a), (d, c))
            else:
                link((a, b), (d, c))
                link((b, a), (c, d))
        self.kind = kind
        self.base = base
        self.vars = vars_
        self.index = index
        self.adj = [sorted(s) for s in adj]
        self.p4_count = len(p4s)

    @property
    def var_count(self) -> int:
        return len(self.vars)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def var_label(self, i: int) -> str:
        x, y = self.vars[i]
        return f"{self.base.label(x)}{self.base.label(y)}"

    def to_graph(self) -> Graph:
        edges = [
            (i, j) for i in range(self.var_count) for j in self.adj[i] if i < j
        ]
        return Graph(self.var_count, edges, labels=[self.var_label(i) for i in range(self.var_count)])

    def to_dot(self) -> str:
        lines = ["graph {"]
        for i in range(self.var_count):
            lines.append(f'  "{self.var_label(i)}";')
        for i in range(self.var_count):
            for j in self.adj[i]:
                if i < j:
                    lines.append(f'  "{self.var_label(i)}" -- "{self.var_label(j)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Bipartition:
    """2-coloring of a constraint graph with per-variable component ids."""

    side: tuple[int, ...]
    component: tuple[int, ...]
    component_count: int


@dataclass(frozen=True)
class OddWalkCertificate:
    """Closed walk of odd length witnessing non-bipartiteness.

    Consecutive variables are adjacent in the constraint graph and the
    first equals the last.
    """

    walk: tuple[ArcVar, ...]

    def length(self) -> int:
        return len(self.walk) - 1


def _path_up(parent, v: int) -> list[int]:
    path = [v]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


def _walk_from_conflict(
    cg: ConstraintGraph, parent: list[int], x: int, y: int
) -> tuple[ArcVar, ...]:
    px, py = _path_up(parent, x), _path_up(parent, y)
    sx = set(px)
    lca = next(v for v in py if v in sx)
    ux = px[: px.index(lca) + 1]
    uy = py[: py.index(lca) + 1]
    walk = ux[::-1] + uy  # lca..x then y..lca; x and y are adjacent
    return tuple(cg.vars[v] for v in walk)


def _shortest_odd_cycle(cg: ConstraintGraph, verts: list[int]) -> tuple[ArcVar, ...]:
    """Shortest odd closed walk of the non-bipartite component ``verts``.

    ``verts`` is a whole connected component in id order.  The caller
    runs this only under ``_SHORTEST_WALK_BUDGET``; above it the walk is
    the tree-path walk of ``_walk_from_conflict``, which need not be
    shortest.

    A BFS from a root r closes a walk of length 2d + 1 at each edge vw
    with v < w inside BFS level d: r..v along the BFS tree, then w..r.
    Over all roots the minimum of 2d + 1 is the odd girth.  The walk
    returned is the one at the smallest length, then the smallest root,
    then the smallest v, then the first such w in ``adj[v]`` -- the first
    hit of a full BFS from every root in id order, scanned v by v,
    keeping strict improvements only.

    The search does less without changing that choice.  A root's BFS
    stops at the first level that holds an edge, since deeper levels only
    give longer walks, and it never expands a level d with 2d + 1 >= L,
    where L is the best length found so far, since an equal length from a
    later root never replaces it.  BFS assigns levels and tree parents
    level by level, so the levels it does reach are those of the full
    BFS.  Roots stop once L = 3, the shortest odd cycle a loopless graph
    can have.
    """
    adj = cg.adj
    best_len = 2 * len(verts) + 1  # longer than any walk found here
    best_walk: list[int] | None = None
    for root in verts:
        if best_len == 3:
            break
        dist = {root: 0}
        par = {root: -1}
        level = [root]
        d = 0
        while level and 2 * d + 1 < best_len:
            nxt = []
            closed = False
            for v in level:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = d + 1
                        par[w] = v
                        nxt.append(w)
                    elif dist[w] == d:
                        closed = True
            if closed:
                v, w = next(
                    (v, w) for v in sorted(level) for w in adj[v] if w > v and dist.get(w) == d
                )
                best_len = 2 * d + 1
                best_walk = _path_up(par, v)[::-1] + _path_up(par, w)  # root..v, w..root
                break
            level = nxt
            d += 1
    assert best_walk is not None
    return tuple(cg.vars[u] for u in best_walk)


def bipartition_or_odd_walk(cg: ConstraintGraph) -> Bipartition | OddWalkCertificate:
    """BFS 2-coloring; on failure, a verifiable odd closed walk.

    The walk lies in the first component, by least variable, that is not
    bipartite.  While variables times edges is at most
    ``_SHORTEST_WALK_BUDGET`` it is a shortest odd closed walk of that
    component, chosen by length, then root, then scan order (see
    ``_shortest_odd_cycle``), so equal inputs give equal certificates.
    Above the budget it is the tree-path walk through the first conflict
    of the 2-coloring, which need not be shortest.
    """
    n = cg.var_count
    side = [-1] * n
    comp = [-1] * n
    parent = [-1] * n
    comp_id = 0
    for start in range(n):
        if side[start] >= 0:
            continue
        side[start] = 0
        comp[start] = comp_id
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in cg.adj[v]:
                if side[w] < 0:
                    side[w] = 1 - side[v]
                    comp[w] = comp_id
                    parent[w] = v
                    queue.append(w)
                elif side[w] == side[v]:
                    if n * cg.edge_count <= _SHORTEST_WALK_BUDGET:
                        # the conflict component may be partially colored;
                        # finish it so the scan sees every vertex
                        grow = deque(u for u in range(n) if comp[u] == comp_id)
                        seen = {u for u in range(n) if comp[u] == comp_id}
                        while grow:
                            u = grow.popleft()
                            for t in cg.adj[u]:
                                if t not in seen:
                                    seen.add(t)
                                    comp[t] = comp_id
                                    grow.append(t)
                        return OddWalkCertificate(_shortest_odd_cycle(cg, sorted(seen)))
                    return OddWalkCertificate(_walk_from_conflict(cg, parent, v, w))
        comp_id += 1
    return Bipartition(tuple(side), tuple(comp), comp_id)


def forced_orientation(
    cg: ConstraintGraph, b: Bipartition, flips: tuple[int, ...] | list[int]
) -> PartialOrientation:
    """The partial orientation D(A) picked by a bipartition side.

    ``flips`` holds one bit per component choosing which side plays A
    there.  Every end-edge receives exactly one direction because (x, y)
    and (y, x) are adjacent, hence on opposite sides.
    """
    if len(flips) != b.component_count:
        raise ValueError("one flip bit per component required")
    arcs = []
    for i, (x, y) in enumerate(cg.vars):
        if b.side[i] == flips[b.component[i]]:
            arcs.append((x, y))
    return PartialOrientation(cg.base, arcs)


def is_acyclic(p: PartialOrientation) -> list[int] | DirectedCycleCertificate:
    """Topological order of the directed part, or a directed cycle."""
    order, cycle = topo_order_or_cycle(p.base.n, p.arcs())
    return order if cycle is None else cycle


def extend_acyclic(p: PartialOrientation) -> Orientation:
    """Complete an acyclic partial orientation to a full acyclic one.

    Takes the topological order of the directed part (ties broken by
    vertex id) and orients every edge along it, which preserves all
    forced directions.
    """
    order, cycle = topo_order_or_cycle(p.base.n, p.arcs())
    if cycle is not None:
        raise ValueError(f"partial orientation is cyclic: {cycle.vertices}")
    return orient_along(p.base, order)
