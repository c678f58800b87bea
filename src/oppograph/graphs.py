"""Immutable simple undirected graphs, orientations, parsing, and DOT output.

Vertices are dense ids 0..n-1. Parsers keep the original vertex tokens as
labels; everything downstream works on ids.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Malformed graph input: bad token counts, self-loops, bad graph6."""


class Graph:
    """Simple undirected graph with set-based adjacency.

    Immutable after construction (duplicate edges collapse silently,
    self-loops are rejected) and safe to share across threads.  The
    neighbourhood bitsets fill a slot on first use (``neighbour_bits``);
    two threads racing there at worst build the same tuple twice.
    """

    __slots__ = ("n", "adj", "labels", "edges", "_nbr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), labels=None):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise GraphError("label count does not match vertex count")
        self.labels: tuple[str, ...] | None = labels
        self.edges: tuple[tuple[int, int], ...] = tuple(
            sorted((u, v) for u in range(n) for v in adj[u] if u < v)
        )
        self._nbr: tuple[int, ...] | None = None

    @classmethod
    def _trusted(cls, n, adj, edges, labels, nbr) -> Graph:
        """``parse_graph6``'s graph: fields that agree, bitsets too; no checks."""
        g = cls.__new__(cls)
        g.n, g.adj, g.edges, g.labels, g._nbr = n, adj, edges, labels, nbr
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def sorted_neighbors(self, v: int) -> list[int]:
        return sorted(self.adj[v])

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __eq__(self, other) -> bool:
        # structural equality; labels intentionally ignored
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def neighbour_bits(g: Graph) -> tuple[int, ...]:
    """The neighbourhood bitsets of g, bit w of entry v set iff vw is an
    edge: built once per graph and shared, so a caller that edits them
    takes a copy."""
    if g._nbr is None:
        g._nbr = _build_neighbour_bits(g)
    return g._nbr


def _build_neighbour_bits(g: Graph) -> tuple[int, ...]:
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return tuple(nbr)


def bits(x: int) -> Iterator[int]:
    """The set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def path_graph(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise GraphError("cycles need at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def complement(g: Graph) -> Graph:
    edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    ]
    return Graph(g.n, edges, labels=g.labels)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, by least member."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by the vertex set ``s``.

    Returns the new graph together with the id remapping: entry i of the
    second component is the original id of new vertex i.
    """
    new_to_old = tuple(sorted(set(s)))
    for v in new_to_old:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range")
    old_to_new = {v: i for i, v in enumerate(new_to_old)}
    edges = [
        (old_to_new[u], old_to_new[v])
        for u, v in g.edges
        if u in old_to_new and v in old_to_new
    ]
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[v] for v in new_to_old)
    return Graph(len(new_to_old), edges, labels=labels), new_to_old


# ---------------------------------------------------------------------------
# orientations


class Orientation:
    """Directions for any set of edges of a graph, each edge at most one
    way.  The arcs are sorted once, at construction; ``arcs()`` returns a
    fresh copy.  A member certificate directs every edge, which
    ``verify.check_orientation`` checks."""

    __slots__ = ("base", "_head", "_arcs")

    def __init__(self, base: Graph, arcs: Iterable[tuple[int, int]] = ()):
        head: dict[tuple[int, int], int] = {}
        for t, h in arcs:
            if not base.has_edge(t, h):
                raise GraphError(f"arc ({t}, {h}) is not an edge of the base graph")
            key = (t, h) if t < h else (h, t)
            if key in head and head[key] != h:
                raise GraphError(f"edge {key} directed both ways")
            head[key] = h
        self.base = base
        self._head = head
        self._arcs = tuple(sorted((u, v) if h == v else (v, u) for (u, v), h in head.items()))

    def forward(self, a: int, b: int) -> bool:
        """True iff the edge {a, b} is directed a -> b."""
        key = (a, b) if a < b else (b, a)
        return self._head[key] == b

    def arcs(self) -> list[tuple[int, int]]:
        return list(self._arcs)


def orient_along(g: Graph, order: list[int]) -> Orientation:
    """Direct every edge from its earlier to its later vertex in ``order``,
    a permutation of the vertices; the result is acyclic."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    return Orientation(g, [(u, v) if pos[u] < pos[v] else (v, u) for u, v in g.edges])


@dataclass(frozen=True)
class DirectedCycleCertificate:
    """Vertices v1..vk with every vi -> vi+1 directed, and vk -> v1."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)


def kahn_pass(n: int, arcs: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Kahn's algorithm over all n vertices, smallest id first: its order,
    and the in-degrees it leaves, positive at the vertices left over."""
    out: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for t, h in arcs:
        out[t].append(h)
        indeg[h] += 1
    heap = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    return order, indeg


def leftover_cycle(arcs, indeg: list[int]) -> DirectedCycleCertificate:
    """The cycle met by stepping from the least leftover vertex of
    ``kahn_pass`` to its least leftover predecessor until a vertex
    repeats, read along the arcs; it depends only on the arc set.  Each
    step follows an arc, so the walk stays in the weakly connected
    component of its start, and renumbering that component in increasing
    order (as ``induced_subgraph`` does) keeps every comparison it makes.
    """
    pred: dict[int, int] = {}
    for t, h in arcs:
        if indeg[t] and indeg[h] and (h not in pred or t < pred[h]):
            pred[h] = t
    seen: dict[int, int] = {}  # the trail so far, vertex -> its position
    v = next(v for v, d in enumerate(indeg) if d)
    while v not in seen:
        seen[v] = len(seen)
        v = pred[v]
    cyc = list(seen)[seen[v]:]
    cyc.reverse()  # pred-walk reversed = arc direction
    return DirectedCycleCertificate(tuple(cyc))


def topo_order_or_cycle(
    n: int, arcs: list[tuple[int, int]]
) -> tuple[list[int] | None, DirectedCycleCertificate | None]:
    """(order, None) with the ``kahn_pass`` order when the arc set is
    acyclic, else (None, cycle) with its ``leftover_cycle``."""
    order, indeg = kahn_pass(n, arcs)
    if len(order) == n:
        return order, None
    return None, leftover_cycle(arcs, indeg)


# ---------------------------------------------------------------------------
# parsing


def parse_edge_list(text) -> Graph:
    """Parse lines of "u v" tokens into a graph.

    '#' starts a comment, blank lines are skipped, vertex tokens are
    arbitrary strings mapped to dense ids in first-seen order.  Duplicate
    edges collapse; self-loops and wrong token counts are errors carrying
    the line number.
    """
    if isinstance(text, str):
        lines: Iterator[str] = iter(text.splitlines())
    else:
        lines = iter(text)
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphError(f"line {lineno}: expected 2 tokens, got {len(tokens)}")
        a, b = tokens
        if a == b:
            raise GraphError(f"line {lineno}: self-loop at '{a}'")
        for tok in (a, b):
            if tok not in ids:
                ids[tok] = len(ids)
        edges.append((ids[a], ids[b]))
    labels = tuple(sorted(ids, key=ids.get))
    return Graph(len(ids), edges, labels=labels)


_G6_MAX_SHORT = 62
_G6_INVALID = re.compile(r"[^?-~]")
_G6_NONZERO = re.compile(r"[^?]+")
_G6_OFFSETS = tuple(tuple(t for t in range(6) if val & 32 >> t) for val in range(64))  # set bits, high first


def encode_graph6(g: Graph) -> str:
    """Encode as a standard graph6 line (labels are not preserved).

    The body starts as "?" (six 0 bits) per character; edge i < j sets bit
    k = j(j - 1)/2 + i, the rule ``parse_graph6`` decodes."""
    n = g.n
    if n <= _G6_MAX_SHORT:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise GraphError("graph too large for this graph6 encoder")
    body = bytearray(b"?" * ((n * (n - 1) // 2 + 5) // 6))
    for i, j in g.edges:
        k = j * (j - 1) // 2 + i
        body[k // 6] += 32 >> k % 6
    return head + body.decode()


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line; labels default to the decimal ids.

    Only the runs of body characters other than "?" (value 0) are read:
    bit t of character p, counted from its high end, is adjacency bit
    k = 6p + t, which graph6 orders by j, then i < j, so k = j(j - 1)/2 + i.
    Column j only moves forward and the neighbour lists fill in increasing
    order, so the edges come out sorted; no ``Graph`` check can fail.
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphError("empty graph6 line")
    bad = _G6_INVALID.search(s)
    if bad:
        raise GraphError(f"invalid graph6 character at offset {bad.start()}")
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = s[1:]
    elif len(s) >= 4 and s[1] != "~":
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        raise GraphError("unsupported graph6 size header")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphError(
            f"graph6 body length {len(body)} does not match n={n} (expected {need})"
        )
    pad = -nbits % 6
    if pad and (ord(body[-1]) - 63) & ((1 << pad) - 1):
        raise GraphError(f"nonzero padding bits at offset {len(s) - 1}")
    nbrs: list[list[int]] = [[] for _ in range(n)]  # each increasing
    nbr = [0] * n
    j, base = 1, 0  # column j: bits base .. base + j - 1, the pairs (i, j)
    for run in _G6_NONZERO.finditer(body):
        for p, ch in enumerate(run.group(), run.start()):  # character p
            for t in _G6_OFFSETS[ord(ch) - 63]:
                i = 6 * p + t - base
                while i >= j:
                    i, base, j = i - j, base + j, j + 1
                nbrs[j].append(i)
                nbrs[i].append(j)
                nbr[j] |= 1 << i
                nbr[i] |= 1 << j
    edges = tuple([(v, w) for v, lst in enumerate(nbrs) for w in lst if w > v])
    adj = tuple(map(frozenset, map(set, nbrs)))  # via set: Graph's iteration order
    return Graph._trusted(n, adj, edges, tuple(map(str, range(n))), tuple(nbr))


# ---------------------------------------------------------------------------
# DOT output


def dot_quote(text: str) -> str:
    """A DOT quoted string: backslashes escaped first, then quotes."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(
    g: Graph,
    orientation: Orientation | None = None,
    highlight: Iterable[int] | None = None,
) -> str:
    """Deterministic DOT text: digraph when oriented, graph otherwise.

    Highlighted vertices get a filled style.
    """
    if orientation is not None and orientation.base is not g:
        if orientation.base != g:
            raise GraphError("orientation does not belong to this graph")
    marked = set(highlight) if highlight is not None else set()
    lines = ["digraph {" if orientation is not None else "graph {"]
    for v in range(g.n):
        attrs = ""
        if v in marked:
            attrs = ' [style=filled, fillcolor=gray]'
        lines.append(f"  {dot_quote(g.label(v))}{attrs};")
    if orientation is not None:
        for t, h in orientation.arcs():
            lines.append(f"  {dot_quote(g.label(t))} -> {dot_quote(g.label(h))};")
    else:
        for u, v in g.edges:
            lines.append(f"  {dot_quote(g.label(u))} -- {dot_quote(g.label(v))};")
    lines.append("}")
    return "\n".join(lines) + "\n"
