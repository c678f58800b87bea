"""Independent certificate checkers, and the verdict types they accept.

`Verdict` and its certificate types are defined here, by the checker
that says what they must hold, so this module imports nothing from
`recognize`.  The checkers deliberately avoid the production code paths:
orientations are checked at each P4's mid-edge over adjacency bitsets,
the auxiliary sides come from a parity union-find over end-edges that
walks the same mid-edge blocks, and acyclicity uses DFS.  Certificates
emitted by the recognizers must re-verify here, and `check_orientation`
is also their member self-check.
The O(n^4) 4-subset scan `brute_force_p4s` is the reference in tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations

from .constraints import OddWalkCertificate
from .graphs import DirectedCycleCertificate, Graph, Orientation, bits, neighbour_bits
from .p4 import COALITION, GENERALIZED_OPPOSITION, GRAPH_CLASSES, OPPOSITION
from .patterns import GRAPH_A, GRAPH_G1, GRAPH_G2, GRAPH_N, Pattern, PatternMatch, make_Tk

MEMBER = "member"
NON_MEMBER = "non-member"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class FlipExhaustion:
    """Every flip vector in the reversal quotient forced a directed cycle."""

    entries: tuple[tuple[tuple[int, ...], DirectedCycleCertificate], ...]


@dataclass(frozen=True)
class InducedSubgraph:
    """G[S] is no member, so neither is G: both classes are hereditary.

    ``vertices`` is S in increasing order; ``certificate`` refutes G[S]
    in its own ids, local vertex i standing for ``vertices[i]``."""

    vertices: tuple[int, ...]
    certificate: FlipExhaustion | OddWalkCertificate


@dataclass(frozen=True)
class Verdict:
    graph_class: str
    decision: str
    method: str
    certificate: object
    stats: dict = field(default_factory=dict)
    witness: PatternMatch | None = None

    @property
    def is_member(self) -> bool:
        return self.decision == MEMBER


def brute_force_p4s(g: Graph) -> list[tuple[int, int, int, int]]:
    """Induced P4s via exhaustive 4-subset enumeration (canonical a < d)."""
    out = []
    for quad in combinations(range(g.n), 4):
        inside = [
            (u, v) for u, v in combinations(quad, 2) if g.has_edge(u, v)
        ]
        if len(inside) != 3:
            continue
        deg = {v: 0 for v in quad}
        for u, v in inside:
            deg[u] += 1
            deg[v] += 1
        if sorted(deg.values()) != [1, 1, 2, 2]:
            continue
        ends = sorted(v for v in quad if deg[v] == 1)
        a = ends[0]
        b = next(v for v in quad if g.has_edge(a, v))
        c = next(v for v in quad if v != a and g.has_edge(b, v))
        d = ends[1]
        out.append((a, b, c, d) if a < d else (d, c, b, a))
    out.sort()
    return out


def _dfs_acyclic(n: int, arcs) -> bool:
    out = [[] for _ in range(n)]
    for t, h in arcs:
        out[t].append(h)
    color = [0] * n  # 0 white, 1 gray, 2 black
    for root in range(n):
        if color[root]:
            continue
        stack = [(root, iter(out[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == 1:
                    return False
                if color[w] == 0:
                    color[w] = 1
                    stack.append((w, iter(out[w])))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return True


def check_orientation(g: Graph, o: Orientation, graph_class: str) -> tuple[bool, str]:
    """Every induced P4 a-b-c-d has its end-edges opposed (opposition
    classes) or aligned (coalition); o is acyclic unless the class is
    generalized opposition.  Per mid-edge {b, c}, a runs over the smaller
    of N(b) minus N[c] and N(c) minus N[b], d over the other minus N(a),
    and one AND-NOT finds every bad d for an a: O(sum over edges of the
    smaller side) big-int operations.  A mid-edge with an empty side
    costs one AND-NOT and a one-bit test.
    """
    if graph_class not in GRAPH_CLASSES:
        return False, f"unknown graph class {graph_class!r}"
    if o.base != g:
        return False, "orientation refers to a different graph"
    opposed_wanted = graph_class in (OPPOSITION, GENERALIZED_OPPOSITION)
    arcs = o.arcs()
    nbr = neighbour_bits(g)
    into = [0] * g.n  # the tails of the arcs into each vertex
    for t, h in arcs:
        into[h] |= 1 << t
    for b, c in g.edges:
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
        # a->b and d->c are opposed, as are b->a and c->d; so the class
        # forbids the d away from c exactly when (a->b) == opposed_wanted
        toward_c = right & into[c]
        forbidden = (toward_c, right ^ toward_c)
        for a in bits(left):
            bad = forbidden[(into[b] >> a & 1) == opposed_wanted] & ~nbr[a]
            if bad:
                d = (bad & -bad).bit_length() - 1
                p4 = (a, b, c, d) if a < d else (d, c, b, a)
                return False, f"P4 {p4} violates the {graph_class} condition"
    if graph_class != GENERALIZED_OPPOSITION and not _dfs_acyclic(g.n, arcs):
        return False, "orientation contains a directed cycle"
    return True, "ok"


def _ip4(g: Graph, a, b, c, d) -> bool:
    return (
        len({a, b, c, d}) == 4
        and g.has_edge(a, b)
        and g.has_edge(b, c)
        and g.has_edge(c, d)
        and not g.has_edge(a, c)
        and not g.has_edge(a, d)
        and not g.has_edge(b, d)
    )


def aux_adjacent(g: Graph, kind: str, p, q) -> bool:
    """The defining adjacency predicate of the auxiliary graphs."""
    (x, y), (u, v) = p, q
    if (x, y) == (v, u):
        return True
    if kind == OPPOSITION:
        return _ip4(g, x, y, u, v) or _ip4(g, u, v, x, y)
    return _ip4(g, x, y, v, u) or _ip4(g, v, u, x, y)


def _vertex_ids(g: Graph, vs) -> bool:
    """``vs`` is a tuple of vertex ids of g."""
    return isinstance(vs, tuple) and all(isinstance(v, int) and 0 <= v < g.n for v in vs)


def check_odd_walk(g: Graph, kind: str, cert: OddWalkCertificate) -> tuple[bool, str]:
    walk = cert.walk
    if not isinstance(walk, tuple):
        return False, "walk steps are not pairs of vertex ids"
    if len(walk) < 4:
        return False, "walk too short"
    if walk[0] != walk[-1]:
        return False, "walk is not closed"
    if (len(walk) - 1) % 2 == 0:
        return False, "walk has even length"
    try:
        for x, y in walk:
            if not (0 <= x < g.n and y in g.adj[x]):
                return False, f"variable ({x}, {y}) is not an edge of the graph"
    except (TypeError, ValueError):
        # a step that is no pair, or holds something other than vertex ids
        return False, "walk steps are not pairs of vertex ids"
    for i in range(len(walk) - 1):
        if not aux_adjacent(g, kind, walk[i], walk[i + 1]):
            return False, f"hop {i} fails the auxiliary adjacency predicate"
    return True, "ok"


def check_pattern_match(g: Graph, match: PatternMatch) -> tuple[bool, str]:
    pat = match.pattern
    m = match.mapping
    if not _vertex_ids(g, m):
        return False, "embedding leaves the host: not a tuple of its vertex ids"
    if len(m) != pat.n or len(set(m)) != pat.n:
        return False, "embedding is not injective"
    want = set(pat.edges)
    for i in range(pat.n):
        for j in range(i + 1, pat.n):
            if ((i, j) in want) != g.has_edge(m[i], m[j]):
                return False, f"pattern pair ({i}, {j}) not induced correctly"
    return True, "ok"


def _end_edge_sides(g: Graph, kind: str) -> tuple[dict[tuple[int, int], tuple[int, int]], int] | None:
    """The aux component and side of every end-edge, or None when the
    auxiliary graph is not bipartite: ``sides[(x, y)]``, x < y, is the
    component, numbered by least end-edge, and the side of variable
    (x, y) relative to the least end-edge of the component.

    A parity union-find over edge ids, ``parity[e]`` relative to
    ``parent[e]``, takes the P4s a-b-c-d one mid-edge {b, c} at a time,
    a over N(b) minus N[c] and d over N(c) minus N[b] minus N(a): (a, b)
    goes across from (c, d) (opposition) or (d, c) (coalition).  Union
    by size keeps trees O(log m) deep, so ``find`` is a loop, in O(n + m)
    memory.  An end-edge is joined to the far end-edge of its P4, so the
    end-edges are the edges in trees of size > 1.
    """
    edges = g.edges
    ids: list[dict[int, int]] = [{} for _ in range(g.n)]  # ids[u][v]: the id of {u, v}
    for e, (u, v) in enumerate(edges):
        ids[u][v] = ids[v][u] = e
    m = len(edges)
    parent, parity, size = list(range(m)), [0] * m, [1] * m

    def find(e: int) -> tuple[int, int]:
        p = 0
        while parent[e] != e:
            p ^= parity[e]
            e = parent[e]
        return e, p

    coalition = kind == COALITION
    nbr = neighbour_bits(g)
    for b, c in edges:
        # the P4s a-b-c-d through mid-edge {b, c}, as in check_orientation
        left = nbr[b] & ~nbr[c]
        if left & left - 1 == 0:
            continue
        right = nbr[c] & ~nbr[b]
        if right & right - 1 == 0:
            continue
        left ^= 1 << c
        right ^= 1 << b
        for a in bits(left):
            ab = ids[a][b]
            for d in bits(right & ~nbr[a]):
                r, p = find(ab)
                s, q = find(ids[c][d])
                # r's side relative to s's, the same read from either end
                need = 1 ^ p ^ q ^ (a > b) ^ (c > d) ^ coalition
                if r == s:
                    if need:
                        return None
                    continue
                if size[r] < size[s]:
                    r, s = s, r
                parent[s], parity[s] = r, need
                size[r] += size[s]
    sides: dict[tuple[int, int], tuple[int, int]] = {}
    heads: dict[int, tuple[int, int]] = {}  # root -> (component, least end-edge's parity)
    for e, edge in enumerate(edges):
        r, p = find(e)
        if size[r] > 1:
            comp, p0 = heads.setdefault(r, (len(heads), p))
            sides[edge] = (comp, p ^ p0)
    return sides, len(heads)


def check_flip_exhaustion(g: Graph, kind: str, cert: FlipExhaustion) -> tuple[bool, str]:
    """Re-derive the end-edge sides independently and confirm that every
    flip vector in the reversal quotient is listed with a cycle whose
    arcs are variables on the side the vector picks in their component."""
    found = _end_edge_sides(g, kind)
    if found is None:
        return False, "auxiliary graph is not even bipartite"
    sides, comps = found
    if comps == 0:
        return False, "no variables, nothing to exhaust"
    expected = 1 << (comps - 1)
    if not isinstance(cert.entries, tuple):
        return False, "flip entries are not a tuple"
    if len(cert.entries) != expected:
        return False, f"expected {expected} flip vectors, got {len(cert.entries)}"
    seen = set()
    for entry in cert.entries:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            return False, f"entry {entry!r} is not a (flips, cycle) pair"
        flips, cycle = entry
        if not isinstance(cycle, DirectedCycleCertificate) or not _vertex_ids(g, cycle.vertices):
            return False, f"cycle {cycle!r} is not a directed cycle over vertex ids"
        if not isinstance(flips, tuple):
            return False, f"flip vector {flips!r} is not a tuple"
        if any(f not in (0, 1) for f in flips):
            return False, f"flip vector {flips} has a value other than 0 and 1"
        if len(flips) != comps or flips[0] != 0 or flips in seen:
            return False, "malformed or duplicate flip vector"
        seen.add(flips)
        vs = cycle.vertices
        if len(vs) < 2:
            return False, "degenerate cycle"
        for i in range(len(vs)):
            x, y = vs[i], vs[(i + 1) % len(vs)]
            edge = (x, y) if x < y else (y, x)
            if edge not in sides:
                return False, f"cycle arc ({x}, {y}) is not an end-edge variable"
            comp, side = sides[edge]
            if side ^ (x > y) != flips[comp]:
                return False, f"cycle arc ({x}, {y}) is not selected by flips {flips}"
    return True, "ok"


def check_induced_subgraph(g: Graph, kind: str, cert: InducedSubgraph) -> tuple[bool, str]:
    """Build G[S] and check the inner flip exhaustion or odd walk on it;
    opposition and coalition graphs are closed under induced subgraphs,
    so refuting G[S] refutes G.  G[S] is read off the neighbourhoods of
    S, in O(sum of deg v over v in S) time, however large G is."""
    s = cert.vertices
    if not _vertex_ids(g, s):
        return False, "subgraph vertices are not vertex ids of the graph"
    if any(u >= v for u, v in zip(s, s[1:])):
        return False, "subgraph vertices are not sorted and distinct"
    pos = {v: i for i, v in enumerate(s)}
    sub = Graph(len(s), [(i, pos[v]) for i, u in enumerate(s) for v in g.adj[u] if v > u and v in pos])
    inner = cert.certificate
    if isinstance(inner, FlipExhaustion):
        ok, msg = check_flip_exhaustion(sub, kind, inner)
    elif isinstance(inner, OddWalkCertificate):
        ok, msg = check_odd_walk(sub, kind, inner)
    else:
        return False, "an induced subgraph is refuted only by a flip exhaustion or an odd walk"
    return (True, "ok") if ok else (False, f"induced subgraph: {msg}")


_OPPOSITION_OBSTRUCTIONS = {p.name: p for p in (GRAPH_A, GRAPH_G1, GRAPH_G2)}
_TK_NAME = re.compile(r"T([1-9][0-9]{0,5})")


def _pattern_name(match: PatternMatch) -> str | None:
    name = getattr(match.pattern, "name", None)
    return name if isinstance(name, str) else None


def _named_obstruction(g: Graph, graph_class: str, name: str | None) -> Pattern | None:
    """The canonical pattern a witness name stands for in a class: N for
    coalition; A, G1, G2 or T<k> otherwise.  None for no name, any other
    name, or a T<k> larger than the graph."""
    if graph_class == COALITION or name is None:
        return GRAPH_N if name == "N" else None
    if name in _OPPOSITION_OBSTRUCTIONS:
        return _OPPOSITION_OBSTRUCTIONS[name]
    tk = _TK_NAME.fullmatch(name)
    if tk is not None and 2 * int(tk[1]) + 6 <= g.n:
        return make_Tk(int(tk[1]))
    return None


def check_verdict(g: Graph, v: Verdict) -> tuple[bool, str]:
    """Dispatch a full verdict to the independent checkers.

    A witness is checked against the canonical pattern its name stands
    for (``_named_obstruction``), never against the edges it carries.
    """
    if v.graph_class not in GRAPH_CLASSES:
        return False, f"unknown graph class {v.graph_class!r}"
    aux_kind = COALITION if v.graph_class == COALITION else OPPOSITION
    if v.witness is not None:
        if not isinstance(v.witness, PatternMatch):
            return False, "witness is not a pattern embedding"
        name = _pattern_name(v.witness)
        pattern = _named_obstruction(g, v.graph_class, name)
        if pattern is None:
            return False, f"witness: {name!r} is no {v.graph_class} obstruction"
        ok, msg = check_pattern_match(g, PatternMatch(pattern, v.witness.mapping))
        if not ok:
            return False, f"witness: {msg}"
    if v.decision == MEMBER:
        if not isinstance(v.certificate, Orientation):
            return False, "member verdict without an orientation"
        return check_orientation(g, v.certificate, v.graph_class)
    if v.decision == NON_MEMBER:
        cert = v.certificate
        if isinstance(cert, OddWalkCertificate):
            return check_odd_walk(g, aux_kind, cert)
        # generalized opposition allows cycles, so exhausted flips refute
        # nothing there; induced subgraphs come from the flip search and
        # are held to its classes
        if isinstance(cert, (FlipExhaustion, InducedSubgraph)) and v.graph_class == GENERALIZED_OPPOSITION:
            return False, "flip exhaustions and induced subgraphs refute only opposition and coalition"
        if isinstance(cert, FlipExhaustion):
            return check_flip_exhaustion(g, aux_kind, cert)
        if isinstance(cert, InducedSubgraph):
            return check_induced_subgraph(g, aux_kind, cert)
        if isinstance(cert, PatternMatch):
            # N is the one pattern known to lie outside a class (coalition);
            # its edges come from GRAPH_N, never from the certificate
            if v.graph_class != COALITION or _pattern_name(cert) != "N":
                return False, "only N embeddings refute membership, and only coalition"
            return check_pattern_match(g, PatternMatch(GRAPH_N, cert.mapping))
        return False, "non-member verdict without a certificate"
    if v.decision == UNDECIDED:
        if v.certificate is not None:
            return False, "undecided verdicts carry no certificate"
        return True, "ok (undecided)"
    return False, f"unknown decision {v.decision!r}"
