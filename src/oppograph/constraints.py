"""Auxiliary constraint graphs over end-edge orientation variables.

For each edge {x, y} that is an end-edge of an induced P4 there are two
variables (x, y) and (y, x), one per direction, always adjacent to each
other.  A P4 a-b-c-d adds, per kind:

  opposition:  (a,b) ~ (c,d)  and  (b,a) ~ (d,c)
  coalition:   (a,b) ~ (d,c)  and  (b,a) ~ (c,d)

so that independent sets of the auxiliary graph are exactly the
conflict-free direction choices.  Bipartiteness therefore decides the
"generalized" membership question, and the sides of the end-edges, one
bit per class, induce the forced partial orientation.

The graphs are built from mid-edge blocks without listing P4s, in one
pass over the quotient of G by its twin classes, and a neighbour list
is generated from G only when asked for (see
``ConstraintGraph.neighbours``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import (
    DirectedCycleCertificate,
    Graph,
    Orientation,
    PartialOrientation,
    bits,
    dot_quote,
    neighbour_bits,
    orient_along,
    topo_order_or_cycle,
)
from .p4 import COALITION, OPPOSITION

ArcVar = tuple[int, int]


def _twin_quotient(g: Graph) -> tuple[list[int], list[int], list[int]] | None:
    """The quotient of g by its twin classes, or None when g has no twins.

    Open twins (equal N(v)) and closed twins (equal N[v]) are collapsed
    into their least vertex until no twins are left; no vertex has twins
    of both kinds.  Each class is a module that induces a cograph, so no
    P4 meets it twice.  Returns (rep, weight, nbr): rep[v] is the least
    vertex of v's class, and a representative r has the class size
    weight[r] and the quotient neighbourhood bitset nbr[r].  Only the
    neighbours of a collapsed vertex are hashed again, so the collapse
    takes O(n + m) dict operations on n-bit keys.
    """
    n = g.n
    nbr = list(neighbour_bits(g))
    rep = list(range(n))
    weight = [1] * n
    owner: dict[int, int] = {}  # N(v) and N[v], as bitsets, of every vertex v left
    todo, gone = range(n), 0
    while todo:
        hit = 0  # the neighbours of the vertices collapsed this round
        for v in todo:
            for key in (nbr[v], nbr[v] | 1 << v):
                u = owner.setdefault(key, v)
                if u == v:
                    continue
                a, b = (u, v) if u < v else (v, u)  # b joins a's class
                for k in (nbr[b], nbr[b] | 1 << b):
                    if owner.get(k) == b:
                        del owner[k]
                owner[key] = a
                rep[b] = a
                weight[a] += weight[b]
                gone |= 1 << b
                hit |= nbr[b]
                if b == v:
                    break
        todo = list(bits(hit & ~gone))
        for v in todo:
            for k in (nbr[v], nbr[v] | 1 << v):
                del owner[k]
            nbr[v] &= ~gone
    if not gone:
        return None
    for v in range(n):
        rep[v] = rep[rep[v]]  # rep[v] <= v, so rep[rep[v]] is final
    return rep, weight, nbr


class ConstraintGraph:
    """The auxiliary graph O(G) (kind "opposition") or C(G) ("coalition").

    As (x, y) and (y, x) take opposite sides, a P4 a-b-c-d puts a->b on
    the side of d->c (opposition) or of c->d (coalition).  The block of a
    mid-edge {b, c} has L = N(b) minus N[c] and R = N(c) minus N[b]; its
    P4s are a-b-c-d with a in L, d in R, a and d non-adjacent.  All
    variables of one component of that L-R non-adjacency share a side, so
    each component is merged into one class.  A class is a list of
    end-edges, each keeping its side relative to the list's first edge;
    a merge relabels the smaller list into the larger (O(m log m) in
    all) and carries the bad mark, which a link contradicting the sides
    sets.  The classes are the components of the auxiliary graph; a
    class is bipartite unless bad.  L and R are Python-int bitsets, with
    b the end of smaller degree.  Sweeps from L find the components, each
    visited vertex taking its unvisited non-neighbours across with one
    AND-NOT, so the pass costs O(sum over edges of the smaller side +
    #P4s) big-int operations, O(k) on K_{2,k}.

    The pass runs on the quotient of G by its twin classes
    (``_twin_quotient``), or on G itself when G has average degree below
    6 or no twins.  No P4 meets a class twice, so the P4s of G are the
    lifts of the quotient's: an edge of G between two classes takes the
    class and side of their quotient edge, an edge inside a class is in
    no P4, and a quotient P4 A-B-C-D counts |A||B||C||D| times.  The
    class sizes are split into bit planes, so the far side of a block is
    weighed with one bit count per plane.

    ``vars`` holds both arcs of every end-edge, sorted by edge: variable
    2k is the k-th end-edge (x, y) with x < y and 2k + 1 is (y, x).
    ``edge_class[k]`` is the class of end-edge k (numbered by least
    end-edge), ``class_bad[c]`` whether class c is not bipartite, and
    ``edge_side[k]`` the side of variable 2k relative to the least
    end-edge of its class; sides are defined only in bipartite classes.
    No aux link arises from two P4s, so there are #end-edges + 2 #P4 aux
    edges.  ``neighbours(i)`` generates one neighbour list from G, so an
    odd walk builds only the lists its BFS pops; ``adj`` holds them all.
    """

    __slots__ = (
        "kind", "base", "vars", "p4_count",
        "edge_class", "edge_side", "class_bad", "_arcs", "_adj",
    )

    def __init__(self, kind: str, base: Graph):
        if kind not in (OPPOSITION, COALITION):
            raise ValueError(f"constraint graph kind must be opposition or coalition, got {kind!r}")
        edges = base.edges
        # below average degree 6 the pass on G is too cheap for the
        # collapse to pay for itself
        quotient = _twin_quotient(base) if len(edges) >= 3 * base.n else None
        if quotient is None:
            weight, nbr, planes = None, neighbour_bits(base), None
            degree = list(map(len, base.adj))
        else:  # the block pass runs on the quotient
            rep, weight, nbr = quotient
            degree = list(map(int.bit_count, nbr))
            edges = [(r, s) for r in range(base.n) if rep[r] == r for s in bits(nbr[r] >> r + 1 << r + 1)]
            # plane k holds the representatives whose class size has bit k set
            planes = [0] * max(weight).bit_length()
            for r, w in enumerate(weight):
                if rep[r] == r:
                    for k in bits(w):
                        planes[k] |= 1 << r
        # edge ids by endpoint: inc[u][v] is the id of {u, v}
        inc: list[dict[int, int]] = [{} for _ in range(base.n)]
        for e, (u, v) in enumerate(edges):
            inc[u][v] = inc[v][u] = e
        m = len(edges)
        # a class is the list members[h] at its first end-edge h = head[e];
        # parity[e] is the side of e's (low, high) variable XOR its head's
        head = list(range(m))
        parity = [0] * m
        members = [[e] for e in range(m)]
        bad = [False] * m

        coalition = kind == COALITION
        p4_count = 0
        for b, c in edges:
            if degree[b] > degree[c]:
                b, c = c, b
            nb, nc = nbr[b], nbr[c]
            unl, unr = nb & ~nc & ~(1 << c), nc & ~nb & ~(1 << b)  # in no component yet
            while unl and unr:
                first = (unl & -unl).bit_length() - 1
                comp, before = ([first], []), unr
                # here, there: the unvisited of the frontier's side and of side far
                frontier, far, here, there = comp[0], 1, unl ^ 1 << first, unr
                while there:
                    new = 0
                    for v in frontier:
                        got = there & ~nbr[v]
                        if got:
                            there ^= got
                            new |= got
                            if not there:
                                break
                    if not new:
                        break
                    frontier = list(bits(new))
                    comp[far].extend(frontier)
                    far, here, there = 1 - far, there, here
                unl, unr = (here, there) if far else (there, here)
                comp_r = before ^ unr  # the component's part of R
                if not comp_r:
                    continue  # first has no P4 in this block
                # unit weights: the weighted loop below, with one all-ones
                # plane, cost flip-unions 4 % of decide_per_s (BENCH_24.json)
                if planes is None:
                    for a in comp[0]:
                        p4_count += (comp_r & ~nbr[a]).bit_count()
                else:  # a P4 A-B-C-D of the quotient lifts to |A||B||C||D| P4s
                    lifts = 0
                    for a in comp[0]:
                        ds = comp_r & ~nbr[a]
                        lifts += weight[a] * sum(
                            (ds & plane).bit_count() << k for k, plane in enumerate(planes)
                        )
                    p4_count += weight[b] * weight[c] * lifts
                # a->b for a in comp[0] and d->c (c->d for coalition) for
                # d in comp[1] all take the side of first->b
                e0 = inc[b][first]
                r0, p0 = head[e0], parity[e0] ^ (first > b)
                for x, vs, flip in ((b, comp[0], False), (c, comp[1], coalition)):
                    inc_x = inc[x]
                    for v in vs:
                        e = inc_x[v]
                        r = head[e]
                        need = parity[e] ^ p0 ^ (v > x) ^ flip  # parity r must have relative to r0
                        if r == r0:
                            if need:
                                bad[r0] = True
                            continue
                        if len(members[r]) > len(members[r0]):
                            r, r0 = r0, r
                            p0 ^= need  # first's parity relative to the new head
                        small = members[r]
                        for f in small:
                            head[f] = r0
                            parity[f] ^= need
                        members[r0] += small
                        members[r] = None
                        bad[r0] = bad[r0] or bad[r]

        if quotient is not None:
            # an edge of G between two classes takes the class and side of
            # their quotient edge, the side flipped if the representatives
            # are in the other order; an edge inside a class is in no P4,
            # so it joins the singleton class m
            head.append(m)
            parity.append(0)
            members.append([m])
            edges = base.edges
            lift = [inc[rep[x]].get(rep[y], m) for x, y in edges]
            head = [head[e] for e in lift]
            parity = [parity[e] ^ (rep[x] > rep[y]) for e, (x, y) in zip(lift, edges)]
            m = len(edges)

        # an edge in a P4 shares its class with the far end-edge, so the
        # singleton classes are the edges in no P4
        vars_: list[ArcVar] = []
        edge_class: list[int] = []
        edge_side: list[int] = []
        class_of_head: dict[int, int] = {}
        class_parity: list[int] = []
        class_bad: list[bool] = []
        for e in range(m):
            r, p = head[e], parity[e]
            if len(members[r]) == 1:
                continue
            x, y = edges[e]
            vars_.append((x, y))
            vars_.append((y, x))
            k = class_of_head.get(r)
            if k is None:
                k = class_of_head[r] = len(class_bad)
                class_parity.append(p)
                class_bad.append(bad[r])
            edge_class.append(k)
            edge_side.append(p ^ class_parity[k])
        self.kind = kind
        self.base = base
        self.vars = vars_
        self.p4_count = p4_count
        self.edge_class = edge_class
        self.edge_side = edge_side
        self.class_bad = class_bad
        self._arcs: list[dict[int, int]] | None = None  # arc -> variable id
        self._adj: list[list[int]] | None = None

    @property
    def var_count(self) -> int:
        return len(self.vars)

    @property
    def bipartite(self) -> bool:
        """No class is bad, so the auxiliary graph has no odd cycle."""
        return not any(self.class_bad)

    @property
    def adj(self) -> list[list[int]]:
        """Every variable's ``neighbours``, built on first read."""
        if self._adj is None:
            self._adj = [self.neighbours(i) for i in range(self.var_count)]
        return self._adj

    def neighbours(self, i: int) -> list[int]:
        """Sorted neighbour ids of variable i = (x, y), generated from G.

        (x, y) is linked to (y, x), to the far end-edge of every P4
        x-y-c-d, read (c, d) for opposition and (d, c) for coalition, and
        to that of every P4 y-x-c-d, read the other way round.
        """
        arcs = self._arcs
        if arcs is None:
            arcs = self._arcs = [{} for _ in range(self.base.n)]
            for j, (u, v) in enumerate(self.vars):
                arcs[u][v] = j  # the id of (u, v)
        x, y = self.vars[i]
        adj = self.base.adj
        ax, ay = adj[x], adj[y]
        closed = ax | ay  # holds x and y
        beyond_y, beyond_x = ay.difference(ax, (x,)), ax.difference(ay, (y,))
        if self.kind == COALITION:
            out = [arcs[d][c] for c in beyond_y for d in adj[c] - closed]
            out += [arcs[c][d] for c in beyond_x for d in adj[c] - closed]
        else:
            out = [arcs[c][d] for c in beyond_y for d in adj[c] - closed]
            out += [arcs[d][c] for c in beyond_x for d in adj[c] - closed]
        out.append(i ^ 1)
        out.sort()
        return out

    def to_dot(self, attrs: list[str] | None = None) -> str:
        """DOT text with one node per variable, named by its id and
        labelled ``x->y``; ``attrs[i]`` adds attributes to node i."""
        lines = ["graph {"]
        for i, (x, y) in enumerate(self.vars):
            label = dot_quote(f"{self.base.label(x)}->{self.base.label(y)}")
            extra = f", {attrs[i]}" if attrs else ""
            lines.append(f"  {i} [label={label}{extra}];")
        for i in range(self.var_count):
            lines.extend(f"  {i} -- {j};" for j in self.adj[i] if i < j)
        lines.append("}")
        return "\n".join(lines) + "\n"


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


def _first_conflict_walk(cg: ConstraintGraph, start: int) -> tuple[ArcVar, ...]:
    """The tree-path walk through the first conflict of a BFS 2-coloring
    from ``start``, a variable of a non-bipartite class.

    Neighbours are scanned in id order; at the first neighbour w of the
    popped v on v's side, the walk runs from the lowest common ancestor of
    v and w down to v and back up from w.  Only the popped variables get
    neighbour lists, so the walk costs O(variables + aux edges) over the
    part of the class the BFS reaches, and reads at most one list per
    variable of the class.
    """
    side = {start: 0}
    parent = {start: -1}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in cg.neighbours(v):
            if w not in side:
                side[w] = 1 - side[v]
                parent[w] = v
                queue.append(w)
            elif side[w] == side[v]:
                px, py = _path_up(parent, v), _path_up(parent, w)
                sx = set(px)
                lca = next(u for u in py if u in sx)
                walk = px[: px.index(lca) + 1][::-1] + py[: py.index(lca) + 1]
                return tuple(cg.vars[u] for u in walk)
    raise ValueError("the class of the start variable is bipartite")


def bipartition_or_odd_walk(cg: ConstraintGraph) -> OddWalkCertificate | None:
    """None when O(G) or C(G) is bipartite; otherwise a verifiable odd
    closed walk.

    The classes are then the components, and variable 2k + j has side
    ``edge_side[k] ^ j``, as a BFS 2-coloring in variable order gives it.
    The walk is the tree-path walk through the first conflict of a BFS
    2-coloring from the least variable of the first bad class
    (``_first_conflict_walk``), so equal inputs give equal certificates.
    It need not be shortest: any odd closed walk refutes bipartiteness,
    and the verifier checks only that.
    """
    bad = next((k for k, b in enumerate(cg.class_bad) if b), None)
    if bad is None:
        return None
    return OddWalkCertificate(_first_conflict_walk(cg, 2 * cg.edge_class.index(bad)))


def forced_orientation(cg: ConstraintGraph, flips: tuple[int, ...] | list[int]) -> PartialOrientation:
    """The partial orientation D(A) picked by one side per class of a
    bipartite O(G) or C(G).

    ``flips`` holds one bit per class choosing which side plays A there:
    end-edge k takes its variable on that side, ``vars[2k]`` when
    ``edge_side[k]`` equals the class's bit and ``vars[2k + 1]`` else.
    """
    if not cg.bipartite or len(flips) != len(cg.class_bad):
        raise ValueError("one flip bit per class of a bipartite aux graph required")
    return PartialOrientation(cg.base, [
        cg.vars[2 * k + (s != flips[c])] for k, (c, s) in enumerate(zip(cg.edge_class, cg.edge_side))
    ])


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
