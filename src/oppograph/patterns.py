"""Forbidden-pattern catalog and structural graph-class detectors.

Covers induced-subgraph search (backtracking over an explicit stack), hole
finding, chordality with certificates, ptolemaic recognition, the
distance-hereditary test (pendants and twins removed in rounds), and the
T_k and H_k obstruction families.

The chordality, distance-hereditary and (gem, house)-free tests have
yes/no forms (``_perfect_elimination_order``, ``_prunes``,
``_gem_house_free``) for the recognizers (``_prunes`` also tells a DH
graph's chordality); witnesses are built only by the public functions that
return them, and only when the test fails.  The (gem, house)-free test
walks P4s in ``p4.mid_edge_blocks``, as the constraint core does; the
checker in ``verify`` keeps its own walk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .graphs import Graph, bits, neighbour_bits
from .p4 import induced_p4s, mid_edge_blocks


@dataclass(frozen=True)
class Pattern:
    """A small named graph with optional role labels for special vertices."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    roles: tuple[tuple[str, int], ...] = ()

    def role(self, label: str) -> int:
        for key, v in self.roles:
            if key == label:
                return v
        raise KeyError(label)

    def as_graph(self) -> Graph:
        return Graph(self.n, self.edges)


@dataclass(frozen=True)
class PatternMatch:
    """An injective embedding inducing exactly the pattern's edges."""

    pattern: Pattern
    mapping: tuple[int, ...]


def _pat(name, n, edges, roles=()):
    return Pattern(name, n, tuple(sorted(tuple(sorted(e)) for e in edges)), tuple(roles))


GEM = _pat("gem", 5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
# complement of the path 0-1-2-3-4
HOUSE = _pat("house", 5, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)], [("roof-apex", 2)])
DOMINO = _pat("domino", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
GRAPH_A = _pat("A", 6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 5)])
GRAPH_G1 = _pat(
    "G1", 9,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (3, 6), (6, 7), (7, 8)],
)
GRAPH_G2 = _pat(
    "G2", 9,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (3, 6), (2, 7), (3, 7), (7, 8)],
)
GRAPH_N = _pat(
    "N", 6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4), (4, 5)], [("tail", 5)]
)


def cycle_pattern(k: int) -> Pattern:
    return _pat(f"C{k}", k, [(i, (i + 1) % k) for i in range(k)])


CATALOG = {p.name: p for p in (GEM, HOUSE, DOMINO, GRAPH_A, GRAPH_G1, GRAPH_G2, GRAPH_N)}
CATALOG["C4"] = cycle_pattern(4)
CATALOG["C5"] = cycle_pattern(5)


def make_Tk(k: int) -> Pattern:
    """The tree obstruction: a 2k+4 spine with pendants on the 3rd and
    (2k+2)-th spine vertices (labeled "1" and "2k")."""
    if k < 1:
        raise ValueError("k must be at least 1")
    spine = 2 * k + 4
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges.append((2, spine))
    edges.append((2 * k + 1, spine + 1))
    return _pat(f"T{k}", spine + 2, edges, [("1", 2), ("2k", 2 * k + 1)])


def make_Hk(k: int, variant: str = "full") -> Pattern:
    """The rooted gadget H_k or H_k^- (H_1^- is H_1 itself).

    Built inductively: H_{j+1} joins a new vertex v_{j+1} to all of
    N[v_j] (the minus variant to N[v_j] minus v_0), then hangs the tail
    v_{j+1}' - v_{j+1}''.  Vertex ids start at the root: v_k, v_k',
    v_k'' are 0, 1, 2, then v_0, v_0', v_0'', v_1, ...  Unrolled, H_1 is
    v_0 - v_1 with the tails v_0' - v_0'' and v_1' - v_1'' hung off v_1,
    and each later v_j sees v_i and v_i' for i < j (v_0 not in the minus
    variant) and its own v_j'.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if variant not in ("full", "minus"):
        raise ValueError(f"variant must be 'full' or 'minus', got {variant!r}")
    v = lambda i: 0 if i == k else 3 * i + 3  # v_i' and v_i'' follow v_i
    skip_v0 = variant == "minus"
    edges = [(v(i) + 1, v(i) + 2) for i in range(k + 1)]
    for j in range(1, k + 1):
        edges += [(v(j), v(i) + 1) for i in range(j + 1)]
        edges += [(v(j), v(i)) for i in range(1 if skip_v0 and j >= 2 else 0, j)]
    ticks = ("", "'", "''")
    roles = [(f"v{i}{ticks[t]}", v(i) + t) for i in (k, *range(k)) for t in range(3)]
    suffix = "-" if variant == "minus" else ""
    return _pat(f"H{k}{suffix}", 3 * k + 3, edges, roles)


# ---------------------------------------------------------------------------
# induced-subgraph search


def find_induced(g: Graph, p: Pattern) -> PatternMatch | None:
    """Backtracking induced-subgraph isomorphism, deterministic order.

    Pattern vertices are matched in id order with host candidates tried
    ascending, so a hit is the lexicographically least embedding.  Vertex
    i draws its candidates from the neighbours of its anchor's image (its
    least earlier neighbour), or from every host vertex.  An explicit stack
    holds one candidate iterator per level, so nothing recurses.
    """
    if p.n > g.n:
        return None
    padj: list[set[int]] = [set() for _ in range(p.n)]
    for u, v in p.edges:
        padj[u].add(v)
        padj[v].add(u)
    pdeg = [len(s) for s in padj]
    anchor = [min((j for j in padj[i] if j < i), default=-1) for i in range(p.n)]
    mapping: list[int] = []  # the images of pattern vertices 0 .. i - 1
    used = [False] * g.n
    stack = []  # the candidate iterators of levels 0 .. i
    while len(mapping) < p.n:
        i = len(mapping)
        if len(stack) == i:
            a = anchor[i]
            stack.append(iter(range(g.n) if a < 0 else g.sorted_neighbors(mapping[a])))
        back = padj[i]
        for cand in stack[i]:
            if used[cand] or g.degree(cand) < pdeg[i]:
                continue
            cadj = g.adj[cand]
            if all((j in back) == (mapping[j] in cadj) for j in range(i)):
                mapping.append(cand)
                used[cand] = True
                break
        else:
            stack.pop()
            if not stack:
                return None
            used[mapping.pop()] = False
    return PatternMatch(p, tuple(mapping))


def find_Tk_free_violation(g: Graph) -> tuple[int, PatternMatch] | None:
    """Smallest k with an induced T_k, or None."""
    k = 1
    while 2 * k + 6 <= g.n:
        match = find_induced(g, make_Tk(k))
        if match is not None:
            return k, match
        k += 1
    return None


def find_max_Hk(g: Graph) -> tuple[int, str, PatternMatch] | None:
    """Largest k such that H_k or H_k^- embeds, with the embedding.

    Containment is monotone in k, so the scan walks upward and stops at
    the first k where both variants fail.
    """
    maxdeg = max((g.degree(v) for v in range(g.n)), default=0)
    best = None
    k = 1
    # the root v_k has degree 2k+1 in H_k and 2k in H_k^-
    while 3 * k + 3 <= g.n and 2 * k <= maxdeg:
        hit = None
        match = find_induced(g, make_Hk(k, "full"))
        if match is not None:
            hit = (k, "full", match)
        elif k >= 2:
            match = find_induced(g, make_Hk(k, "minus"))
            if match is not None:
                hit = (k, "minus", match)
        if hit is None:
            break
        best = hit
        k += 1
    return best


# ---------------------------------------------------------------------------
# holes and chordality


def has_hole(g: Graph) -> PatternMatch | None:
    """Find an induced cycle of length >= 5, or None.

    For each induced P4 a-b-c-d, searches a shortest a-d path avoiding
    (N[b] u N[c]) minus {a, d}; such a path closes an induced cycle
    through the seed.
    """
    for a, b, c, d in induced_p4s(g):
        blocked = (g.adj[b] | g.adj[c] | {b, c}) - {a, d}
        prev = {a: -1}
        queue = deque([a])
        found = False
        while queue and not found:
            v = queue.popleft()
            for w in g.sorted_neighbors(v):
                if w in blocked or w in prev:
                    continue
                prev[w] = v
                if w == d:
                    found = True
                    break
                queue.append(w)
        if found:
            path = [d]
            while path[-1] != a:
                path.append(prev[path[-1]])
            path.reverse()  # a .. d
            cycle = path + [c, b]
            return PatternMatch(cycle_pattern(len(cycle)), tuple(cycle))
    return None


def _mcs_elimination_order(g: Graph) -> list[int]:
    """Maximum cardinality search, reversed: the vertex with the most
    visited neighbours is visited next, the least id on ties.

    A heap holds the int key ``v - weight * n`` per vertex (stale keys are
    skipped when they surface), so the order costs O((n + m) log n).
    """
    n = g.n
    weight = [0] * n
    visited = [False] * n
    visit_order = []
    heap = list(range(n))  # every weight 0: already a heap
    while heap:
        key = heappop(heap)
        v = key % n
        if visited[v] or key != v - weight[v] * n:
            continue
        visited[v] = True
        visit_order.append(v)
        for u in g.adj[v]:
            if not visited[u]:
                weight[u] += 1
                heappush(heap, u - weight[u] * n)
    visit_order.reverse()
    return visit_order


def _perfect_elimination_order(g: Graph) -> tuple[int, ...] | None:
    """The MCS order when it is a perfect elimination order, else None:
    ``is_chordal`` without the witness, in O((n + m) log n)."""
    order = _mcs_elimination_order(g)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    for v in order:
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        parent = min(later, key=lambda u: pos[u])
        for u in later:
            if u != parent and u not in g.adj[parent]:
                return None
    return tuple(order)


def is_chordal(g: Graph) -> tuple[int, ...] | PatternMatch:
    """Perfect elimination order, or an induced C_k (k >= 4) witness.

    The order test costs O((n + m) log n); only a failure pays for the
    witness search (an induced C4, else a hole).
    """
    order = _perfect_elimination_order(g)
    if order is not None:
        return order
    witness = find_induced(g, cycle_pattern(4))
    if witness is None:
        witness = has_hole(g)
    assert witness is not None, "PEO test failed but no induced cycle found"
    return witness


def is_ptolemaic(g: Graph) -> tuple[bool, PatternMatch | None]:
    """Chordal and gem-free; the witness explains a failure.  A chordal
    graph has no house (it holds a C4), so ``_gem_house_free`` decides."""
    res = is_chordal(g)
    if isinstance(res, PatternMatch):
        return False, res
    if _gem_house_free(g):
        return True, None
    return False, find_induced(g, GEM)


# ---------------------------------------------------------------------------
# distance-hereditary pruning


def _prunes(g: Graph) -> tuple[bool, bool]:
    """Whether pendants and twins prune g to an edgeless graph (the yes/no
    test of ``is_distance_hereditary``), and if so whether g is chordal.

    Removing a pendant or a twin keeps a graph distance-hereditary or not,
    and a DH graph with an edge has one of them, so the order of removals
    does not matter.  Each round first strips the pendant chains that
    start at its vertices, then keys each one left by its N(v) and N[v]
    bitsets in one dict (an open key never equals a closed one: N(w) =
    N[u] would put w in N[u] = N(w)).  A vertex whose key is held by a
    live vertex is a twin and is removed; a key held by a removed vertex
    passes to the next vertex with that key.  A live owner still has the
    key: its key changes only by losing the bit of a removed vertex, and
    no vertex keyed later has that bit.  The next round gets the
    neighbours of the removed vertices, whose keys and degrees changed.

    A DH graph has a C4 (else it is chordal) iff the pruning removes a
    false twin v of u with p, q in N(v) apart (C4 v-p-u-q): a pendant is
    on no C4, a twin removed from a C4 leaves its partner in its place
    unless that is the vertex opposite, and no C4 outlasts the pruning.
    """
    mask = list(neighbour_bits(g))
    degree = [len(s) for s in g.adj]
    alive = [True] * g.n
    owner: dict[int, int] = {}  # N(v) or N[v], as a bitset -> v
    hit: set[int] = set()
    chordal = True

    def remove(v: int) -> None:
        alive[v] = False
        for u in g.adj[v]:
            if alive[u]:
                mask[u] ^= 1 << v
                degree[u] -= 1
                hit.add(u)

    todo = range(g.n)
    while todo:
        for v in todo:
            while alive[v] and degree[v] == 1:
                u = mask[v].bit_length() - 1  # the one neighbour left
                remove(v)
                v = u
        for v in todo:
            for key in (mask[v], mask[v] | 1 << v) if alive[v] else ():
                u = owner.setdefault(key, v)
                if u != v and alive[u]:
                    if chordal and key == mask[v]:  # a false twin
                        chordal = all(key & ~mask[w] == 1 << w for w in bits(key))
                    remove(v)
                    break
                owner[key] = v
        todo = list(hit)
        hit.clear()
    return not any(m for v, m in enumerate(mask) if alive[v]), chordal


def _gem_house_free(g: Graph) -> bool:
    """Whether g has no induced gem or house, read off its induced P4s.

    G has one exactly when some induced P4 a-b-c-d has a vertex adjacent
    to a, to d, and to b or c: one seeing all four makes a gem, one seeing
    a, b, d or a, c, d a house (no vertex of the P4 sees both ends).  Every
    gem and house holds such a P4 with such a vertex.

    The P4s stream one block of `p4.mid_edge_blocks` at a time, a in L
    and d in R minus N(a), and the test stops at the first d with
    N(d) & N(a) & (N(b) | N(c)) non-empty.  It lists no P4.
    """
    nbr = neighbour_bits(g)
    for b, c, left, right in mid_edge_blocks(nbr, g.edges):
        middle = nbr[b] | nbr[c]
        for a in bits(left):
            seen = nbr[a] & middle
            for d in bits(right & ~nbr[a]):
                if nbr[d] & seen:
                    return False
    return True


def is_distance_hereditary(g: Graph) -> tuple[bool, PatternMatch | None]:
    """Distance-hereditary, by pruning pendants and twins in rounds; a
    failure's witness is a gem, house, domino or hole.

    The pruning (``_prunes``) costs O(n + m) set and dict operations, each
    on n-bit int keys of O(n/w) digits (w bits per digit).  Only a
    failure pays for the backtracking witness search, which skips the gem
    and house when ``_gem_house_free`` finds none.
    """
    if _prunes(g)[0]:
        return True, None
    for p in (DOMINO,) if _gem_house_free(g) else (GEM, HOUSE, DOMINO):
        witness = find_induced(g, p)
        if witness is not None:
            return False, witness
    witness = has_hole(g)
    assert witness is not None, "pruning stuck but no forbidden pattern found"
    return False, witness
