import random

import pytest

from oppograph.graphs import Graph, complement, cycle_graph, parse_edge_list
from oppograph.patterns import Pattern, find_induced, make_Hk

CO_C6_EDGE_LIST = "1 3\n3 5\n5 1\n2 4\n4 6\n6 2\n1 4\n3 6\n5 2\n"

# the net graph: triangle 2-3-5 with pendants 1, 4, 6
N_EDGE_LIST = "1 2\n2 3\n3 4\n2 5\n3 5\n5 6\n"


@pytest.fixture
def co_c6_labeled():
    return parse_edge_list(CO_C6_EDGE_LIST)


@pytest.fixture
def co_c6():
    return complement(cycle_graph(6))


@pytest.fixture
def h1():
    return make_Hk(1).as_graph()


@pytest.fixture
def h2():
    return make_Hk(2).as_graph()


def isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism via induced embedding between equal-size graphs."""
    if g.n != h.n or g.m != h.m:
        return False
    pattern = Pattern("iso-probe", h.n, h.edges)
    return find_induced(g, pattern) is not None


def random_graph(n: int, p: float, seed) -> Graph:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def hub_last_k2(k: int) -> Graph:
    """K_{2,k} with the leaves 0..k-1 first and the two hubs k, k + 1 last."""
    return Graph(k + 2, [(i, k + h) for i in range(k) for h in (0, 1)])


def hubs_first_k2(k: int) -> Graph:
    """K_{2,k} with the two hubs 0, 1 first and the leaves 2..k + 1 after."""
    return Graph(k + 2, [(h, 2 + i) for i in range(k) for h in (0, 1)])


def clique_blowup(g: Graph, t: int) -> Graph:
    """g with every vertex v replaced by the clique K_t on t*v .. t*v + t - 1,
    two cliques joined completely where g has an edge."""
    edges = [(t * v + i, t * v + j) for v in range(g.n) for i in range(t) for j in range(i + 1, t)]
    edges += [(t * u + i, t * v + j) for u, v in g.edges for i in range(t) for j in range(t)]
    return Graph(g.n * t, edges)


def aux_graph(cg) -> Graph:
    """The auxiliary graph of a ConstraintGraph, vertex i standing for variable i."""
    return Graph(cg.var_count, [(i, j) for i, js in enumerate(cg.adj) for j in js if i < j])


def disjoint_union(gs) -> Graph:
    """The graphs side by side, each one's ids shifted past the previous ones."""
    edges, off = [], 0
    for g in gs:
        edges += [(u + off, v + off) for u, v in g.edges]
        off += g.n
    return Graph(off, edges)


def shuffled_union(gs, seed) -> Graph:
    """The disjoint union with its vertex ids permuted by a seeded shuffle,
    so no component keeps a block of consecutive ids."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    g = disjoint_union(gs)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def triangle_strip(k, closed=False):
    """Vertex 0, then k - 1 vertices that alternate between a pendant on
    the newest vertex and a true twin of it: triangles joined at their
    even vertices.  The closed strip adds vertex k on both ends, which
    closes a cycle through the even vertices (a house at k = 5, a hole
    from k = 7 on)."""
    nbrs = [set()]  # the neighbours of v below v, all of them while v is newest
    for v in range(1, k):
        nbrs.append({v - 1} if v % 2 else nbrs[v - 1] | {v - 1})
    edges = [(u, v) for v in range(k) for u in nbrs[v]]
    return Graph(k + 1, edges + [(0, k), (k - 1, k)]) if closed else Graph(k, edges)
