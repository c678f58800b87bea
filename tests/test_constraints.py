import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import aux_graph, clique_blowup, hub_last_k2, isomorphic, random_graph, shuffled_union
from oppograph import constraints
from oppograph.constraints import (
    ConstraintGraph,
    OddWalkCertificate,
    _path_up,
    _twin_quotient,
    bipartition_or_odd_walk,
    extend_acyclic,
    forced_orientation,
    is_acyclic,
)
from oppograph.generate import random_distance_hereditary, random_ptolemaic
from oppograph.graphs import (
    DirectedCycleCertificate,
    Graph,
    PartialOrientation,
    complete_graph,
    cycle_graph,
    neighbour_bits,
    parse_graph6,
    path_graph,
)
from oppograph.oracle import oracle_generalized_opposition
from oppograph.p4 import COALITION, OPPOSITION, end_edges, induced_p4s, orientation_good_for
from oppograph.patterns import GRAPH_N
from oppograph.recognize import recognize_coalition, recognize_opposition
from oppograph.verify import _end_edge_sides, aux_adjacent, brute_force_p4s, check_odd_walk, check_verdict

# frozen edge set of the auxiliary graph of the labeled co-C6 instance:
# two 6-cycles joined by the six negation edges, as variable-label pairs
CO_C6_AUX_EDGES = {
    frozenset(e)
    for e in [
        ("15", "51"), ("26", "62"), ("31", "13"), ("42", "24"), ("53", "35"), ("64", "46"),
        ("15", "26"), ("26", "31"), ("31", "42"), ("42", "53"), ("53", "64"), ("64", "15"),
        ("51", "62"), ("62", "13"), ("13", "24"), ("24", "35"), ("35", "46"), ("46", "51"),
    ]
}


def test_aux_p4_is_four_cycle():
    cg = ConstraintGraph(OPPOSITION, path_graph(4))
    assert cg.var_count == 4
    assert all(len(a) == 2 for a in cg.adj)
    assert bipartition_or_odd_walk(cg) is None
    assert len(cg.class_bad) == 1


def test_aux_co_c6_matches_known_edge_set(co_c6_labeled):
    cg = ConstraintGraph(OPPOSITION, co_c6_labeled)
    assert cg.var_count == 12
    label = [co_c6_labeled.label(x) + co_c6_labeled.label(y) for x, y in cg.vars]
    got = {
        frozenset((label[i], label[j]))
        for i in range(cg.var_count)
        for j in cg.adj[i]
        if i < j
    }
    assert got == CO_C6_AUX_EDGES
    assert bipartition_or_odd_walk(cg) is None


def test_aux_n_is_co_c6(co_c6):
    cg = ConstraintGraph(COALITION, GRAPH_N.as_graph())
    assert cg.var_count == 6
    assert isomorphic(aux_graph(cg), co_c6)
    res = bipartition_or_odd_walk(cg)
    assert isinstance(res, OddWalkCertificate)
    assert res.length() == 3
    assert check_odd_walk(GRAPH_N.as_graph(), COALITION, res) == (True, "ok")


def _assert_checker_sides_agree(g, kind):
    """The verifier's union-find gives the producer's classes and sides."""
    cg = ConstraintGraph(kind, g)
    found = _end_edge_sides(g, kind)
    assert (found is None) == (not cg.bipartite)
    if found is not None:
        sides, comps = found
        assert comps == len(cg.class_bad)
        assert sides == {
            cg.vars[2 * k]: (c, s) for k, (c, s) in enumerate(zip(cg.edge_class, cg.edge_side))
        }


def _reference_end_edge_sides(g, kind):
    """`_end_edge_sides` by the definition, for small g: every P4 of the
    4-subset scan joins its end-edge variables in a dict union-find with
    sides, variable (x, y) on the side of edge {x, y} iff x < y."""
    up = {}  # edge -> (parent edge, side relative to it)

    def root(x, y):
        e, side = (min(x, y), max(x, y)), int(x > y)
        up.setdefault(e, (e, 0))
        while up[e][0] != e:
            e, step = up[e]
            side ^= step
        return e, side

    for a, b, c, d in brute_force_p4s(g):
        # variable (a, b) lies across from (c, d) in O(G), from (d, c) in C(G)
        r, p = root(a, b)
        s, q = root(c, d) if kind == OPPOSITION else root(d, c)
        if r != s:
            up[r] = (s, p ^ q ^ 1)
        elif p == q:
            return None
    sides, heads = {}, {}
    for e in g.edges:
        if e in up:
            r, p = root(*e)
            comp, p0 = heads.setdefault(r, (len(heads), p))
            sides[e] = (comp, p ^ p0)
    return sides, len(heads)


def test_checker_sides_match_a_reference_over_the_4_subset_scan():
    # a reference that shares nothing with the producer or the checker's
    # mid-edge walk; None where the aux graph is not bipartite
    outcomes = set()
    for seed in range(400):
        g = random_graph(1 + seed % 9, (seed % 7 + 1) / 8, seed)
        for kind in (OPPOSITION, COALITION):
            found = _end_edge_sides(g, kind)
            assert found == _reference_end_edge_sides(g, kind), (seed, kind, g.edges)
            outcomes.add(found is None)
    assert outcomes == {False, True}


def test_aux_adjacency_matches_definition_quadratically():
    bipartite = set()
    for seed in range(8):
        g = random_graph(7, 0.45, seed)
        for kind in (OPPOSITION, COALITION):
            cg = ConstraintGraph(kind, g)
            for i in range(cg.var_count):
                for j in range(cg.var_count):
                    if i == j:
                        continue
                    expect = aux_adjacent(g, kind, cg.vars[i], cg.vars[j])
                    assert (j in cg.adj[i]) == expect, (seed, kind, cg.vars[i], cg.vars[j])
            _assert_checker_sides_agree(g, kind)
            bipartite.add(cg.bipartite)
    assert bipartite == {False, True}


@pytest.mark.parametrize("g", [
    clique_blowup(parse_graph6("EtXW"), 4),  # m >= 3n: the producer's quotient path
    clique_blowup(cycle_graph(5), 3),  # the same, O(G) not bipartite
    hub_last_k2(400),
    path_graph(3000),  # two aux components of about 1500 end-edges each
    cycle_graph(901),
], ids=["prism-K4", "C5-K3", "hub-last-K2,400", "P3000", "C901"])
def test_checker_sides_match_constraint_graph(g):
    for kind in (OPPOSITION, COALITION):
        _assert_checker_sides_agree(g, kind)


def test_o_c5_contains_odd_walk():
    cg = ConstraintGraph(OPPOSITION, cycle_graph(5))
    res = bipartition_or_odd_walk(cg)
    assert isinstance(res, OddWalkCertificate)
    assert res.length() % 2 == 1
    assert check_odd_walk(cycle_graph(5), OPPOSITION, res) == (True, "ok")


def test_bipartiteness_equals_generalized_oracle_small():
    for seed in range(40):
        g = random_graph(6, 0.5, seed)
        cg = ConstraintGraph(OPPOSITION, g)
        bip = bipartition_or_odd_walk(cg) is None
        assert bip == oracle_generalized_opposition(g).is_member


def test_forced_orientation_p4_both_sides():
    g = path_graph(4)
    cg = ConstraintGraph(OPPOSITION, g)
    p4 = induced_p4s(g)[0]
    for flip in (0, 1):
        d = forced_orientation(cg, (flip,))
        assert sorted((min(a), max(a)) for a in d.arcs()) == [(0, 1), (2, 3)]
        assert orientation_good_for(p4, d, OPPOSITION)


def test_forced_orientation_every_flip_makes_all_p4s_good():
    for seed in range(25):
        g = random_graph(7, 0.4, seed + 100)
        p4s = induced_p4s(g)
        for kind in (OPPOSITION, COALITION):
            cg = ConstraintGraph(kind, g)
            if bipartition_or_odd_walk(cg) is not None:
                continue
            ends = set(end_edges(g, p4s))
            for flips in itertools.product((0, 1), repeat=len(cg.class_bad)):
                d = forced_orientation(cg, flips)
                assert {(min(a), max(a)) for a in d.arcs()} == ends
                assert all(orientation_good_for(p, d, kind) for p in p4s)


def test_co_c6_labeled_forced_orientation_has_directed_triangle(co_c6_labeled):
    cg = ConstraintGraph(OPPOSITION, co_c6_labeled)
    assert bipartition_or_odd_walk(cg) is None
    assert len(cg.class_bad) == 1
    for flip in (0, 1):
        d = forced_orientation(cg, (flip,))
        res = is_acyclic(d)
        assert isinstance(res, DirectedCycleCertificate)
        assert len(res) == 3
        tri = {co_c6_labeled.label(v) for v in res.vertices}
        assert tri in ({"1", "3", "5"}, {"2", "4", "6"})


def test_is_acyclic_empty_and_triangle():
    g = cycle_graph(3)
    assert is_acyclic(PartialOrientation(g)) == [0, 1, 2]
    cyc = is_acyclic(PartialOrientation(g, [(0, 1), (1, 2), (2, 0)]))
    assert isinstance(cyc, DirectedCycleCertificate) and len(cyc) == 3


def test_extend_acyclic_p4_end_edges():
    g = path_graph(4)
    p = PartialOrientation(g, [(0, 1), (3, 2)])
    o = extend_acyclic(p)
    assert o.forward(0, 1) and not o.forward(2, 3)
    p4 = induced_p4s(g)[0]
    assert orientation_good_for(p4, o, OPPOSITION)


def test_extend_acyclic_empty_on_k3_uses_id_order():
    g = complete_graph(3)
    o = extend_acyclic(PartialOrientation(g))
    assert o.arcs() == [(0, 1), (0, 2), (1, 2)]


def test_extend_acyclic_h1_coalition(h1):
    cg = ConstraintGraph(COALITION, h1)
    assert bipartition_or_odd_walk(cg) is None
    d = forced_orientation(cg, (0,) * len(cg.class_bad))
    assert not isinstance(is_acyclic(d), DirectedCycleCertificate)
    o = extend_acyclic(d)
    from oppograph.p4 import verify_orientation

    assert verify_orientation(o, COALITION)


def test_extend_acyclic_rejects_cyclic():
    g = cycle_graph(3)
    with pytest.raises(ValueError):
        extend_acyclic(PartialOrientation(g, [(0, 1), (1, 2), (2, 0)]))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_extend_acyclic_properties(data):
    g = random_graph(data.draw(st.integers(1, 8)), data.draw(st.floats(0, 1)), data.draw(st.integers(0, 10**6)))
    if not g.edges:
        return
    k = data.draw(st.integers(0, g.m))
    chosen = list(g.edges)[:k]
    order = data.draw(st.permutations(range(g.n)))
    pos = {v: i for i, v in enumerate(order)}
    p = PartialOrientation(g, [(u, v) if pos[u] < pos[v] else (v, u) for u, v in chosen])
    o = extend_acyclic(p)
    for u, v in chosen:
        assert o.forward(u, v) == p.forward(u, v)
    from oppograph.graphs import topo_order_or_cycle

    assert topo_order_or_cycle(g.n, o.arcs())[0] is not None


def test_aux_dot_labels(co_c6_labeled):
    cg = ConstraintGraph(OPPOSITION, co_c6_labeled)
    dot = cg.to_dot()
    assert '[label="1->5"]' in dot and '[label="5->1"]' in dot
    assert dot.count(" -- ") == 18


def _pendant_cycle(k):
    """C_k with a pendant on every vertex."""
    return Graph(2 * k, [(i, (i + 1) % k) for i in range(k)] + [(i, k + i) for i in range(k)])


@pytest.mark.parametrize("kind", [OPPOSITION, COALITION])
def test_odd_walk_equals_eager_on_random_graphs(kind):
    lengths = set()
    for seed in range(300):
        g = random_graph(4 + seed % 11, 0.15 + 0.7 * ((seed * 37) % 100) / 100, seed + 5000)
        res = _assert_equals_eager(kind, g)
        if isinstance(res, OddWalkCertificate):
            lengths.add(res.length())
    assert lengths - {3}


@pytest.mark.parametrize("k", [5, 7, 9, 11, 21, 31, 815, 817])
def test_odd_walk_of_odd_cycle_is_the_whole_aux_cycle(k):
    res = _assert_equals_eager(OPPOSITION, cycle_graph(k))
    assert res.length() == k


@pytest.mark.parametrize("n, seed", [(40, 0), (40, 3), (48, 4), (48, 6)])
def test_odd_walk_equals_eager_on_distance_hereditary(n, seed):
    g = random_distance_hereditary(n, seed)
    for kind in (OPPOSITION, COALITION):
        _assert_equals_eager(kind, g)


def test_odd_walk_without_aux_triangles_equals_eager():
    # no aux triangle (nor in O(C_k), the odd cycle test above), so every
    # walk has length 5 or more
    from oppograph.generate import random_tree

    graphs = [_pendant_cycle(k) for k in range(7, 32, 2)]  # C(G) at k = 5 has one
    graphs += [random_tree(n, n) for n in range(20, 61, 5)]
    lengths = set()
    for g in graphs:
        for kind in (OPPOSITION, COALITION):
            res = _assert_equals_eager(kind, g)
            if isinstance(res, OddWalkCertificate):
                assert res.length() >= 5
                lengths.add(res.length())
    assert {5, 7, 17} <= lengths


@pytest.mark.parametrize(
    "kind, g, triangle",
    # long walks through triangle-free aux graphs, then distance-hereditary
    # walks, triangles found near the root
    [
        pytest.param(OPPOSITION, cycle_graph(815), False, id="opposition-c815"),
        pytest.param(OPPOSITION, cycle_graph(817), False, id="opposition-c817"),
        pytest.param(COALITION, _pendant_cycle(201), False, id="coalition-c201-pendants"),
    ]
    + [
        pytest.param(kind, random_distance_hereditary(n, seed), True, id=f"{kind}-dh{n}-{seed}")
        for kind in (OPPOSITION, COALITION)
        for n, seed in ((40, 0), (44, 1), (48, 2))
    ],
)
def test_odd_walk_reads_at_most_one_list_per_class_variable(kind, g, triangle, monkeypatch):
    read = []
    inner = ConstraintGraph.neighbours

    def spy(self, i):
        read.append(i)
        return inner(self, i)

    monkeypatch.setattr(ConstraintGraph, "neighbours", spy)
    cg = ConstraintGraph(kind, g)
    res = bipartition_or_odd_walk(cg)
    assert isinstance(res, OddWalkCertificate)
    bad = cg.class_bad.index(True)
    assert len(read) <= 2 * cg.edge_class.count(bad)
    if triangle:
        assert res.length() == 3 and 10 * len(read) < cg.var_count


# ---------------------------------------------------------------------------
# the block core against the eager per-P4 construction


def _eager_aux(kind, g):
    """Variables, sorted neighbour lists and P4 count of O(G) or C(G),
    built from the P4 list by the definition's two links per P4."""
    p4s = induced_p4s(g)
    ends = end_edges(g, p4s)
    vars_ = [v for x, y in ends for v in ((x, y), (y, x))]
    index = {v: i for i, v in enumerate(vars_)}
    adj = [{i ^ 1} for i in range(len(vars_))]
    for a, b, c, d in p4s:
        if kind == OPPOSITION:
            links = (((a, b), (c, d)), ((b, a), (d, c)))
        else:
            links = (((a, b), (d, c)), ((b, a), (c, d)))
        for u, w in links:
            adj[index[u]].add(index[w])
            adj[index[w]].add(index[u])
    return vars_, [sorted(a) for a in adj], len(p4s), len(ends)


def _eager_bipartition_or_odd_walk(vars_, adj):
    """BFS 2-coloring in variable order, as (side, component, component
    count) per variable; at the first conflict, the tree-path walk
    through it."""
    n = len(vars_)
    side, comp, parent = [-1] * n, [-1] * n, [-1] * n
    comp_id = 0
    for start in range(n):
        if side[start] >= 0:
            continue
        side[start], comp[start] = 0, comp_id
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if side[w] < 0:
                    side[w], comp[w], parent[w] = 1 - side[v], comp_id, v
                    queue.append(w)
                elif side[w] == side[v]:
                    px, py = _path_up(parent, v), _path_up(parent, w)
                    on_px = set(px)
                    lca = next(u for u in py if u in on_px)
                    walk = px[: px.index(lca) + 1][::-1] + py[: py.index(lca) + 1]
                    return OddWalkCertificate(tuple(vars_[u] for u in walk))
        comp_id += 1
    return tuple(side), tuple(comp), comp_id


def _eager_components(adj):
    """The components of the aux graph, numbered by least variable, as
    (component, side, bipartite): the component and BFS side of every
    variable, the least variable of its component taking side 0, and
    whether each component is bipartite."""
    n = len(adj)
    comp, side, bipartite = [-1] * n, [0] * n, []
    for start in range(n):
        if comp[start] >= 0:
            continue
        k = comp[start] = len(bipartite)
        bipartite.append(True)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if comp[w] < 0:
                    comp[w], side[w] = k, 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    bipartite[k] = False
    return comp, side, bipartite


def _assert_equals_eager(kind, g):
    cg = ConstraintGraph(kind, g)
    res = bipartition_or_odd_walk(cg)
    vars_, adj, p4_count, ends = _eager_aux(kind, g)
    assert cg.vars == vars_
    assert cg.p4_count == p4_count
    assert ends + 2 * p4_count == sum(len(a) for a in adj) // 2
    assert cg.bipartite == (res is None)
    # variable 2k + j of end-edge k has side edge_side[k] ^ j
    coloring = (
        tuple(s ^ j for s in cg.edge_side for j in (0, 1)),
        tuple(k for k in cg.edge_class for _ in (0, 1)),
        len(cg.class_bad),
    )
    assert (coloring if res is None else res) == _eager_bipartition_or_odd_walk(vars_, adj)
    assert list(cg.adj) == adj
    # variables 2k and 2k + 1 share a component, so the least variable of
    # a component is the least end-edge of its class, read forwards
    comp, side, bipartite = _eager_components(adj)
    assert cg.edge_class == comp[::2]
    assert cg.class_bad == [not b for b in bipartite]
    assert [s for k, s in zip(cg.edge_class, cg.edge_side) if bipartite[k]] == [
        s for k, s in zip(comp[::2], side[::2]) if bipartite[k]
    ]
    if isinstance(res, OddWalkCertificate):
        assert check_odd_walk(g, kind, res) == (True, "ok")
    return res


# two disjoint seed ranges per case
SEED_OFFSETS = [4_000_000, 0]


@pytest.mark.parametrize("offset", SEED_OFFSETS)
@pytest.mark.parametrize("kind", [OPPOSITION, COALITION])
def test_block_core_equals_eager_on_random_graphs(kind, offset):
    kinds = set()
    for seed in range(200):
        g = random_graph(4 + seed % 13, 0.1 + 0.8 * ((seed * 53) % 100) / 100, offset + seed + 9000)
        kinds.add(type(_assert_equals_eager(kind, g)))
    assert kinds == {type(None), OddWalkCertificate}


@pytest.mark.parametrize("offset", SEED_OFFSETS)
@pytest.mark.parametrize("n", [40, 72, 104, 140])
def test_block_core_equals_eager_on_dh_and_ptolemaic(n, offset):
    for g in (random_distance_hereditary(n, offset + n), random_ptolemaic(n, offset + n)):
        for kind in (OPPOSITION, COALITION):
            _assert_equals_eager(kind, g)


def test_block_core_on_blocks_without_p4s():
    # in K_{2,k} the near side {other hub} of every mid-edge block is
    # adjacent to its whole far side: no P4, no variable; a pendant on a
    # leaf gives that leaf's blocks a near side that is not, and one on a
    # hub gives the hub's blocks a far side that is not
    for k in (30, 200):
        g = hub_last_k2(k)
        for kind in (OPPOSITION, COALITION):
            cg = ConstraintGraph(kind, g)
            assert (cg.var_count, cg.p4_count, cg.class_bad) == (0, 0, [])
            _assert_equals_eager(kind, Graph(k + 3, list(g.edges) + [(k + 2, 0)]))
    g = hub_last_k2(200)
    g = Graph(204, list(g.edges) + [(202, 0), (203, 200)])
    for kind in (OPPOSITION, COALITION):
        _assert_equals_eager(kind, g)


def test_block_core_merges_carry_the_bad_flag():
    # a bad class merged into a larger good one: O(G) of the graph below,
    # and C(G) of C5 1-2-3-4-5 with the triangle 1-2-6 and the pendant
    # 6-0.  A good class merged into a larger bad one: O(G) of C4 0-3-5-4
    # with the pendants 4-2 and 5-1.  Each merged class stays bad
    bad_into_good = (
        (OPPOSITION, Graph(8, [(0, 3), (0, 7), (1, 2), (2, 4), (2, 5), (3, 6), (4, 5), (4, 6), (4, 7), (5, 7), (6, 7)])),
        (COALITION, Graph(7, [(0, 6), (1, 2), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4), (4, 5)])),
    )
    good_into_bad = ((OPPOSITION, Graph(6, [(0, 3), (0, 4), (1, 5), (2, 4), (3, 5), (4, 5)])),)
    for kind, g in bad_into_good + good_into_bad:
        assert _twin_quotient(g) is None  # twin-free: the block pass runs on g
        assert isinstance(_assert_equals_eager(kind, g), OddWalkCertificate)
        assert ConstraintGraph(kind, g).class_bad == [True]


def test_block_core_swap_moves_the_block_side():
    # the spider with legs 0-2, 0-3-5 and 0-4-1: partway through a block,
    # the class holding the block's first variable is merged into a larger
    # class at odd parity, so that variable's side relative to the new
    # head flips before the rest of the block is placed
    g = Graph(6, [(0, 2), (0, 3), (0, 4), (1, 4), (3, 5)])
    assert _twin_quotient(g) is None  # twin-free: the block pass runs on g
    for kind in (OPPOSITION, COALITION):
        assert _assert_equals_eager(kind, g) is None


def test_block_core_on_hub_last_k2_3000():
    g = hub_last_k2(3000)
    for kind in (OPPOSITION, COALITION):
        cg = ConstraintGraph(kind, g)
        assert (cg.var_count, cg.p4_count, cg.class_bad) == (0, 0, [])


# ---------------------------------------------------------------------------
# the block pass on the twin quotient


def _substitute(host, parts):
    """host with vertex i replaced by parts[i]: every vertex of parts[i] is
    adjacent to every vertex of parts[j] for each host edge ij."""
    offset = [0]
    for part in parts:
        offset.append(offset[-1] + part.n)
    edges = [(u + offset[i], v + offset[i]) for i, part in enumerate(parts) for u, v in part.edges]
    edges += [
        (offset[i] + u, offset[j] + v)
        for i, j in host.edges
        for u in range(parts[i].n)
        for v in range(parts[j].n)
    ]
    return Graph(offset[-1], edges)


# a threshold graph, each vertex added isolated or dominating in turn: only
# 0 and 1 are twins in it, and its collapse to one vertex takes five rounds
THRESHOLD_6 = Graph(6, [(0, 2), (1, 2), (0, 4), (1, 4), (2, 4), (3, 4)])
# class sizes 1 to 9 fill the bit planes 0 to 3
TWIN_PARTS = [complete_graph(2), path_graph(3), cycle_graph(4), THRESHOLD_6]
TWIN_PARTS += [Graph(s) for s in range(1, 10)]


def _twin_heavy_corpus():
    graphs = [_substitute(complete_graph(3), [Graph(1), Graph(2), Graph(3)])]  # K_{1,2,3}
    graphs.append(_substitute(complete_graph(3), [Graph(3)] * 3))  # K_{3,3,3}
    # O(G) and C(G) of F}SyO and FUxqO are bipartite, of C5 (opposition)
    # and N (coalition) not
    hosts = [parse_graph6("F}SyO"), parse_graph6("FUxqO"), cycle_graph(5), GRAPH_N.as_graph()]
    for h, host in enumerate(hosts):
        for shift in range(len(TWIN_PARTS)):
            parts = [TWIN_PARTS[(i + shift) % len(TWIN_PARTS)] for i in range(host.n)]
            graphs.append(shuffled_union([_substitute(host, parts)], 100 * h + shift))
    return graphs


def _twin_classes(g):
    """The classes of _twin_quotient(g), one sorted list per representative."""
    rep, _, _ = _twin_quotient(g)
    classes = {}
    for v in range(g.n):
        classes.setdefault(rep[v], []).append(v)
    return classes


@pytest.mark.parametrize("kind", [OPPOSITION, COALITION])
def test_block_core_equals_eager_on_twin_classes(kind, monkeypatch):
    passes = []  # whether each ConstraintGraph ran its pass on a quotient

    def spy(g):
        quotient = _twin_quotient(g)
        passes.append(quotient is not None)
        return quotient

    monkeypatch.setattr(constraints, "_twin_quotient", spy)
    sizes = set()
    kinds = set()
    graphs = _twin_heavy_corpus()
    for g in graphs:
        kinds.add(type(_assert_equals_eager(kind, g)))
        sizes |= {len(c) for c in _twin_classes(g).values()}
    assert kinds == {type(None), OddWalkCertificate}
    assert {1, 2, 3, 4, 6, 8, 9} <= sizes
    # K_{1,2,3} and one substitution have average degree below 6
    assert passes.count(True) == len(graphs) - 2


def test_twin_quotient_of_hub_last_k2_is_one_vertex():
    # the leaves collapse, and the hubs; then the two are closed twins
    for k in (1, 2, 30, 1100):
        rep, weight, nbr = _twin_quotient(hub_last_k2(k))
        assert rep == [0] * (k + 2)
        assert (weight[0], nbr[0]) == (k + 2, 0)


def test_twin_quotient_leaves_twin_free_graphs():
    assert _twin_quotient(parse_graph6("F}SyO")) is None
    assert _twin_quotient(path_graph(20000)) is None
    assert _twin_quotient(Graph(0)) is None
    assert _twin_quotient(Graph(1)) is None


@pytest.mark.parametrize("kind", [OPPOSITION, COALITION])
def test_empty_graph_has_an_empty_constraint_graph(kind):
    # 0 edges >= 3 * 0 vertices, so the empty graph meets the degree test
    for g in (Graph(0), parse_graph6("?")):
        cg = ConstraintGraph(kind, g)
        assert (cg.vars, cg.p4_count, cg.edge_class, cg.class_bad, cg.adj) == ([], 0, [], [], [])
        assert bipartition_or_odd_walk(cg) is None
        recognize = recognize_opposition if kind == OPPOSITION else recognize_coalition
        v = recognize(g)
        assert v.decision == "member"
        assert check_verdict(g, v) == (True, "ok")


def test_twin_quotient_classes_are_twin_free_modules_at_their_least_vertex():
    graphs = _twin_heavy_corpus()
    graphs += [shuffled_union([random_distance_hereditary(n, n)], n) for n in (40, 80, 120)]
    graphs += [shuffled_union([_substitute(parse_graph6("FUxqO"), [THRESHOLD_6] * 7)], 5)]
    for g in graphs:
        rep, weight, nbr = _twin_quotient(g)
        classes = _twin_classes(g)
        assert all(r == c[0] and weight[r] == len(c) for r, c in classes.items())
        full = neighbour_bits(g)
        reps = sum(1 << r for r in classes)
        for r, c in classes.items():
            inside = sum(1 << v for v in c)
            outside = {full[v] & ~inside for v in c}
            assert len(outside) == 1  # a module
            # the quotient neighbourhood: the representatives of the classes around it
            assert nbr[r] == outside.pop() & reps
        keys = [nbr[r] for r in classes] + [nbr[r] | 1 << r for r in classes]
        assert len(set(keys)) == len(keys)  # no twins are left
        if g.n <= 60:
            assert all(len({rep[v] for v in p}) == 4 for p in induced_p4s(g))  # no P4 meets a class twice
    # the substituted threshold graphs each collapse to one vertex
    assert sorted(weight[r] for r in classes) == [6] * 7
