import hashlib
import itertools
import random
from collections import Counter, namedtuple

import pytest

from conftest import disjoint_union, hub_last_k2, isomorphic, random_graph, shuffled_union, triangle_strip
from oppograph.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    path_graph,
)
from oppograph.patterns import (
    CATALOG,
    DOMINO,
    GEM,
    GRAPH_A,
    GRAPH_G1,
    GRAPH_G2,
    GRAPH_N,
    HOUSE,
    Pattern,
    PatternMatch,
    _gem_house_free,
    _mcs_elimination_order,
    _prunes,
    cycle_pattern,
    find_induced,
    find_max_Hk,
    find_Tk_free_violation,
    has_hole,
    is_chordal,
    is_distance_hereditary,
    is_ptolemaic,
    make_Hk,
    make_Tk,
)
from oppograph.verify import check_pattern_match


def brute_embeds(g, pattern) -> tuple[int, ...] | None:
    """The lexicographically least induced embedding, by walking every
    injective mapping in order."""
    pg = pattern.as_graph()
    for perm in itertools.permutations(range(g.n), pattern.n):
        if all(
            pg.has_edge(i, j) == g.has_edge(perm[i], perm[j])
            for i in range(pattern.n)
            for j in range(i + 1, pattern.n)
        ):
            return perm
    return None


def test_house_is_complement_of_p5():
    assert isomorphic(HOUSE.as_graph(), complement(path_graph(5)))


def test_domino_is_c6_plus_long_chord():
    g = DOMINO.as_graph()
    assert g.n == 6 and g.m == 7
    # dropping the distance-3 chord leaves a 6-cycle
    without_chord = Graph(6, [e for e in g.edges if e != (0, 3)])
    assert isomorphic(without_chord, cycle_graph(6))
    assert find_induced(g, cycle_pattern(4)) is not None
    assert has_hole(g) is None


def test_n_is_net():
    g = GRAPH_N.as_graph()
    degs = sorted(g.degree(v) for v in range(6))
    assert degs == [1, 1, 1, 3, 3, 3] and g.m == 6


def test_find_induced_identity_on_self():
    for pat in (HOUSE, GEM, GRAPH_N, GRAPH_A, GRAPH_G1, GRAPH_G2):
        match = find_induced(pat.as_graph(), pat)
        assert match is not None and match.mapping == tuple(range(pat.n))


def test_c6_contains_no_domino():
    assert find_induced(cycle_graph(6), DOMINO) is None


def test_co_c6_labeled_is_gem_free(co_c6_labeled):
    assert find_induced(co_c6_labeled, GEM) is None
    # every one-vertex deletion of co-C6 is a house, so houses must be found
    assert find_induced(co_c6_labeled, HOUSE) is not None


def test_find_induced_agrees_with_bruteforce():
    # the 0-vertex pattern matches every graph with the empty mapping
    pats = [GEM, HOUSE, GRAPH_N, GRAPH_A, CATALOG["C4"], CATALOG["C5"], Pattern("empty", 0, ())]
    assert find_induced(Graph(0), pats[-1]).mapping == brute_embeds(Graph(0), pats[-1]) == ()
    for seed in range(30):
        g = random_graph(8, 0.45, seed)
        for pat in pats:
            got = find_induced(g, pat)
            # the search returns the lexicographically least embedding
            assert (None if got is None else got.mapping) == brute_embeds(g, pat), (seed, pat.name)
            if got is not None:
                assert check_pattern_match(g, got) == (True, "ok")


def test_gem_house_free_agrees_with_the_pattern_searches():
    # every density from sparse to dense, n from 1 to 10
    seen = Counter()
    for seed in range(1500):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        free = find_induced(g, GEM) is None and find_induced(g, HOUSE) is None
        assert _gem_house_free(g) == free, g.edges
        seen[free] += 1
    assert min(seen.values()) >= 300, seen


def test_find_induced_long_path_does_not_recurse():
    # one stack entry per pattern vertex, far past the recursion limit
    k = 1200
    pattern = Pattern(f"P{k}", k, tuple((i, i + 1) for i in range(k - 1)))
    got = find_induced(path_graph(1500), pattern)
    assert got is not None and got.mapping == tuple(range(k))


def brute_has_hole(g) -> bool:
    for k in range(5, g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            sub_edges = [
                (u, v) for u, v in itertools.combinations(subset, 2) if g.has_edge(u, v)
            ]
            if len(sub_edges) != k:
                continue
            deg = {v: 0 for v in subset}
            for u, v in sub_edges:
                deg[u] += 1
                deg[v] += 1
            if all(d == 2 for d in deg.values()):
                # connected 2-regular on k vertices with k edges is a k-cycle
                seen = {subset[0]}
                frontier = [subset[0]]
                adj = {v: [] for v in subset}
                for u, v in sub_edges:
                    adj[u].append(v)
                    adj[v].append(u)
                while frontier:
                    x = frontier.pop()
                    for y in adj[x]:
                        if y not in seen:
                            seen.add(y)
                            frontier.append(y)
                if len(seen) == k:
                    return True
    return False


def test_has_hole_examples():
    assert has_hole(cycle_graph(5)).pattern.n == 5
    assert has_hole(cycle_graph(6)).pattern.n == 6
    assert has_hole(GEM.as_graph()) is None


def test_has_hole_matches_bruteforce():
    for seed in range(40):
        g = random_graph(8, 0.35, seed + 7)
        got = has_hole(g)
        assert (got is not None) == brute_has_hole(g), seed
        if got is not None:
            assert check_pattern_match(g, got) == (True, "ok")


def test_is_chordal_examples(h1):
    assert isinstance(is_chordal(h1), tuple)  # trees are chordal
    witness = is_chordal(cycle_graph(4))
    assert isinstance(witness, PatternMatch) and witness.pattern.n == 4
    h3 = make_Hk(3).as_graph()
    assert isinstance(is_chordal(h3), tuple)


def brute_chordal(g) -> bool:
    if find_induced(g, cycle_pattern(4)) is not None:
        return False
    return not brute_has_hole(g)


def test_is_chordal_matches_bruteforce():
    nx = pytest.importorskip("networkx")
    for seed in range(40):
        g = random_graph(8, 0.5, seed + 3)
        res = is_chordal(g)
        ours = isinstance(res, tuple)
        assert ours == brute_chordal(g), seed
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        assert ours == nx.is_chordal(G), seed
        if not ours:
            assert check_pattern_match(g, res) == (True, "ok")


def test_peo_is_verified_order():
    g = make_Hk(2).as_graph()
    order = is_chordal(g)
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        if later:
            parent = min(later, key=lambda u: pos[u])
            assert all(u == parent or g.has_edge(parent, u) for u in later)


def test_is_ptolemaic_examples():
    ok, wit = is_ptolemaic(GEM.as_graph())
    assert not ok and wit.pattern.name == "gem"
    ok, wit = is_ptolemaic(cycle_graph(5))
    assert not ok and wit.pattern.n >= 4
    ok, wit = is_ptolemaic(make_Hk(2, "minus").as_graph())
    assert ok and wit is None


def reference_is_ptolemaic(g):
    """The chordality witness, else the least gem, else a pass."""
    res = is_chordal(g)
    if isinstance(res, PatternMatch):
        return False, res
    gem = find_induced(g, GEM)
    return (True, None) if gem is None else (False, gem)


def test_is_ptolemaic_matches_reference_and_searches_only_on_failure(monkeypatch):
    # random graphs (n <= 11, every density) and the two ptolemaic
    # generators (n <= 40); a pass must not run any backtracking search
    from oppograph import patterns
    from oppograph.generate import random_opposition_ptolemaic, random_ptolemaic

    searched = []
    monkeypatch.setattr(patterns, "find_induced", lambda g, p: searched.append(p.name) or find_induced(g, p))
    rng = random.Random(3001)
    seen = Counter()
    for i in range(2000):
        if i % 4 < 2:
            g = random_graph(rng.randint(0, 11), rng.random(), rng)
        else:
            make = random_ptolemaic if i % 4 == 2 else random_opposition_ptolemaic
            g = make(rng.randint(4, 40), rng.randrange(10**6))
        searched.clear()
        ok, wit = is_ptolemaic(g)
        assert bool(searched) != ok, (searched, g.edges)
        assert (ok, wit) == reference_is_ptolemaic(g), g.edges
        seen[ok] += 1
    assert min(seen.values()) >= 200, seen


def test_is_distance_hereditary_examples():
    from oppograph.generate import random_tree

    assert is_distance_hereditary(random_tree(9, 5)) == (True, None)
    ok, wit = is_distance_hereditary(HOUSE.as_graph())
    assert not ok and wit.pattern.name == "house"
    assert is_distance_hereditary(GRAPH_N.as_graph()) == (True, None)


def brute_distance_hereditary(g) -> bool:
    return (
        find_induced(g, GEM) is None
        and find_induced(g, HOUSE) is None
        and find_induced(g, DOMINO) is None
        and not brute_has_hole(g)
    )


def test_is_distance_hereditary_matches_definition():
    for seed in range(40):
        g = random_graph(8, 0.4, seed + 31)
        ok, wit = is_distance_hereditary(g)
        assert ok == brute_distance_hereditary(g), seed
        if not ok:
            assert check_pattern_match(g, wit) == (True, "ok")


# ---------------------------------------------------------------------------
# the rescanning pruning loop and the linear-scan MCS, kept as references


Step = namedtuple("Step", "kind removed anchor")  # anchor: the neighbour or the kept twin


def _reference_step(adj):
    """The least pendant, else the twin pair with the least (anchor,
    removed), found by rescanning every vertex."""
    for v in sorted(adj):
        if len(adj[v]) == 1:
            return Step("pendant", v, next(iter(adj[v])))
    open_groups, closed_groups = {}, {}
    best = None
    for v in sorted(adj):
        nb = frozenset(adj[v])
        for groups, key, kind in (
            (open_groups, nb, "false-twin"),
            (closed_groups, nb | {v}, "true-twin"),
        ):
            if key in groups:
                cand = Step(kind, v, groups[key])
                if best is None or (cand.anchor, cand.removed) < (best.anchor, best.removed):
                    best = cand
            else:
                groups[key] = v
    return best


def reference_is_distance_hereditary(g):
    """(ok, witness, steps): the decision and witness of
    ``is_distance_hereditary``, and the steps of the least-first pruning."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    steps = []
    while any(adj.values()):
        step = _reference_step(adj)
        if step is None:
            for p in (GEM, HOUSE, DOMINO):
                witness = find_induced(g, p)
                if witness is not None:
                    return False, witness, steps
            return False, has_hole(g), steps
        for u in adj[step.removed]:
            adj[u].discard(step.removed)
        del adj[step.removed]
        steps.append(step)
    return True, None, steps


def reference_mcs_order(g):
    weight = [0] * g.n
    visited = [False] * g.n
    visit_order = []
    for _ in range(g.n):
        best = -1
        for v in range(g.n):
            if not visited[v] and (best < 0 or weight[v] > weight[best]):
                best = v
        visited[best] = True
        visit_order.append(best)
        for u in g.adj[best]:
            if not visited[u]:
                weight[u] += 1
    visit_order.reverse()
    return visit_order


def reference_is_chordal(g):
    order = reference_mcs_order(g)
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        if later:
            parent = min(later, key=lambda u: pos[u])
            if any(u != parent and not g.has_edge(u, parent) for u in later):
                return find_induced(g, cycle_pattern(4)) or has_hole(g)
    return tuple(order)


def _reference_corpus():
    from oppograph.generate import random_distance_hereditary, random_ptolemaic, random_tree

    rng = random.Random(1101)
    for _ in range(3000):
        yield random_graph(rng.randint(0, 12), rng.uniform(0.1, 0.9), rng)
    for n in range(9):
        yield Graph(n)  # one false-twin group, nothing to prune
        yield complete_graph(n)  # all true twins
    # isolated vertices are false twins of each other, and (0, 1) comes
    # before the C4's pairs
    yield disjoint_union([Graph(2), cycle_graph(4)])
    yield disjoint_union([cycle_graph(4), Graph(3), complete_graph(3)])
    for seed in range(100):
        parts = [random_graph(rng.randint(1, 6), rng.uniform(0.2, 0.8), rng) for _ in range(3)]
        yield shuffled_union(parts, seed)
    for n in (10, 20, 40, 80):
        for seed in range(3):
            for make in (random_tree, random_distance_hereditary, random_ptolemaic):
                g = make(n, seed)
                yield g
                yield shuffled_union([g], seed)
                yield shuffled_union([g, make(n // 2, seed + 1), Graph(2)], seed)


def test_pruning_and_mcs_match_references():
    kinds = Counter()
    for g in _reference_corpus():
        ok, wit, steps = reference_is_distance_hereditary(g)
        assert is_distance_hereditary(g) == (ok, wit), g
        assert _mcs_elimination_order(g) == reference_mcs_order(g), g
        assert is_chordal(g) == reference_is_chordal(g), g
        kinds[ok] += 1
        if ok:
            kinds.update(step.kind for step in steps)
    # both outcomes and every step kind are exercised
    assert min(kinds.values()) >= 500, kinds


def test_pruning_and_chordality_at_scale():
    from oppograph.generate import random_tree

    k2 = hub_last_k2(3000)
    assert is_distance_hereditary(k2) == (True, None)
    assert isinstance(is_chordal(k2), PatternMatch)
    star = Graph(5001, [(i, 5000) for i in range(5000)])
    assert is_distance_hereditary(star) == (True, None)
    tree = random_tree(5000, 1)
    assert is_distance_hereditary(tree) == (True, None)
    order = is_chordal(tree)
    assert sorted(order) == list(range(tree.n))
    pos = {v: i for i, v in enumerate(order)}
    # a tree's PEO puts at most one neighbour of each vertex after it
    assert all(sum(pos[u] > pos[v] for u in tree.adj[v]) <= 1 for v in order)


def test_pruning_matches_reference_at_scale():
    # larger inputs than the reference corpus, and inputs where many
    # vertices share one open or closed key: random distance-hereditary
    # graphs (n 20-80), the ptolemaic generators, K_{2,k} with its hubs
    # first or last, apart or joined, and stars
    from oppograph.generate import random_distance_hereditary, random_opposition_ptolemaic, random_ptolemaic

    rng = random.Random(1801)
    graphs = []
    for n in range(20, 81, 4):
        graphs.append(random_distance_hereditary(n, rng.randrange(10**6)))
        graphs.append(shuffled_union([random_distance_hereditary(n, rng.randrange(10**6))], rng))
    for n in (20, 40, 60, 80):
        for make in (random_ptolemaic, random_opposition_ptolemaic):
            graphs.append(make(n, rng.randrange(10**6)))
    for k in (2, 3, 10, 50, 200):
        for hubs in ((0, 1), (k, k + 1)):
            leaves = [v for v in range(k + 2) if v not in hubs]
            k2 = [(v, h) for v in leaves for h in hubs]
            graphs += [Graph(k + 2, k2), Graph(k + 2, k2 + [hubs])]
        graphs.append(Graph(k + 1, [(i, k) for i in range(k)]))
        graphs.append(shuffled_union([Graph(k + 1, [(i, k) for i in range(k)])], rng))
    kinds = Counter()
    for g in graphs:
        ok, wit, steps = reference_is_distance_hereditary(g)
        assert ok and is_distance_hereditary(g) == (ok, wit), g
        kinds.update(step.kind for step in steps)
    assert min(kinds.values()) >= 100, kinds


def test_pruning_alternates_pendants_and_twins_for_many_rounds():
    # only the strip's end triangles hold a twin, so each round removes a
    # twin or a pendant at either end: about k / 4 rounds
    for k in (5, 41, 401):
        for g in (triangle_strip(k), triangle_strip(k, closed=True)):
            ok, wit, steps = reference_is_distance_hereditary(g)
            assert is_distance_hereditary(g) == (ok, wit), (k, g.n)
            if g.n == k:
                assert ok and {s.kind for s in steps} == {"pendant", "true-twin"}
            else:
                assert not ok and check_pattern_match(g, wit) == (True, "ok")
    # at k = 4001 the closed strip holds no gem or house, so its witness
    # search skips those two backtracking searches and finds the hole
    # through the even vertices
    assert is_distance_hereditary(triangle_strip(4001)) == (True, None)
    g = triangle_strip(4001, closed=True)
    assert not _prunes(g) and _gem_house_free(g)
    ok, wit = is_distance_hereditary(g)
    assert not ok and wit.pattern.name == "C2002" and check_pattern_match(g, wit) == (True, "ok")


def test_make_tk_structure():
    t1 = make_Tk(1)
    assert t1.n == 8 and len(t1.edges) == 7
    t2 = make_Tk(2)
    assert t2.n == 10 and len(t2.edges) == 9
    for k in (1, 2, 3, 4):
        tk = make_Tk(k)
        g = tk.as_graph()
        assert g.n == 2 * k + 6 and g.m == g.n - 1
        # the two pendants hang off the role vertices
        assert g.has_edge(tk.role("1"), 2 * k + 4)
        assert g.has_edge(tk.role("2k"), 2 * k + 5)
        assert g.degree(tk.role("1")) == 3 and g.degree(tk.role("2k")) == 3
    with pytest.raises(ValueError):
        make_Tk(0)


def test_find_tk_violation():
    t1 = make_Tk(1).as_graph()
    hit = find_Tk_free_violation(t1)
    assert hit is not None and hit[0] == 1 and hit[1].mapping == tuple(range(8))
    assert find_Tk_free_violation(path_graph(10)) is None
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert find_Tk_free_violation(star) is None
    t2 = make_Tk(2).as_graph()
    hit = find_Tk_free_violation(t2)
    assert hit is not None and hit[0] == 2


def test_make_hk_role_adjacency(h1, h2):
    # H1: the 6-vertex tree; roles at fixed ids
    assert h1.n == 6 and h1.m == 5
    pat = make_Hk(1)
    assert pat.role("v1") == 0 and pat.role("v0") == 3
    # H2: v2 adjacent to v0, v0', v1, v1' and its tail v2'
    pat2 = make_Hk(2)
    v2 = pat2.role("v2")
    nbrs = {u for e in pat2.edges for u in e if v2 in e} - {v2}
    names = {name for name, vid in pat2.roles if vid in nbrs}
    assert names == {"v0", "v0'", "v1", "v1'", "v2'"}
    # H2^-: same minus v0
    pat2m = make_Hk(2, "minus")
    v2 = pat2m.role("v2")
    nbrs = {u for e in pat2m.edges for u in e if v2 in e} - {v2}
    names = {name for name, vid in pat2m.roles if vid in nbrs}
    assert names == {"v0'", "v1", "v1'", "v2'"}


def test_hk_minus_differs_exactly_by_v0_edges():
    for k in (2, 3, 4):
        full = make_Hk(k, "full")
        minus = make_Hk(k, "minus")
        v0 = full.role("v0")
        gone = set(full.edges) - set(minus.edges)
        assert set(minus.edges) <= set(full.edges)
        expect = {tuple(sorted((full.role(f"v{i}"), v0))) for i in range(2, k + 1)}
        assert gone == expect


def test_hk_counts_and_chordality():
    for k in (1, 2, 3):
        for variant in ("full", "minus"):
            g = make_Hk(k, variant).as_graph()
            assert g.n == 3 * k + 3
            assert isinstance(is_chordal(g), tuple)
            assert is_ptolemaic(g)[0]


# sha256 of repr(make_Hk(k, variant)): name, size, sorted edges and roles
HK_DIGESTS = {
    (1, "full"): "22768940378cb3ea2d5818bb7c7c2cce74a260753dba3185d2ede53b48006345",
    (1, "minus"): "90ba4a2a6defec0ea8c18820a8243ff9f747f247bc6948ef7ba9795f431b5ceb",
    (2, "full"): "e9f4788a476a6185d9211d27632dd04274830dbf154c9c3591a49bc5e681865f",
    (2, "minus"): "6411c9acaccb97f584f865522f0546611bc1bc807fbee606ba7a1e645d84c2f6",
    (3, "full"): "9653e4c052cd4f182d6d56ce2a026ea525b2bbef316a96520408508039f3c75e",
    (3, "minus"): "85919c552bbdeddfceac7f50c0eeb16cecb7dde001f698b46aedad7b9e8cadb4",
    (4, "full"): "dc308c573eee574b8c55fabf0ab589df97da4fe690a502a303d660c437a3df25",
    (4, "minus"): "608af6a197f6d1feb7333bd66729b9737bd42ec870f7e00a4378fe4650a27862",
    (5, "full"): "3793aef677c8c137c0ff9af689b2e5e074d621ef0c332a80a9b8c683282c88af",
    (5, "minus"): "dfc64e2d02b88eaf6c7ecf0d97757e46bc2ed8d51b139d6ed51a22409276b1c3",
    (6, "full"): "e78917e0c5b5a232779afb444976d7ab2e7ee43dea9e56ee777b2e44f8576af3",
    (6, "minus"): "bc09fea9c0e52573e49a7662e5c836baf30f29ca3b64e58daddf3cd5fae8c9d6",
    (7, "full"): "5d502f23b21b09a829a13eb23d241a7943ade5070d25265a0ff88afba4aeacc6",
    (7, "minus"): "0596c9acdd883eacfef61c742bd2503b3eda1be929d6fff5d358e50126a84423",
    (8, "full"): "a5e9bb16699d1f3ff64f3f9ba47b23b53b46ef5718127bcb57cde54bd86ac8e8",
    (8, "minus"): "ddba33e173c503556f09eb96322f958283c7c1f80c977e4b7b8ce74ce5c4c118",
    (9, "full"): "9d107adaff332f141291530380d2b2176c7e7ec95a5b4b8754b11541db486143",
    (9, "minus"): "0a2613b767bdfe3adfb7b03247da3d4a7ccf591b7f6645d51e9f190cb0f48644",
    (10, "full"): "12b78422e000cf17b097d2cf74beb37be0c2aff4c341d236fab504f4d41e93c0",
    (10, "minus"): "d22024a0292a29596dd40a2381fa4b9da7c81e24d0c22b3c43af0d8aaa14c904",
    (11, "full"): "c4a01a519151f86e237ef85454b6e6b261e0f2b1c06d515c076680b842dcbf1a",
    (11, "minus"): "3e261107d0290abb461ea1142bd7657a145e5e83d679a599a19d4124f27da7e0",
    (12, "full"): "71345c69eb73c5104f522449fc8c2e6fb52f217c85b1b8a43aceed7e855d2aee",
    (12, "minus"): "478caa63daceef70e65a80841394ac3691471dfebde67457e158822ad6e7f310",
}


@pytest.mark.parametrize("k, variant", sorted(HK_DIGESTS))
def test_make_hk_is_pinned(k, variant):
    assert hashlib.sha256(repr(make_Hk(k, variant)).encode()).hexdigest() == HK_DIGESTS[k, variant]


def test_find_max_hk():
    assert find_max_Hk(make_Hk(1).as_graph())[:2] == (1, "full")
    assert find_max_Hk(make_Hk(1).as_graph())[2].mapping == tuple(range(6))
    k, variant, match = find_max_Hk(make_Hk(3, "minus").as_graph())
    assert (k, variant) == (3, "minus") and match.mapping == tuple(range(12))
    assert find_max_Hk(path_graph(6)) is None
    k, variant, _ = find_max_Hk(make_Hk(2).as_graph())
    assert (k, variant) == (2, "full")


def test_twin_deletion_preserves_opposition_membership():
    from oppograph.oracle import oracle_opposition

    for seed in range(15):
        base = random_graph(6, 0.45, seed + 77)
        for kind in ("true", "false"):
            anchor = seed % base.n
            edges = list(base.edges)
            new = base.n
            nbrs = set(base.adj[anchor]) | ({anchor} if kind == "true" else set())
            edges += [(min(new, u), max(new, u)) for u in nbrs]
            g = Graph(base.n + 1, edges)
            assert oracle_opposition(g).is_member == oracle_opposition(base).is_member
