import hashlib
import json
import random
import tracemalloc
from collections import Counter

import pytest

from conftest import clique_blowup, disjoint_union, hub_last_k2, random_graph, shuffled_union, triangle_strip
from oppograph.constraints import (
    ConstraintGraph,
    OddWalkCertificate,
    bipartition_or_odd_walk,
    extend_acyclic,
    forced_orientation,
    is_acyclic,
)
from oppograph.graphs import (
    DirectedCycleCertificate,
    Graph,
    Orientation,
    complement,
    complete_graph,
    connected_components,
    cycle_graph,
    induced_subgraph,
    kahn_pass,
    parse_edge_list,
    parse_graph6,
    path_graph,
    topo_order_or_cycle,
)
from oppograph.oracle import oracle_coalition, oracle_opposition
from oppograph.p4 import COALITION, GENERALIZED_OPPOSITION, OPPOSITION, end_edges, verify_orientation
from oppograph.patterns import GEM, GRAPH_A, GRAPH_G1, GRAPH_G2, GRAPH_N, HOUSE, make_Hk, make_Tk
from oppograph.recognize import (
    DEFAULT_FLIP_CAP,
    CertificateError,
    FlipExhaustion,
    InducedSubgraph,
    PtolemaicOrientationError,
    opposition_obstruction,
    ptolemaic_opposition_orient,
    recognize_coalition,
    recognize_coalition_distance_hereditary,
    recognize_generalized_opposition,
    recognize_opposition,
    _dh_side0_orientation,
    _flip_search,
    _FlipOutcome,
    transitive_orient,
    verdict_payload,
)
from oppograph.verify import check_verdict


def _assert_verdict(g, v, decision):
    assert v.decision == decision
    ok, msg = check_verdict(g, v)
    assert ok, msg


def test_generalized_co_c6_member(co_c6_labeled):
    v = recognize_generalized_opposition(co_c6_labeled)
    _assert_verdict(co_c6_labeled, v, "member")
    assert v.stats["aux_vertices"] == 12


def test_generalized_c5_non_member():
    g = cycle_graph(5)
    v = recognize_generalized_opposition(g)
    _assert_verdict(g, v, "non-member")
    assert isinstance(v.certificate, OddWalkCertificate)


def test_generalized_p4_member():
    v = recognize_generalized_opposition(path_graph(4))
    assert v.is_member


def test_opposition_co_c6_rejected_with_flip_cycles(co_c6_labeled):
    v = recognize_opposition(co_c6_labeled)
    _assert_verdict(co_c6_labeled, v, "non-member")
    assert v.method == "flip-search"
    assert isinstance(v.certificate, FlipExhaustion)
    assert len(v.certificate.entries) == 1  # O(G) connected: one quotient vector
    flips, cycle = v.certificate.entries[0]
    labels = {co_c6_labeled.label(x) for x in cycle.vertices}
    assert labels in ({"1", "3", "5"}, {"2", "4", "6"})


def test_opposition_split_graph_member():
    # K4 plus a pendant is a split graph
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    v = recognize_opposition(g)
    _assert_verdict(g, v, "member")
    assert oracle_opposition(g).is_member


def test_opposition_t1_non_member():
    g = make_Tk(1).as_graph()
    v = recognize_opposition(g, want_witness=True)
    _assert_verdict(g, v, "non-member")
    assert v.witness is not None and v.witness.pattern.name == "T1"


def test_opposition_gem_house_free_paths():
    p7 = path_graph(7)
    v = recognize_opposition(p7)
    _assert_verdict(p7, v, "member")
    assert oracle_opposition(p7).is_member

    c5 = cycle_graph(5)
    v = recognize_opposition(c5)
    _assert_verdict(c5, v, "non-member")

    t1 = make_Tk(1).as_graph()
    v = recognize_opposition(t1)
    _assert_verdict(t1, v, "non-member")
    assert isinstance(v.certificate, OddWalkCertificate)


def test_opposition_gem_house_free_defers(co_c6_labeled):
    # co-C6 contains houses, so the flip search decides it unlabelled
    v = recognize_opposition(co_c6_labeled)
    _assert_verdict(co_c6_labeled, v, "non-member")
    assert v.method == "flip-search"


def test_opposition_dh_recognizer_on_obstructions():
    for pat in (GRAPH_A, GRAPH_G1, GRAPH_G2):
        g = pat.as_graph()
        v = recognize_opposition(g, want_witness=True)
        _assert_verdict(g, v, "non-member")
        assert v.witness.pattern.name == pat.name
    # minimality: removing any vertex yields a member
    for pat in (GRAPH_A, GRAPH_G1, GRAPH_G2):
        g = pat.as_graph()
        from oppograph.graphs import induced_subgraph

        for drop in range(g.n):
            sub, _ = induced_subgraph(g, [x for x in range(g.n) if x != drop])
            assert recognize_opposition(sub).is_member
            assert oracle_opposition(sub).is_member


def test_opposition_dh_member_uses_constructor(h2):
    v = recognize_opposition(h2)
    _assert_verdict(h2, v, "member")
    assert v.method == "dh-ptolemaic"


def test_opposition_dh_defers_when_not_dh(co_c6_labeled):
    v = recognize_opposition(co_c6_labeled)
    _assert_verdict(co_c6_labeled, v, "non-member")


def test_opposition_non_chordal_dh_twin_route():
    # C4 with a pendant is distance-hereditary but not chordal
    g = parse_edge_list("a b\nb c\nc d\nd a\na e")
    v = recognize_opposition(g)
    _assert_verdict(g, v, "member")
    assert v.method == "dh-ptolemaic"
    assert oracle_opposition(g).is_member


def test_flip_cap_gives_undecided(co_c6, monkeypatch):
    # the cap bounds the search of each component of G; a copy of the
    # rank-1 member F}SyO needs two vectors, so a cap of one leaves two
    # copies undecided after their shared side-0 pass, the one forced
    # orientation tested, and a cap of two decides them
    import oppograph.recognize as rec

    passes = _spy_calls(monkeypatch, rec, "topo_order_or_cycle")
    f = parse_graph6("F}SyO")
    g = disjoint_union([f, f])
    v = recognize_opposition(g, flip_cap=1)
    assert v.decision == "undecided"
    ok, msg = check_verdict(g, v)
    assert ok, msg
    assert v.stats["flips_tried"] == 1 + len(passes) == 1
    passes.clear()
    v = recognize_opposition(g, flip_cap=2)
    assert v.is_member and v.stats["flips_tried"] == 1 + len(passes) == 3
    # a component that exhausts within the cap decides, even after one
    # that hit it: co-C6 is refuted by its one vector
    passes.clear()
    g = disjoint_union([f, co_c6])
    v = recognize_opposition(g, flip_cap=1)
    _assert_verdict(g, v, "non-member")
    assert v.certificate.vertices == tuple(range(7, 13))
    assert v.stats["flips_tried"] == 1 + len(passes) == 1
    # three disjoint co-C6 copies: the first one refutes the union
    passes.clear()
    g = disjoint_union([co_c6] * 3)
    full = recognize_opposition(g)
    _assert_verdict(g, full, "non-member")
    assert full.stats["flips_tried"] == 1 + len(passes) == 1
    assert full.certificate == InducedSubgraph(tuple(range(6)), recognize_opposition(co_c6).certificate)


def test_flip_cap_below_one_is_rejected(co_c6_labeled):
    # the cap is checked on entry, also where no flip search runs: P4 and
    # P7 take the distance-hereditary routes, C5 has an odd walk
    graphs = (co_c6_labeled, path_graph(4), path_graph(7), cycle_graph(5))
    recognizers = (recognize_opposition, recognize_coalition, recognize_coalition_distance_hereditary)
    for g in graphs:
        for recognize in recognizers:
            for cap in (0, -1):
                with pytest.raises(ValueError, match="flip cap must be at least 1"):
                    recognize(g, flip_cap=cap)


def test_h1_constructor_is_source_orientation(h1):
    o = ptolemaic_opposition_orient(h1)
    assert verify_orientation(o, OPPOSITION)
    assert sum(1 for t, _ in o.arcs() if t == 0) == 3  # v1 is a source
    res = oracle_opposition(h1, enumerate_all=True)
    ends = end_edges(h1)
    restriction = tuple((u, v) if o.forward(u, v) else (v, u) for u, v in ends)
    assert restriction in res.all_end_edge_assignments


def test_h2_constructor_matches_oracle(h2):
    o = ptolemaic_opposition_orient(h2)
    assert verify_orientation(o, OPPOSITION)
    res = oracle_opposition(h2, enumerate_all=True)
    assert len(res.all_end_edge_assignments) == 2
    ends = end_edges(h2)
    restriction = tuple((u, v) if o.forward(u, v) else (v, u) for u, v in ends)
    assert restriction in res.all_end_edge_assignments


def test_p5_constructor_uses_midpoint_route():
    g = path_graph(5)
    o = ptolemaic_opposition_orient(g)
    assert verify_orientation(o, OPPOSITION)
    res = oracle_opposition(g, enumerate_all=True)
    ends = end_edges(g)
    restriction = tuple((u, v) if o.forward(u, v) else (v, u) for u, v in ends)
    assert restriction in res.all_end_edge_assignments


def test_constructor_p5_free_fallback():
    # stars and complete graphs are P5-free ptolemaic
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert verify_orientation(ptolemaic_opposition_orient(star), OPPOSITION)
    assert verify_orientation(ptolemaic_opposition_orient(complete_graph(4)), OPPOSITION)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        ptolemaic_opposition_orient(cycle_graph(5))
    with pytest.raises(ValueError):
        ptolemaic_opposition_orient(Graph(4, [(0, 1), (2, 3)]))


def test_coalition_n_non_member():
    g = GRAPH_N.as_graph()
    v = recognize_coalition(g)
    _assert_verdict(g, v, "non-member")
    assert isinstance(v.certificate, OddWalkCertificate)
    assert v.certificate.length() == 3


def test_coalition_dh_n_witness_and_minimality():
    g = GRAPH_N.as_graph()
    v = recognize_coalition_distance_hereditary(g)
    _assert_verdict(g, v, "non-member")
    assert v.certificate.pattern.name == "N"
    from oppograph.graphs import induced_subgraph

    for drop in range(g.n):
        sub, _ = induced_subgraph(g, [x for x in range(g.n) if x != drop])
        assert recognize_coalition(sub).is_member
        assert oracle_coalition(sub).is_member


def test_coalition_c6_member_via_flip_search():
    g = cycle_graph(6)
    v = recognize_coalition(g)
    _assert_verdict(g, v, "member")
    assert v.method == "flip-search-extension"
    assert oracle_coalition(g).is_member


def test_coalition_h1_member(h1):
    v = recognize_coalition(h1)
    _assert_verdict(h1, v, "member")
    assert oracle_coalition(h1).is_member


def test_coalition_tree_member_transitive():
    from oppograph.generate import random_tree

    g = random_tree(9, 3)
    v = recognize_coalition_distance_hereditary(g)
    _assert_verdict(g, v, "member")
    assert v.method == "dh-transitive"


def test_transitive_orient_examples():
    assert transitive_orient(cycle_graph(4)) is not None
    assert transitive_orient(cycle_graph(5)) is None
    bull = parse_edge_list("1 2\n2 3\n3 4\n2 5\n3 5")  # N minus its tail vertex
    o = transitive_orient(bull)
    assert o is not None
    assert verify_orientation(o, COALITION)


def test_transitive_orient_is_transitive_and_acyclic():
    for seed in range(40):
        g = random_graph(7, 0.5, seed + 5)
        o = transitive_orient(g)
        if o is None:
            continue
        arcs = set(o.arcs())
        for a, b in list(arcs):
            for b2, c in list(arcs):
                if b2 == b:
                    assert (a, c) in arcs
        from oppograph.graphs import topo_order_or_cycle

        assert topo_order_or_cycle(g.n, arcs)[0] is not None


def test_transitive_orient_matches_bruteforce_comparability():
    # brute comparability check on small graphs: some acyclic transitive orientation
    import itertools

    def brute_comparability(g):
        m = g.m
        for bits in itertools.product((0, 1), repeat=m):
            arcs = {
                (u, v) if b == 0 else (v, u) for (u, v), b in zip(g.edges, bits)
            }
            ok = True
            for a, b in arcs:
                if not ok:
                    break
                for b2, c in arcs:
                    if b2 == b and (a, c) not in arcs:
                        ok = False
                        break
            if ok:
                return True
        return False

    for seed in range(25):
        g = random_graph(6, 0.5, seed + 9)
        assert (transitive_orient(g) is not None) == brute_comparability(g), seed


def _reference_transitive_orient(g):
    """Arcs of the has_edge Gamma-forcing engine, one implication class
    at a time with a set of the edges still unoriented, then the in x out
    transitivity check per vertex; None when either fails."""
    head = {}
    remaining = set(g.edges)
    for seed in g.edges:
        if seed not in remaining:
            continue
        stage = {seed: seed[1]}
        stack = [seed]
        while stack:
            a, b = stack.pop()
            # shared tail a (a -> c), then shared head b (c -> b)
            for x, y, tail in ((a, b, True), (b, a, False)):
                for c in g.sorted_neighbors(x):
                    if c == y or g.has_edge(y, c):
                        continue
                    e = (x, c) if x < c else (c, x)
                    if e not in remaining:
                        continue
                    h = c if tail else x
                    if e in stage:
                        if stage[e] != h:
                            return None
                    else:
                        stage[e] = h
                        stack.append((x, c) if tail else (c, x))
        for e, h in stage.items():
            head[e] = h
            remaining.discard(e)
    out = {v: set() for v in range(g.n)}
    inn = {v: set() for v in range(g.n)}
    for (u, v), h in head.items():
        t = u if h == v else v
        out[t].add(h)
        inn[h].add(t)
    for b in range(g.n):
        for a in inn[b]:
            if not out[b] <= out[a]:
                return None
    return sorted((u if h == v else v, h) for (u, v), h in head.items())


def _assert_orient_as_reference(g):
    o = transitive_orient(g)
    assert (None if o is None else o.arcs()) == _reference_transitive_orient(g)
    return o


def test_transitive_orient_equals_reference_on_random_graphs():
    rng = random.Random(1404)
    rejected = 0
    for i in range(5000):
        g = random_graph(3 + i % 12, rng.uniform(0.1, 0.9), rng)
        rejected += _assert_orient_as_reference(g) is None
    assert rejected >= 1000


def test_transitive_orient_equals_reference_on_generated_and_k2():
    from oppograph.generate import (
        random_distance_hereditary,
        random_opposition_ptolemaic,
        random_tree,
    )

    for n in (10, 40, 80, 120):
        for seed in range(3):
            for make in (random_distance_hereditary, random_tree, random_opposition_ptolemaic):
                _assert_orient_as_reference(make(n, seed))
    for k in (1, 2, 3, 50, 300):
        assert _assert_orient_as_reference(hub_last_k2(k)) is not None


def test_transitive_orient_on_hub_last_k2_3000():
    g = hub_last_k2(3000)
    o = transitive_orient(g)
    assert o is not None
    out = {v: set() for v in range(g.n)}
    for t, h in o.arcs():
        out[t].add(h)
    for t, h in o.arcs():
        assert out[h] <= out[t]
    assert topo_order_or_cycle(g.n, o.arcs())[0] is not None


def test_reversal_closure_of_member_certificates(co_c6_labeled, h1):
    for g, cls in [
        (path_graph(6), OPPOSITION),
        (h1, OPPOSITION),
        (cycle_graph(6), COALITION),
        (co_c6_labeled, GENERALIZED_OPPOSITION),
    ]:
        v = {
            OPPOSITION: recognize_opposition,
            COALITION: recognize_coalition,
            GENERALIZED_OPPOSITION: recognize_generalized_opposition,
        }[cls](g)
        assert v.is_member
        assert verify_orientation(Orientation(g, [(h, t) for t, h in v.certificate.arcs()]), cls)


def test_obstruction_search_on_trees():
    t2 = make_Tk(2).as_graph()
    assert opposition_obstruction(t2).pattern.name == "T2"


def test_verdict_payload_schema(co_c6_labeled):
    v = recognize_opposition(co_c6_labeled)
    payload = verdict_payload(v, co_c6_labeled)
    assert payload["schema"] == "oppograph.verdict/1"
    assert payload["class"] == "opposition"
    assert payload["decision"] == "non-member"
    assert payload["certificate"]["kind"] == "flip-exhaustion"
    assert set(payload["stats"]) == {"p4_count", "aux_vertices", "aux_components", "flips_tried"}


def test_small_oracle_agreement_spot():
    for seed in range(25):
        g = random_graph(6, 0.5, seed + 201)
        assert recognize_opposition(g).is_member == oracle_opposition(g).is_member
        assert recognize_coalition(g).is_member == oracle_coalition(g).is_member


def test_co_c8_generalized_but_not_opposition():
    from oppograph.graphs import complement

    g = complement(cycle_graph(8))
    gen = recognize_generalized_opposition(g)
    assert gen.is_member
    opp = recognize_opposition(g)
    assert opp.decision == "non-member"
    for v in (gen, opp):
        ok, msg = check_verdict(g, v)
        assert ok, msg


def test_split_graphs_are_opposition_members():
    import random

    rng = random.Random(31337)
    for _ in range(10):
        k = rng.randint(2, 5)
        s = rng.randint(1, 4)
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        for x in range(k, k + s):
            for i in range(k):
                if rng.random() < 0.5:
                    edges.append((i, x))
        g = Graph(k + s, edges)
        v = recognize_opposition(g)
        assert v.is_member
        ok, msg = check_verdict(g, v)
        assert ok, msg


def test_bipartite_graphs_are_coalition_members():
    import random

    rng = random.Random(8128)
    for _ in range(10):
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        edges = [
            (i, a + j) for i in range(a) for j in range(b) if rng.random() < 0.6
        ]
        g = Graph(a + b, edges)
        v = recognize_coalition(g)
        assert v.is_member
        ok, msg = check_verdict(g, v)
        assert ok, msg


def test_hk_inner_roots_never_source_or_sink(h2):
    # in either valid orientation of H2, the intermediate root v1 (id 6)
    # has both an incoming and an outgoing end-edge
    res = oracle_opposition(h2, enumerate_all=True)
    for assignment in res.all_end_edge_assignments:
        outs = sum(1 for t, h in assignment if t == 6)
        ins = sum(1 for t, h in assignment if h == 6)
        assert outs >= 1 and ins >= 1


def test_h3_constructor_root_is_source():
    g = make_Hk(3).as_graph()
    o = ptolemaic_opposition_orient(g)
    assert verify_orientation(o, OPPOSITION)
    assert sum(1 for t, _ in o.arcs() if t == 0) == g.degree(0) == 7


def _spy_roots(monkeypatch):
    """Record the roots the constructor tries and the errors they raise."""
    import oppograph.recognize as rec

    tried, errors = [], []
    inner = rec._layer_orient

    def spy(g, p4s, root):
        tried.append(root)
        try:
            return inner(g, p4s, root)
        except PtolemaicOrientationError as exc:
            errors.append(exc)
            raise

    monkeypatch.setattr(rec, "_layer_orient", spy)
    return tried, errors


def test_member_path_never_searches_hk(monkeypatch):
    import oppograph.p4
    import oppograph.patterns
    import oppograph.recognize
    from oppograph.generate import random_opposition_ptolemaic

    # the H_k search, the gem search of the ptolemaic test, any other
    # backtracking pattern search and the layer constructor are all off
    # the member path
    for module, name in (
        (oppograph.patterns, "find_max_Hk"),
        (oppograph.patterns, "is_ptolemaic"),
        (oppograph.patterns, "find_induced"),
        (oppograph.p4, "layer_decompose"),
        (oppograph.p4, "classify_layer_type"),
        (oppograph.recognize, "_layer_orient"),
    ):

        def forbidden(*args, name=name):
            raise AssertionError(f"{name} on the member path")

        monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(oppograph.recognize, name, forbidden, raising=False)
    for n, seed in ((40, 40), (60, 60), (80, 80), (120, 120), (200, 3)):
        g = random_opposition_ptolemaic(n, seed)
        v = recognize_opposition(g)
        assert v.method == "dh-ptolemaic"
        _assert_verdict(g, v, "member")


def test_chordal_dh_members_take_side0():
    # a chordal input takes side 0, the flip search's first vector, even
    # when it holds a P5 (the golden tree and p5+h1 graphs)
    from oppograph.generate import random_tree

    for g in (random_tree(9, 3), disjoint_union([path_graph(5), make_Hk(1).as_graph()])):
        v = recognize_opposition(g)
        assert v.method == "dh-ptolemaic"
        assert v.certificate.arcs() == _dh_side0_orientation(g).arcs()


def test_twin_reduction_ending_at_a_chordal_level(monkeypatch):
    # C4 0-1-2-3 with the path 0-4-5-6 is not chordal; dropping 3, the
    # twin of 1, leaves the path 2-1-0-4-5-6, a chordal level with a P5
    import oppograph.recognize as rec
    from oppograph.patterns import _perfect_elimination_order

    levels = []
    inner = rec._dh_side0_orientation

    def spy(h):
        levels.append(h)
        return inner(h)

    monkeypatch.setattr(rec, "_dh_side0_orientation", spy)
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)])
    assert _perfect_elimination_order(g) is None
    v = recognize_opposition(g)
    _assert_verdict(g, v, "member")
    assert v.method == "dh-ptolemaic"
    assert [h.n for h in levels] == [6]
    assert _perfect_elimination_order(levels[0]) is not None
    assert oracle_opposition(g).is_member


def _count_searches(monkeypatch):
    """Count ``find_induced`` calls by pattern name and ``has_hole`` and
    ``_gem_house_free`` calls by function name, patched in every module
    that looks the name up."""
    import oppograph.patterns
    import oppograph.recognize

    calls = Counter()
    for name in ("find_induced", "has_hole", "_gem_house_free"):
        inner = getattr(oppograph.patterns, name)

        def spy(g, *args, name=name, inner=inner):
            calls[args[0].name if name == "find_induced" else name] += 1
            return inner(g, *args)

        for module in (oppograph.patterns, oppograph.recognize):
            monkeypatch.setattr(module, name, spy)
    return calls


def test_route_tests_build_no_witness(monkeypatch):
    calls = _count_searches(monkeypatch)
    # hub-last K_{2,50}: distance-hereditary, not chordal at any twin level
    # but the last
    k2 = Graph(52, [(i, h) for i in range(50) for h in (50, 51)])
    assert recognize_opposition(k2).method == "dh-ptolemaic"
    assert recognize_coalition(k2).method == "dh-transitive"
    assert not calls
    # not distance-hereditary: the failed pruning searches nothing, and
    # neither does a flip search that refutes or finds a member past its
    # first vector
    g = disjoint_union([complement(cycle_graph(6)), HOUSE.as_graph()] + [path_graph(5)] * 5)
    assert not recognize_opposition(g).is_member
    f = parse_graph6("F}SyO")
    v = recognize_opposition(f)
    assert v.is_member and v.stats["flips_tried"] > 1
    assert calls == {}
    # a member at the first vector runs the P4 test for a gem or house
    # once to name it, with no pattern search, and coalition looks for a
    # hole too
    domino = parse_graph6("Er_g")
    assert recognize_opposition(domino).method == "gem-house-free"
    assert calls == {"_gem_house_free": 1}
    calls.clear()
    assert recognize_coalition(domino).method == "gem-house-hole-free"
    assert calls == {"_gem_house_free": 1, "has_hole": 1}


def test_route_test_on_the_closed_strip_searches_no_pattern(monkeypatch):
    import oppograph.patterns
    import oppograph.recognize

    # the closed triangle strip is a coalition member at side 0 and not
    # distance-hereditary, so it runs the route test; a backtracking house
    # search there is quadratic, as house vertex 1 has no earlier neighbour
    def forbidden(*args):
        raise AssertionError("find_induced on the recognizer path")

    for module in (oppograph.patterns, oppograph.recognize):
        monkeypatch.setattr(module, "find_induced", forbidden, raising=False)
    g = triangle_strip(801, closed=True)
    for want_witness in (False, True):
        v = recognize_opposition(g, want_witness=want_witness)
        assert (v.decision, v.method, v.witness) == ("non-member", "aux-odd-walk", None)
        v = recognize_coalition(g, want_witness=want_witness)
        assert (v.decision, v.method, v.stats["flips_tried"]) == ("member", "flip-search-extension", 1)
    assert recognize_generalized_opposition(g).decision == "non-member"
    assert recognize_coalition_distance_hereditary(g).method == "flip-search-extension"


def test_route_test_lists_no_p4(monkeypatch):
    import oppograph.p4
    import oppograph.patterns
    import oppograph.recognize

    # the 7-vertex member Fh?Dw is decided at side 0 and is not
    # distance-hereditary, so its K_8 blow-up (n = 56, 24 576 P4s) runs
    # the (gem, house) route test, which stops at its first house or gem;
    # a list of every P4 peaks near 2.2 MiB
    def forbidden(*args):
        raise AssertionError("induced_p4s on the recognizer path")

    for module in (oppograph.patterns, oppograph.recognize, oppograph.p4):
        monkeypatch.setattr(module, "induced_p4s", forbidden)
    g = clique_blowup(parse_graph6("Fh?Dw"), 8)
    tracemalloc.start()
    try:
        o = recognize_opposition(g)
        c = recognize_coalition(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (o.decision, o.method, o.stats["flips_tried"]) == ("member", "flip-search", 1)
    assert (c.decision, c.method, c.stats["flips_tried"]) == ("member", "flip-search-extension", 1)
    assert peak < 1 << 20, peak


def _spy_calls(monkeypatch, module, name):
    """The argument tuples of every call of ``module.name`` from now on."""
    calls = []
    inner = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_route_tests_run_only_at_side0(monkeypatch):
    import oppograph.patterns as patterns
    import oppograph.recognize as rec
    from oppograph.generate import random_opposition_ptolemaic

    pruned = _spy_calls(monkeypatch, rec, "_prunes")
    # the flip search exhausts, with no pruning
    v = recognize_opposition(complement(cycle_graph(6)))
    assert (v.decision, v.method) == ("non-member", "flip-search")
    v = recognize_coalition(cycle_graph(5))
    assert (v.decision, v.method) == ("non-member", "flip-search-extension")
    # members found past the first vector run no pruning either
    for recognize, g in (
        (recognize_opposition, disjoint_union([parse_graph6("F}SyO"), path_graph(5)])),
        (recognize_coalition, disjoint_union([cycle_graph(6), parse_graph6("FNccw")])),
    ):
        v = recognize(g)
        assert v.is_member and v.stats["flips_tried"] > 1
    assert not pruned
    # a chordal distance-hereditary member prunes once and builds O(G) once
    built = _spy_calls(monkeypatch, rec, "ConstraintGraph")
    g = random_opposition_ptolemaic(40, 40)
    v = recognize_opposition(g)
    assert (v.method, v.stats["flips_tried"]) == ("dh-ptolemaic", None)
    assert pruned == [(g,)] and built == [(OPPOSITION, g)]
    # the one pass also says that g is chordal
    assert patterns._prunes(g) == (True, True)


def test_chordal_dh_members_run_no_mcs_pass(monkeypatch):
    # the pruning tells whether a DH member is chordal, so a chordal one
    # runs no maximum cardinality search; one with a C4 runs the twin
    # reduction, which tests each level with one
    import oppograph.patterns as patterns
    import oppograph.recognize as rec
    from oppograph.generate import random_opposition_ptolemaic

    pruned = _spy_calls(monkeypatch, rec, "_prunes")
    searched = _spy_calls(monkeypatch, patterns, "_mcs_elimination_order")
    g = random_opposition_ptolemaic(40, 40)
    v = recognize_opposition(g)
    assert (v.decision, v.method) == ("member", "dh-ptolemaic")
    assert pruned == [(g,)] and searched == []
    # C4 0-1-2-3 with the path 0-4-5-6: the level without 3 is chordal
    h = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)])
    v = recognize_opposition(h)
    assert (v.decision, v.method) == ("member", "dh-ptolemaic")
    assert pruned == [(g,), (h,)] and [a[0].n for a in searched] == [7, 6]


def test_neighbour_bits_built_once_per_graph(monkeypatch):
    import oppograph.graphs as graphs

    # C(G), the pruning and the self-check all read the bitsets of the one
    # input graph
    built = _spy_calls(monkeypatch, graphs, "_build_neighbour_bits")
    g = hub_last_k2(2000)
    v = recognize_coalition(g)
    assert (v.decision, v.method) == ("member", "dh-transitive")
    assert built == [(g,)]
    recognize_coalition(g)
    assert len(built) == 1


def test_coalition_dh_members_keep_side0(monkeypatch):
    # a distance-hereditary coalition member keeps the flip search's side-0
    # orientation, from either coalition recognizer; no recognizer orients
    # transitively
    import oppograph.recognize as rec
    from oppograph.generate import random_distance_hereditary, random_tree

    built = _spy_calls(monkeypatch, rec, "transitive_orient")
    inputs = [random_tree(30, 4), hub_last_k2(50), disjoint_union([path_graph(5), make_Hk(1).as_graph()])]
    inputs += [random_distance_hereditary(25, seed) for seed in range(20)]
    members = 0
    for g in inputs:
        recognize_opposition(g, want_witness=True)
        recognize_generalized_opposition(g)
        v = recognize_coalition(g)
        dh = recognize_coalition_distance_hereditary(g)
        if not v.is_member:
            continue
        assert (v.method, v.stats["flips_tried"]) == ("dh-transitive", None)
        cg = ConstraintGraph(COALITION, g)
        side0 = extend_acyclic(forced_orientation(cg, (0,) * len(cg.class_bad)))
        assert v.certificate.arcs() == side0.arcs()
        _assert_verdict(g, v, "member")
        assert verdict_payload(dh, g) == verdict_payload(v, g)
        members += 1
    assert members >= 10 and not built


def test_coalition_dh_searches_for_n_only_in_non_members(monkeypatch):
    # C(G) decides a distance-hereditary input; find_induced runs only to
    # embed the N of a non-member
    import oppograph.recognize as rec

    searched = _spy_calls(monkeypatch, rec, "find_induced")
    g = hub_last_k2(200)
    v = recognize_coalition_distance_hereditary(g)
    assert (v.method, v.stats["flips_tried"]) == ("dh-transitive", None)
    _assert_verdict(g, v, "member")
    assert not searched
    n = GRAPH_N.as_graph()
    v = recognize_coalition_distance_hereditary(n)
    assert v.method == "dh-n-witness" and searched == [(n, GRAPH_N)]
    _assert_verdict(n, v, "non-member")
    # a distance-hereditary input with an odd walk and no obstruction found
    # is a bug, not a verdict, for either class
    monkeypatch.setattr(rec, "find_induced", lambda g, p: None)
    with pytest.raises(CertificateError, match="coalition non-member holds no obstruction"):
        recognize_coalition_distance_hereditary(n)
    monkeypatch.setattr(rec, "find_Tk_free_violation", lambda g: None)
    a = GRAPH_A.as_graph()
    with pytest.raises(CertificateError, match="opposition non-member holds no obstruction"):
        recognize_opposition(a, want_witness=True)


def test_hub_last_k2_4000_coalition():
    g = hub_last_k2(4000)
    for recognize in (recognize_coalition, recognize_coalition_distance_hereditary):
        v = recognize(g)
        assert (v.method, v.stats["flips_tried"]) == ("dh-transitive", None)
        _assert_verdict(g, v, "member")


def test_constructor_scan_later_root_rescues(monkeypatch):
    from oppograph.generate import random_opposition_ptolemaic

    tried, errors = _spy_roots(monkeypatch)
    g = random_opposition_ptolemaic(31, seed=10_032)
    o = ptolemaic_opposition_orient(g)
    assert verify_orientation(o, OPPOSITION)
    assert len(tried) == 13 and len(errors) == 12


@pytest.mark.parametrize("g", [make_Tk(1).as_graph(), GRAPH_G1.as_graph()], ids=["T1", "G1"])
def test_constructor_scan_raises_when_every_root_fails(monkeypatch, g):
    tried, errors = _spy_roots(monkeypatch)
    with pytest.raises(PtolemaicOrientationError) as info:
        ptolemaic_opposition_orient(g)
    assert sorted(tried) == list(range(g.n))
    assert info.value is errors[0]


def test_twin_route_dh_members_verified():
    # non-chordal distance-hereditary members exercise the twin reduction
    from oppograph.generate import random_distance_hereditary
    from oppograph.patterns import PatternMatch, is_chordal

    hit = 0
    i = 0
    while hit < 25 and i < 400:
        g = random_distance_hereditary(1 + (i % 12), seed=i)
        i += 1
        if not isinstance(is_chordal(g), PatternMatch):
            continue
        v = recognize_opposition(g)
        if not v.is_member:
            continue
        hit += 1
        assert v.method == "dh-ptolemaic"
        ok, msg = check_verdict(g, v)
        assert ok, msg
    assert hit == 25


def test_oracle_agreement_n8_n9_random():
    import random

    rng = random.Random(424242)
    for _ in range(30):
        n = rng.choice([8, 9])
        p = rng.uniform(0.2, 0.8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        for rec, orc in (
            (recognize_opposition, oracle_opposition),
            (recognize_coalition, oracle_coalition),
        ):
            v = rec(g)
            assert v.decision != "undecided"
            assert v.is_member == orc(g).is_member
            ok, msg = check_verdict(g, v)
            assert ok, msg


# ---------------------------------------------------------------------------
# the flip search checks one component of G at a time


def _whole_graph_flip_search(cg, flip_cap):
    """The flip search with one forced orientation and one acyclicity
    check of the whole graph per flip vector in rank order, kept as the
    reference."""
    cap = DEFAULT_FLIP_CAP if flip_cap is None else flip_cap
    c = len(cg.class_bad)
    total = 1 << (c - 1) if c > 0 else 1
    entries = []
    for rank in range(total):
        if rank >= cap:
            return _FlipOutcome(None, None, rank)
        flips = (0,) + tuple((rank >> i) & 1 for i in range(c - 1)) if c > 0 else ()
        partial = forced_orientation(cg, flips)
        res = is_acyclic(partial)
        if not isinstance(res, DirectedCycleCertificate):
            return _FlipOutcome(extend_acyclic(partial), None, rank + 1)
        entries.append((flips, res))
    return _FlipOutcome(None, FlipExhaustion(tuple(entries)), total)


def _reference(g, kind, flip_cap=None):
    return _whole_graph_flip_search(ConstraintGraph(kind, g), flip_cap)


def _assert_same_outcome(got, want):
    assert (got.orientation is None) == (want.orientation is None)
    if want.orientation is not None:
        assert got.orientation.arcs() == want.orientation.arcs()
    assert got.certificate == want.certificate
    assert got.tried == want.tried


def _composed_search(g, kind, flip_cap):
    """The flip search of G composed from the whole-graph searches of its
    connected components alone, kept as the reference for unions (on a
    graph with one component holding aux variables `_flip_search` equals
    the whole-graph search).  Components are taken by least vertex.  The
    first one whose search exhausts refutes G with its own certificate:
    relabelled to G's ids when it holds every aux variable, else inside an
    induced-subgraph certificate on its vertices.  Otherwise a component
    that hit the cap leaves G undecided, and with none G is a member with
    every component's own arcs, relabelled.  ``tried`` is 1, the side-0
    vector they share, plus each searched component's own count minus its
    side 0."""
    ends = {x for x, _ in ConstraintGraph(kind, g).vars}
    arcs, tried, capped = [], 1, False
    for comp in connected_components(g):
        sub, ids = induced_subgraph(g, comp)
        own = _reference(sub, kind, flip_cap)
        tried += own.tried - 1
        if own.orientation is not None:
            arcs += [(ids[u], ids[v]) for u, v in own.orientation.arcs()]
        elif own.certificate is None:
            capped = True
        elif ends <= set(comp):
            exhaustion = FlipExhaustion(tuple(
                (flips, DirectedCycleCertificate(tuple(ids[v] for v in cyc.vertices)))
                for flips, cyc in own.certificate.entries
            ))
            return _FlipOutcome(None, exhaustion, tried)
        else:
            return _FlipOutcome(None, InducedSubgraph(ids, own.certificate), tried)
    if capped:
        return _FlipOutcome(None, None, tried)
    return _FlipOutcome(Orientation(g, arcs), None, tried)


def _searched_past_side0(g, kind):
    """How many components of G search past their side 0 alone."""
    return sum(_reference(induced_subgraph(g, comp)[0], kind).tried > 1 for comp in connected_components(g))


_WITH_P4S = (
    cycle_graph(5),
    complement(cycle_graph(6)),
    cycle_graph(6),
    HOUSE.as_graph(),
    GEM.as_graph(),
    path_graph(4),
    path_graph(5),
    # connected members whose first flip vector is cyclic
    parse_graph6("F}SyO"),  # opposition
    parse_graph6("FNccw"),  # coalition
    # connected non-members with two aux components
    parse_graph6("FUxqO"),  # opposition
    parse_graph6("FtGZO"),  # coalition
)
_WITHOUT_P4S = (complete_graph(3), complete_graph(2), complete_graph(1))


def test_flip_search_per_component_matches_whole_graph():
    # a graph with one component holding aux variables searches as the
    # whole-graph reference does; an uncapped union is decided as the
    # reference decides it, and every union is searched as its components
    # are alone: a member takes each component's own arcs, a non-member
    # the first exhausted component's own certificate, and flips_tried
    # counts the side-0 vector they share once
    rng = random.Random(5)
    seen = dict.fromkeys(
        ("one part", "member past side 0", "cap partway", "no P4s", "induced subgraph",
         "exhausted without aux component 0", "decided past the cap"), 0
    )
    for _ in range(250):
        gs = [rng.choice(_WITH_P4S) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            gs.append(rng.choice(_WITHOUT_P4S))
        rng.shuffle(gs)
        g = shuffled_union(gs, rng)
        comps = connected_components(g)
        for kind in (OPPOSITION, COALITION):
            cg = ConstraintGraph(kind, g)
            if bipartition_or_odd_walk(cg) is not None:
                continue
            ends = {x for x, _ in cg.vars}
            parts = [comp for comp in comps if not ends.isdisjoint(comp)]
            seen["no P4s"] += len(parts) < len(comps)
            for cap in (None, 1, 2, 5):
                got = _flip_search(cg, cap)
                if len(parts) <= 1:
                    seen["one part"] += 1
                    _assert_same_outcome(got, _whole_graph_flip_search(cg, cap))
                    continue
                _assert_same_outcome(got, _composed_search(g, kind, cap))
                if cap is None:
                    want = _whole_graph_flip_search(cg, None)
                    assert (got.orientation is None, got.certificate is None) == (
                        want.orientation is None, want.certificate is None
                    )
                if got.orientation is None and got.certificate is None:
                    seen["cap partway"] += 1
                elif got.orientation is not None:
                    seen["member past side 0"] += got.tried > 1
                    seen["decided past the cap"] += cap is not None and got.tried > cap
                else:
                    cert = got.certificate
                    assert isinstance(cert, InducedSubgraph) and list(cert.vertices) in parts
                    seen["induced subgraph"] += 1
                    aux0 = next(x for x, _ in cg.vars)
                    seen["exhausted without aux component 0"] += (
                        aux0 not in cert.vertices and len(cert.certificate.entries) > 1
                    )
    assert all(seen.values()), seen


def test_flip_search_without_aux_components():
    g = disjoint_union([complete_graph(3), complete_graph(2), complete_graph(1)])
    for kind in (OPPOSITION, COALITION):
        cg = ConstraintGraph(kind, g)
        assert bipartition_or_odd_walk(cg) is None and cg.class_bad == []
        got = _flip_search(cg, None)
        _assert_same_outcome(got, _whole_graph_flip_search(cg, None))
        assert got.tried == 1 and got.orientation is not None


def test_flip_search_equals_the_every_component_search():
    # random interleaved unions of two to four blocks whose side 0 is
    # cyclic in some class (F}SyO and FNccw, drawn most often, are members
    # past the first vector, FUxqO and FtGZO non-members) beside blocks
    # whose side 0 is acyclic or that hold no aux variable: each is
    # searched as its components are alone, and an uncapped one is decided
    # as the whole-graph reference decides it; counted when two or more
    # components are cyclic at side 0, and members when two or more of
    # them search past it
    rng = random.Random(20)
    blocks = [parse_graph6(s) for s in ("F}SyO", "FNccw", "FUxqO", "FtGZO")]
    acyclic = (path_graph(4), path_graph(5), HOUSE.as_graph(), GEM.as_graph()) + _WITHOUT_P4S
    seen = Counter()
    for _ in range(200):
        gs = [rng.choice(blocks[:2] * 3 + blocks[2:]) for _ in range(rng.randint(2, 4))]
        gs += [rng.choice(acyclic) for _ in range(rng.randint(1, 3))]
        g = shuffled_union(gs, rng)
        for kind in (OPPOSITION, COALITION):
            cg = ConstraintGraph(kind, g)
            if bipartition_or_odd_walk(cg) is not None:
                continue
            indeg = kahn_pass(g.n, [cg.vars[2 * k + side] for k, side in enumerate(cg.edge_side)])[1]
            cyclic = sum(any(indeg[v] for v in comp) for comp in connected_components(g))
            for cap in (None, 1, 2):
                got = _flip_search(cg, cap)
                _assert_same_outcome(got, _composed_search(g, kind, cap))
                if cap is None:
                    want = _whole_graph_flip_search(cg, None)
                    assert (got.orientation is None) == (want.orientation is None)
                    if got.orientation is not None:
                        seen["members past side 0 in two components"] += _searched_past_side0(g, kind) >= 2
                if cyclic >= 2:
                    outcome = "member" if got.orientation else "refuted" if got.certificate else "undecided"
                    seen[outcome] += 1
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def test_no_kahn_pass_runs_over_an_acyclic_component(monkeypatch):
    # a member at the first vector takes the one side-0 pass and builds no
    # part; past a cyclic side 0 only the parts run passes, one per vector
    # after rank 0, whose cycle the side-0 pass gave, so a part with one
    # aux component runs none, and flips_tried is 1 plus the passes.
    # Beside the 7-vertex F}SyO and the 6-vertex co-C6, side 0 is acyclic
    # in P5 and the house, and K3 has no P4
    import oppograph.recognize as rec
    from oppograph.generate import random_opposition_ptolemaic

    side0 = _spy_calls(monkeypatch, rec, "kahn_pass")
    parts = _spy_calls(monkeypatch, rec, "_parts")
    passes = _spy_calls(monkeypatch, rec, "topo_order_or_cycle")
    domino = parse_graph6("Er_g")
    for recognize, g, method in (
        (recognize_opposition, random_opposition_ptolemaic(40, 40), "dh-ptolemaic"),
        (recognize_opposition, domino, "gem-house-free"),
        (recognize_coalition, hub_last_k2(50), "dh-transitive"),
        (recognize_coalition, disjoint_union([path_graph(5), make_Hk(1).as_graph()]), "dh-transitive"),
        (recognize_coalition, domino, "gem-house-hole-free"),
    ):
        for calls in (side0, parts, passes):
            calls.clear()
        v = recognize(g)
        assert v.method == method and v.stats["flips_tried"] in (None, 1)
        assert len(side0) == 1 and parts == [] and passes == []
    f, co_c6 = parse_graph6("F}SyO"), complement(cycle_graph(6))
    for blocks, cap, decision, n_passes in (
        ([f], None, "member", 1),
        ([f, f], None, "member", 2),
        ([co_c6], None, "non-member", 0),
        ([f, co_c6], None, "non-member", 1),
        ([f], 1, "undecided", 0),
    ):
        for calls in (side0, parts, passes):
            calls.clear()
        g = disjoint_union(blocks + [path_graph(5), HOUSE.as_graph(), complete_graph(3)])
        v = recognize_opposition(g, flip_cap=cap)
        assert (v.decision, v.stats["flips_tried"]) == (decision, 1 + n_passes)
        assert len(side0) == 1 and len(parts) == 1
        assert [n for n, _ in passes] == [7] * n_passes


_BLOCKS = (
    complement(cycle_graph(6)),
    cycle_graph(6),
    cycle_graph(5),
    path_graph(5),
    path_graph(4),
    GEM.as_graph(),
    HOUSE.as_graph(),
    complete_graph(3),
    parse_graph6("F}SyO"),
    parse_graph6("FNccw"),
)


def test_unions_are_decided_and_members_match_whole_graph_scan():
    # every block has at most two aux components, so no union may come
    # back undecided; every flip-search verdict is the composition of the
    # components' own searches, and is the whole-graph scan's decision
    # (checked up to 12 aux components). F}SyO and FNccw, drawn most
    # often, make members searched past side 0 in two components
    rng = random.Random(10)
    flip_verdicts = Counter()
    for _ in range(100):
        gs = []
        while sum(h.n for h in gs) < 34:
            gs.append(rng.choice(_BLOCKS + _BLOCKS[-2:] * 3))
        g = shuffled_union(gs, rng)
        for kind, recognize in ((OPPOSITION, recognize_opposition), (COALITION, recognize_coalition)):
            v = recognize(g)
            assert v.decision != "undecided"
            ok, msg = check_verdict(g, v)
            assert ok, msg
            if not v.method.startswith("flip-search"):
                continue
            got = _FlipOutcome(*((v.certificate, None) if v.is_member else (None, v.certificate)),
                               v.stats["flips_tried"])
            _assert_same_outcome(got, _composed_search(g, kind, None))
            if v.stats["aux_components"] <= 12:
                assert v.is_member == (_reference(g, kind).orientation is not None)
            flip_verdicts[v.decision] += 1
            flip_verdicts["members past side 0 in two components"] += (
                v.is_member and _searched_past_side0(g, kind) >= 2
            )
    assert flip_verdicts["member"] >= 20 and flip_verdicts["non-member"] >= 20, flip_verdicts
    assert flip_verdicts["members past side 0 in two components"] >= 10, flip_verdicts


def test_roadmap_unions_are_decided():
    # both were undecided after 2^20 whole-graph flip vectors
    co_c6 = complement(cycle_graph(6))
    g = disjoint_union([co_c6] + [path_graph(5)] * 12)
    v = recognize_opposition(g)
    _assert_verdict(g, v, "non-member")
    assert isinstance(v.certificate, InducedSubgraph) and len(v.certificate.vertices) == 6
    f = parse_graph6("F}SyO")
    g = disjoint_union([f] * 12)
    v = recognize_opposition(g)
    _assert_verdict(g, v, "member")
    assert v.stats["flips_tried"] == 13


def test_eight_copies_keep_their_payload(monkeypatch):
    # each copy of F}SyO runs its own search, one Kahn pass past its side
    # 0, and takes the arcs F}SyO gets alone; the payload is pinned
    import oppograph.recognize as rec

    passes = _spy_calls(monkeypatch, rec, "topo_order_or_cycle")
    f = parse_graph6("F}SyO")
    g = disjoint_union([f] * 8)
    v = recognize_opposition(g)
    assert v.stats["flips_tried"] == 1 + len(passes) == 9
    own = recognize_opposition(f).certificate.arcs()
    assert v.certificate.arcs() == sorted((u + 7 * i, w + 7 * i) for i in range(8) for u, w in own)
    payload = json.dumps(verdict_payload(v, g), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "c8d7b45aed451924ff3654485dc70b2a2cb1dbb0a3cd5a57027bd6b14f7c7b93"
    )


def test_side0_orientation_is_the_first_flip_vector():
    # on (gem, house)-free graphs with bipartite O(G), and (gem, house,
    # hole)-free ones with bipartite C(G), the forced part of side 0 is
    # acyclic, so the flip search stops at its first vector with the side-0
    # orientation; both recognizers label distance-hereditary members only
    # there, the opposition one takes side 0 where the twin reduction stops,
    # and the other routes name such members after the theorem
    nx = pytest.importorskip("networkx")
    from oppograph.generate import (
        random_distance_hereditary,
        random_opposition_ptolemaic,
        random_ptolemaic,
    )
    from oppograph.patterns import _prunes, find_induced, has_hole

    def first_vector(kind, h):
        """The number of aux components once the flip search is checked to
        stop at side 0, or None when the aux graph is not bipartite."""
        cg = ConstraintGraph(kind, h)
        if bipartition_or_odd_walk(cg) is not None:
            return None
        outcome = _flip_search(cg, None)
        assert outcome.tried == 1
        side0 = extend_acyclic(forced_orientation(cg, (0,) * len(cg.class_bad)))
        assert outcome.orientation.arcs() == side0.arcs()
        return len(cg.class_bad)

    rng = random.Random(8)
    checked, several = Counter(), Counter()
    for i in range(300):
        make = (random_distance_hereditary, random_ptolemaic, random_opposition_ptolemaic)[i % 3]
        g = make(rng.randint(3, 40), rng.randrange(10**6))
        keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        for h in (g, induced_subgraph(g, keep)[0]):
            for kind in (OPPOSITION, COALITION):
                count = first_vector(kind, h)
                if count is not None:
                    checked[kind] += 1
                    several[kind] += count > 1  # more than one flip vector
    assert checked[OPPOSITION] >= 300 and several[OPPOSITION] >= 10, (checked, several)
    assert checked[COALITION] >= 300 and several[COALITION] >= 10, (checked, several)

    # not distance-hereditary: holes C_k with pendants, and the (gem,
    # house)-free graphs of the atlas
    inputs = []
    for k in range(5, 13):
        for _ in range(8):
            ends = sorted(rng.sample(range(k), rng.randint(0, k)))
            cycle = [(v, (v + 1) % k) for v in range(k)]
            inputs.append(Graph(k + len(ends), cycle + [(v, k + i) for i, v in enumerate(ends)]))
    for a in nx.graph_atlas_g()[1:]:
        h = Graph(a.number_of_nodes(), list(a.edges()))
        if find_induced(h, GEM) is None and find_induced(h, HOUSE) is None:
            inputs.append(h)
    named = Counter()
    for h in inputs:
        dh = _prunes(h)[0]
        if first_vector(OPPOSITION, h) is not None and not dh:
            v = recognize_opposition(h)
            assert (v.method, v.stats["flips_tried"]) == ("gem-house-free", 1)
            named[OPPOSITION] += 1
        if has_hole(h) is None and first_vector(COALITION, h) is not None and not dh:
            v = recognize_coalition(h)
            assert (v.method, v.stats["flips_tried"]) == ("gem-house-hole-free", 1)
            named[COALITION] += 1
    assert named[OPPOSITION] >= 10 and named[COALITION] >= 8, named


def test_member_self_check_raises_on_a_bad_orientation(monkeypatch):
    # every arc of P5 low -> high aligns the end-edges of both P4s, which
    # breaks generalized opposition; the self-check raises, never returns it
    import oppograph.recognize as rec

    # the side-0 arcs replaced by every end-edge low -> high
    monkeypatch.setattr(rec, "_side0_arcs", lambda cg: list(cg.vars[::2]))
    with pytest.raises(CertificateError, match=r"P4 \(0, 1, 2, 3\) violates the generalized-opposition condition"):
        recognize_generalized_opposition(path_graph(5))
