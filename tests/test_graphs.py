import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import isomorphic, random_graph
from oppograph.graphs import (
    Graph,
    GraphError,
    Orientation,
    PartialOrientation,
    complement,
    complete_graph,
    connected_components,
    cycle_graph,
    emit_dot,
    encode_graph6,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    path_graph,
    topo_order_or_cycle,
)
from oppograph.constraints import ConstraintGraph, forced_orientation
from oppograph.p4 import COALITION, GRAPH_CLASSES, OPPOSITION
from oppograph.patterns import GEM, HOUSE
from oppograph.recognize import ptolemaic_opposition_orient, recognize_coalition, recognize_opposition
from oppograph.verify import check_orientation
from oppograph.patterns import make_Hk


def test_parse_edge_list_path():
    g = parse_edge_list("a b\nb c")
    assert g.n == 3 and g.m == 2
    assert g.labels == ("a", "b", "c")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_edge_list_collapses_duplicates():
    g = parse_edge_list("1 2\n2 1")
    assert g.n == 2 and g.m == 1


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# header\n\na b  # inline\nb c\n")
    assert g.n == 3 and g.m == 2


def test_parse_edge_list_co_c6_labeled_is_co_c6(co_c6_labeled, co_c6):
    assert co_c6_labeled.n == 6 and co_c6_labeled.m == 9
    assert isomorphic(co_c6_labeled, co_c6)


def test_parse_edge_list_rejects_self_loop_with_line():
    with pytest.raises(GraphError, match="line 2"):
        parse_edge_list("a b\nc c\n")


def test_parse_edge_list_rejects_bad_token_count():
    with pytest.raises(GraphError, match="line 1"):
        parse_edge_list("a b c\n")


def test_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        Graph(2, [(0, 0)])


def test_graph6_d_brace_roundtrip():
    g = parse_graph6("D?{")
    assert encode_graph6(g) == "D?{"


def test_graph6_c5_matches_edge_list():
    c5 = cycle_graph(5)
    g = parse_graph6(encode_graph6(c5))
    assert g.n == 5 and g.m == 5
    assert g == c5


def test_graph6_k4():
    s = encode_graph6(complete_graph(4))
    g = parse_graph6(s)
    assert g.n == 4 and g.m == 6


def test_graph6_header_prefix():
    s = ">>graph6<<" + encode_graph6(cycle_graph(4))
    assert parse_graph6(s) == cycle_graph(4)


def test_graph6_rejects_bad_character():
    with pytest.raises(GraphError, match="offset 1"):
        parse_graph6("A>")


def test_graph6_rejects_nonzero_padding():
    # n=2 needs one bit; '@' = 0b000001 sets a padding bit
    with pytest.raises(GraphError, match="padding"):
        parse_graph6("A@")


def test_graph6_rejects_wrong_length():
    with pytest.raises(GraphError, match="length"):
        parse_graph6("D?")


@given(st.integers(0, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_graph6_roundtrip_random(n, data):
    p = data.draw(st.floats(0.0, 1.0))
    seed = data.draw(st.integers(0, 10**6))
    g = random_graph(n, p, seed)
    assert parse_graph6(encode_graph6(g)) == g


def test_graph6_long_form_roundtrip():
    g = random_graph(100, 0.07, 5)
    s = encode_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    assert s == nx.to_graph6_bytes(G, nodes=range(g.n), header=False).decode().strip()


@pytest.mark.parametrize("n", [63, 64, 300])
def test_graph6_long_form_sizes_roundtrip(n):
    # 63 is the first size with the "~" header; 63 and 64 differ in padding
    g = random_graph(n, 0.07, n)
    s = encode_graph6(g)
    assert s.startswith("~")
    h = parse_graph6(s)
    assert h == g
    assert h.labels == tuple(str(v) for v in range(n))


def test_graph6_long_form_rejects_nonzero_padding():
    # n = 65 has 2080 adjacency bits: the last character holds two padding bits
    s = encode_graph6(random_graph(65, 0.1, 2))
    assert s.startswith("~")
    with pytest.raises(GraphError, match=f"padding bits at offset {len(s) - 1}$"):
        parse_graph6(s[:-1] + chr((ord(s[-1]) - 63 | 1) + 63))


def test_graph6_matches_networkx():
    # the size header grows from one character to four between n = 62 and
    # 63; n = 0, 1, 2, 62, 63, 64 and 65 leave 0, 0, 5, 5, 3, 0 and 2
    # padding bits
    nx = pytest.importorskip("networkx")
    graphs = [random_graph(9, 0.4, seed) for seed in range(10)]
    graphs += [random_graph(n, 0.5, n) for n in (0, 1, 2, 62, 63, 64, 65)]
    graphs += [complete_graph(2), random_graph(100, 0.9, 100)]
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(G, nodes=range(g.n), header=False).decode().strip()
        assert encode_graph6(g) == theirs


def test_induced_subgraph_c5_consecutive_is_p4():
    sub, new_to_old = induced_subgraph(cycle_graph(5), [0, 1, 2, 3])
    assert sub == path_graph(4)
    assert new_to_old == (0, 1, 2, 3)


def test_induced_subgraph_gem_path_vertices():
    sub, _ = induced_subgraph(GEM.as_graph(), [0, 1, 2, 3])
    assert sub == path_graph(4)


def test_induced_subgraph_house_roof_keeps_triangle():
    house = HOUSE.as_graph()
    # the roof triangle of the complement-of-P5 labeling
    roof = {0, 2, 4}
    for drop in range(5):
        keep = [v for v in range(5) if v != drop]
        if not roof <= set(keep):
            continue
        sub, back = induced_subgraph(house, keep)
        a, b, c = (back.index(v) for v in roof)
        assert sub.has_edge(a, b) and sub.has_edge(b, c) and sub.has_edge(a, c)


def test_induced_subgraph_identity():
    g = random_graph(7, 0.5, 3)
    sub, back = induced_subgraph(g, range(7))
    assert sub == g and back == tuple(range(7))


def test_induced_subgraph_out_of_range():
    with pytest.raises(GraphError):
        induced_subgraph(path_graph(3), [0, 5])


def test_complement_involution():
    g = random_graph(8, 0.3, 11)
    assert complement(complement(g)) == g


def test_connected_components():
    g = Graph(5, [(0, 1), (3, 4)])
    assert connected_components(g) == [[0, 1], [2], [3, 4]]


def test_emit_dot_undirected_p3():
    out = emit_dot(path_graph(3))
    assert out.startswith("graph {")
    assert '"0" -- "1";' in out and '"1" -- "2";' in out
    assert "->" not in out


def test_emit_dot_oriented_p3():
    g = parse_edge_list("a b\nc b")
    o = Orientation(g, [(0, 1), (2, 1)])
    out = emit_dot(g, o)
    assert out.startswith("digraph {")
    assert '"a" -> "b";' in out and '"c" -> "b";' in out


def test_emit_dot_h1_source_orientation():
    h1 = make_Hk(1).as_graph()
    o = ptolemaic_opposition_orient(h1)
    out = emit_dot(h1, o)
    # vertex 0 is the root v1: out-degree 3, in-degree 0
    assert out.count('"0" ->') == 3
    assert out.count('-> "0";') == 0


def test_emit_dot_highlight_deterministic():
    g = path_graph(3)
    a = emit_dot(g, highlight=[1])
    assert 'style=filled' in a
    assert a == emit_dot(g, highlight=[1])


def test_orientation_validation():
    g = path_graph(3)
    with pytest.raises(GraphError):
        Orientation(g, [(0, 1)])  # missing edge direction
    with pytest.raises(GraphError):
        Orientation(g, [(0, 1), (1, 0), (1, 2)])  # both ways
    with pytest.raises(GraphError):
        Orientation(g, [(0, 1), (0, 2)])  # not an edge


def _arc_readers(g, o):
    return [(o.arcs(), [o.forward(u, v) for u, v in o.arcs()], check_orientation(g, o, c)) for c in GRAPH_CLASSES]


@pytest.mark.parametrize("kind, recognize", [(OPPOSITION, recognize_opposition), (COALITION, recognize_coalition)])
def test_arcs_returns_a_fresh_list(kind, recognize):
    # the arcs are sorted once at construction; each call hands out a
    # copy, so no caller can change what later readers see
    g = parse_graph6("F}SyO")  # a member of both classes with forced arcs
    full = recognize(g).certificate
    cg = ConstraintGraph(kind, g)
    partial = forced_orientation(cg, [0] * len(cg.class_bad))
    assert isinstance(full, Orientation) and partial.arcs()
    for o in (full, partial):
        first, second = o.arcs(), o.arcs()
        assert type(first) is list and first == second == sorted(first) and first is not second
        before = _arc_readers(g, o)
        for mutate in (
            lambda arcs: arcs.append((0, 0)),
            list.clear,
            lambda arcs: arcs.__setitem__(0, arcs[0][::-1]),
        ):
            arcs = o.arcs()
            mutate(arcs)
            assert _arc_readers(g, o) == before


def test_partial_orientation_and_topo():
    g = cycle_graph(3)
    p = PartialOrientation(g, [(0, 1), (1, 2), (2, 0)])
    order, cycle = topo_order_or_cycle(3, p.arcs())
    assert order is None
    assert set(cycle.vertices) == {0, 1, 2}
