import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from oppograph.graphs import Orientation, complete_graph, cycle_graph, parse_edge_list, path_graph
from oppograph.p4 import (
    COALITION,
    GENERALIZED_OPPOSITION,
    OPPOSITION,
    DisconnectedRootError,
    LayerTypeError,
    classify_layer_type,
    end_edges,
    induced_p4s,
    layer_decompose,
    verify_orientation,
)
from oppograph.patterns import make_Hk
from oppograph.verify import brute_force_p4s


def test_p4_itself():
    assert induced_p4s(path_graph(4)) == [(0, 1, 2, 3)]


def test_c5_has_five_p4s():
    got = induced_p4s(cycle_graph(5))
    assert len(got) == 5
    assert got == brute_force_p4s(cycle_graph(5))


def test_co_c6_labeled_end_edges_are_triangle_edges(co_c6_labeled):
    # labels 1,3,5,2,4,6 map to ids 0,1,2,3,4,5; the triangles carry all end-edges
    assert end_edges(co_c6_labeled) == [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    mids = {(min(b, c), max(b, c)) for _, b, c, _ in induced_p4s(co_c6_labeled)}
    assert mids == {(0, 4), (1, 5), (2, 3)}  # the matching edges 1-4, 3-6, 5-2


def test_end_edges_p4_and_c4():
    assert end_edges(path_graph(4)) == [(0, 1), (2, 3)]
    assert end_edges(cycle_graph(4)) == []


def test_end_edges_h1_all_edges(h1):
    assert len(induced_p4s(h1)) == 4
    assert end_edges(h1) == list(h1.edges)


def test_complete_graphs_have_no_p4s():
    assert induced_p4s(complete_graph(6)) == []


@given(st.integers(1, 7), st.data())
@settings(max_examples=80, deadline=None)
def test_induced_p4s_matches_bruteforce(n, data):
    g = random_graph(n, data.draw(st.floats(0, 1)), data.draw(st.integers(0, 10**6)))
    assert induced_p4s(g) == brute_force_p4s(g)


@pytest.mark.parametrize("n", range(8, 41, 4))
def test_p4_enumerators_match_bruteforce_sweep(n):
    # the mid-edge producer against the 4-subset scan, past the sizes the
    # hypothesis test draws
    for p in (0.1, 0.3, 0.6):
        g = random_graph(n, p, 1000 * n + int(10 * p))
        assert induced_p4s(g) == brute_force_p4s(g), (n, p)


def _orient(g, arcs):
    return Orientation(g, arcs)


def test_opposition_predicate_is_types_0_1():
    g = path_graph(4)
    good = _orient(g, [(0, 1), (1, 2), (3, 2)])
    bad = _orient(g, [(0, 1), (1, 2), (2, 3)])
    assert verify_orientation(good, OPPOSITION)
    assert not verify_orientation(bad, OPPOSITION)
    assert verify_orientation(bad, COALITION)
    assert not verify_orientation(good, COALITION)


def test_generalized_allows_cycles():
    g = cycle_graph(3)
    cyclic = _orient(g, [(0, 1), (1, 2), (2, 0)])
    assert verify_orientation(cyclic, GENERALIZED_OPPOSITION)
    assert not verify_orientation(cyclic, OPPOSITION)


def test_layer_decompose_p5():
    g = path_graph(5)
    layers = layer_decompose(g, 2)
    assert layers == (2, 1, 0, 1, 2)


def test_layer_decompose_h1(h1):
    # ids: 0=v1, 1=v1', 2=v1'', 3=v0, 4=v0', 5=v0''
    assert layer_decompose(h1, 0) == (0, 1, 2, 1, 1, 2)


def test_layer_decompose_c5_sizes():
    layers = layer_decompose(cycle_graph(5), 0)
    sizes = [layers.count(i) for i in range(3)]
    assert sizes == [1, 2, 2]


def test_layer_decompose_disconnected_rejects():
    g = parse_edge_list("a b\nc d")
    with pytest.raises(DisconnectedRootError):
        layer_decompose(g, 0)


def test_classify_layer_type_examples(h1):
    chain = path_graph(4)
    layers = layer_decompose(chain, 0)
    letter, order = classify_layer_type((0, 1, 2, 3), layers)
    assert letter == "A" and order == (0, 1, 2, 3)

    # H1 case from the layer example: P4 v0''-v0'-v1-v0 is type C with i=0
    layers = layer_decompose(h1, 0)
    letter, order = classify_layer_type((5, 4, 0, 3), layers)
    assert letter == "C"
    assert order in ((3, 0, 4, 5), (5, 4, 0, 3))
    assert layers[order[1]] == 0


def test_classify_layer_type_b_case():
    # path a-b-c-d with b,c adjacent to root below
    g = parse_edge_list("w b\nw c\nb c\na b\nc d")
    layers = layer_decompose(g, 0)
    p = induced_p4s(g)
    target = [q for q in p if set(q) == {1, 2, 3, 4}]
    assert len(target) == 1
    letter, order = classify_layer_type(target[0], layers)
    assert letter == "B"


def test_classify_layer_type_total_and_unique_on_ptolemaic():
    from oppograph.generate import random_ptolemaic
    from oppograph.graphs import connected_components

    instances = [make_Hk(1).as_graph(), make_Hk(2).as_graph(), make_Hk(2, "minus").as_graph()]
    instances += [random_ptolemaic(9, seed) for seed in range(6)]
    for g in instances:
        comps = connected_components(g)
        if len(comps) != 1:
            continue
        p4s = induced_p4s(g)
        for root in range(g.n):
            layers = layer_decompose(g, root)
            for p in p4s:
                letters = set()
                for order in (p, p[::-1]):
                    la, lb, lc, ld = (layers[v] for v in order)
                    if (lb, lc, ld) == (la + 1, la + 2, la + 3):
                        letters.add("A")
                    if lb == lc and la == ld == lb + 1:
                        letters.add("B")
                    if la == lc == lb + 1 and ld == lb + 2:
                        letters.add("C")
                    if la == lb and lc == lb + 1 and ld == lb + 2:
                        letters.add("D")
                    if la == lb == lc and ld == lc + 1:
                        letters.add("E")
                assert len(letters) == 1, (g.edges, root, p)
                assert classify_layer_type(p, layers)[0] in letters


def test_classify_layer_type_fails_off_ptolemaic():
    g = cycle_graph(6)
    layers = layer_decompose(g, 3)
    p = [q for q in induced_p4s(g) if set(q) == {4, 5, 0, 1}][0]
    with pytest.raises(LayerTypeError, match="from root 3$"):
        classify_layer_type(p, layers)
