"""A deterministic growth gate: the Python opcodes that one recognizer call
executes, counted with ``sys.settrace``, may grow by at most ``BOUND`` per
doubling of a family's size parameter.

Counts do not depend on the host's speed or load, so the gate compares
ratios of counts, never times.  Absolute counts move between Python
versions, and work done in C (big-int width, set operations) is not
counted.  A family is registered here only once it holds its bound.
"""

import sys

import pytest

from conftest import clique_blowup, hubs_first_k2, triangle_strip
from oppograph.generate import random_tree
from oppograph.graphs import Graph, cycle_graph, parse_graph6, path_graph
from oppograph.p4 import COALITION, OPPOSITION
from oppograph.recognize import recognize_coalition, recognize_opposition

BOUND = 2.2

RECOGNIZERS = {OPPOSITION: recognize_opposition, COALITION: recognize_coalition}


def _opcodes(call) -> int:
    """The opcodes executed by call(), in every frame it enters."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        else:
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def _beside_p5s(c):
    """F}SyO, an opposition member whose flip search passes side 0, beside
    c copies of P5."""
    edges, off = [], 0
    for part in [parse_graph6("F}SyO")] + [path_graph(5)] * c:
        edges += [(u + off, v + off) for u, v in part.edges]
        off += part.n
    return Graph(off, edges)


# (family, class, graph builder, sizes, each about double the one before)
FAMILIES = [
    ("P_n", OPPOSITION, path_graph, (250, 500, 1000)),
    ("C_n", OPPOSITION, cycle_graph, (101, 201, 401)),
    ("random_tree(n, 1)", COALITION, lambda n: random_tree(n, 1), (250, 500, 1000)),
    ("hubs-first K_2,k", OPPOSITION, hubs_first_k2, (100, 200, 400)),
    ("F}SyO beside c P5s", OPPOSITION, _beside_p5s, (10, 20, 40)),
    # the twin quotient's pass, with weighted P4 counts
    ("K_4 blow-up of P_n", OPPOSITION, lambda n: clique_blowup(path_graph(n), 4), (50, 100, 200)),
    # about k/2 rounds of distance-hereditary pruning
    ("triangle_strip(k)", COALITION, triangle_strip, (501, 1001, 2001)),
]


@pytest.mark.parametrize("family, graph_class, build, sizes", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_opcode_count_grows_at_most_bound_per_doubling(family, graph_class, build, sizes):
    recognize = RECOGNIZERS[graph_class]
    # built outside the count, one graph per call: no call reuses another's
    # cached bitsets
    graphs = [build(size) for size in sizes]
    counts = [_opcodes(lambda g=g: recognize(g)) for g in graphs]
    ratios = [later / earlier for earlier, later in zip(counts, counts[1:])]
    assert all(r <= BOUND for r in ratios), (family, counts, ratios)


def test_the_counter_restores_the_previous_trace_function():
    def outer(frame, event, arg):
        return None

    before = sys.gettrace()
    sys.settrace(outer)
    try:
        assert _opcodes(lambda: path_graph(10)) > 0
        assert sys.gettrace() is outer
    finally:
        sys.settrace(before)
