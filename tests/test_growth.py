"""A deterministic growth gate: the Python opcodes that one recognizer (or
decoder) call executes, counted with ``sys.settrace``, may grow by at most
``BOUND`` per doubling of a family's size parameter.

Counts do not depend on the host's speed or load, so the gate compares
ratios of counts, never times.  Absolute counts move between Python
versions, and work done in C (big-int width, set operations) is not
counted.  A family is registered here only once it holds its bound.
"""

import sys

import pytest

from conftest import clique_blowup, hubs_first_k2, triangle_strip
from oppograph.generate import random_tree
from oppograph.graphs import Graph, cycle_graph, encode_graph6, parse_graph6, path_graph
from oppograph.recognize import recognize_coalition, recognize_opposition

BOUND = 2.2


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


# (family, the counted call, its input's builder, sizes, each about double
# the one before)
FAMILIES = [
    ("P_n", recognize_opposition, path_graph, (250, 500, 1000)),
    ("C_n", recognize_opposition, cycle_graph, (101, 201, 401)),
    ("random_tree(n, 1)", recognize_coalition, lambda n: random_tree(n, 1), (250, 500, 1000)),
    ("hubs-first K_2,k", recognize_opposition, hubs_first_k2, (100, 200, 400)),
    ("F}SyO beside c P5s", recognize_opposition, _beside_p5s, (10, 20, 40)),
    # the twin quotient's pass, with weighted P4 counts
    ("K_4 blow-up of P_n", recognize_opposition, lambda n: clique_blowup(path_graph(n), 4), (50, 100, 200)),
    # about k/2 rounds of distance-hereditary pruning
    ("triangle_strip(k)", recognize_coalition, triangle_strip, (501, 1001, 2001)),
    # a body of about n^2/12 characters, of which n - 1 are not "?": only
    # those may cost opcodes
    ("graph6 of P_n", parse_graph6, lambda n: encode_graph6(path_graph(n)), (1000, 2000, 4000)),
]


@pytest.mark.parametrize("family, call, build, sizes", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_opcode_count_grows_at_most_bound_per_doubling(family, call, build, sizes):
    # built outside the count, one input per call: no call reuses another's
    # cached bitsets
    inputs = [build(size) for size in sizes]
    counts = [_opcodes(lambda x=x: call(x)) for x in inputs]
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
