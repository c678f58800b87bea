"""Metamorphic relations of the opposition and coalition recognizers.

Both classes ignore vertex names, are hereditary (an orientation of G
restricts to one of G - v, whose induced P4s are P4s of G), and are closed
under disjoint union and under join: every P4 of a join lies inside one
side, as a P4 and its complement are both connected, so the two sides'
orientations with every join edge directed from the first side to the
second make one.  Hypothesis draws the inputs with ``derandomize``, so
every run checks the same cases.
"""

import time
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import disjoint_union, random_graph
from oppograph.generate import random_distance_hereditary, random_opposition_ptolemaic
from oppograph.graphs import Graph, induced_subgraph, parse_graph6
from oppograph.recognize import recognize_coalition, recognize_opposition
from oppograph.verify import check_verdict

RECOGNIZERS = (recognize_opposition, recognize_coalition)
# opposition and coalition members and non-members past the first flip vector
BLOCKS = tuple(parse_graph6(s) for s in ("F}SyO", "FNccw", "FUxqO", "FtGZO"))


@st.composite
def graphs(draw, max_n=18):
    source = draw(st.sampled_from(("random", "dh", "ptolemaic", "block")))
    if source == "block":
        return draw(st.sampled_from(BLOCKS))
    n, seed = draw(st.integers(5, max_n)), draw(st.integers(0, 10**6))
    if source == "dh":
        return random_distance_hereditary(n, seed)
    if source == "ptolemaic":
        return random_opposition_ptolemaic(n, seed)
    return random_graph(n, draw(st.sampled_from((0.2, 0.4, 0.6, 0.8))), seed)


def join(g: Graph, h: Graph) -> Graph:
    u = disjoint_union([g, h])
    return Graph(u.n, list(u.edges) + [(x, g.n + y) for x in range(g.n) for y in range(h.n)])


def test_metamorphic_relations():
    checks = Counter()
    violations = []

    def decide(recognize, g):
        v = recognize(g)
        assert v.decision != "undecided", (recognize.__name__, g.edges)
        return v

    def member(recognize, g):
        return decide(recognize, g).is_member

    def check(relation, recognize, holds, *graphs):
        checks[relation] += 1
        if not holds:
            violations.append((relation, recognize.__name__, [g.edges for g in graphs]))

    @settings(max_examples=450, deadline=None, derandomize=True, database=None)
    @given(graphs(), graphs(), st.data())
    def relations(g, h, data):
        perm = data.draw(st.permutations(range(g.n)))
        renamed = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        gone = data.draw(st.integers(0, g.n - 1))
        for recognize in RECOGNIZERS:
            in_g, in_h = member(recognize, g), member(recognize, h)
            v = decide(recognize, renamed)
            check("relabel", recognize, v.is_member == in_g and check_verdict(renamed, v)[0], g, renamed)
            if in_g:
                sub = induced_subgraph(g, [u for u in range(g.n) if u != gone])[0]
                check("delete", recognize, member(recognize, sub), g, sub)
            both = in_g and in_h
            check("union", recognize, member(recognize, disjoint_union([g, h])) == both, g, h)
            check("join", recognize, member(recognize, join(g, h)) == both, g, h)

    start = time.perf_counter()
    relations()
    elapsed = time.perf_counter() - start
    assert not violations, violations[:3]
    assert sum(checks.values()) >= 3000 and min(checks.values()) >= 400, checks
    assert elapsed < 10, (elapsed, checks)
