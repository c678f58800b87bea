"""The independent checkers reject tampered certificates, and certify
large verdicts without the 4-subset P4 scan."""

import random
import re
import tracemalloc
from copy import copy
from dataclasses import fields, is_dataclass, replace
from functools import partial
from itertools import combinations

import pytest

from conftest import clique_blowup, disjoint_union, hub_last_k2
from oppograph import verify
from oppograph.constraints import OddWalkCertificate
from oppograph.generate import random_distance_hereditary, random_opposition_ptolemaic, random_tree
from oppograph.graphs import (
    DirectedCycleCertificate,
    Graph,
    Orientation,
    complement,
    complete_graph,
    cycle_graph,
    orient_along,
    parse_graph6,
    path_graph,
    topo_order_or_cycle,
)
from oppograph.p4 import COALITION, GENERALIZED_OPPOSITION, GRAPH_CLASSES, OPPOSITION
from oppograph.patterns import GRAPH_A, GRAPH_N, HOUSE, Pattern, PatternMatch, make_Tk
from oppograph.recognize import (
    NON_MEMBER,
    UNDECIDED,
    MEMBER,
    FlipExhaustion,
    InducedSubgraph,
    Verdict,
    recognize_coalition,
    recognize_coalition_distance_hereditary,
    recognize_generalized_opposition,
    recognize_opposition,
)
from oppograph.verify import check_orientation, check_verdict

RECOGNIZERS = {
    OPPOSITION: recognize_opposition,
    GENERALIZED_OPPOSITION: recognize_generalized_opposition,
    COALITION: recognize_coalition,
}


def _rejected(g, v):
    ok, msg = check_verdict(g, v)
    assert not ok
    return msg


def _flip_exhaustion():
    # co-C6 is one aux component, P5 two more: a whole-graph exhaustion
    # lists four flip vectors, every entry holding the same co-C6 cycle
    co_c6 = complement(cycle_graph(6))
    g = disjoint_union([co_c6, path_graph(5)])
    ((_, cycle),) = recognize_opposition(co_c6).certificate.entries
    entries = tuple((flips, cycle) for flips in ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)))
    v = Verdict(OPPOSITION, NON_MEMBER, "flip-search", FlipExhaustion(entries))
    assert [flips for flips, _ in v.certificate.entries] == [
        (0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)
    ]
    assert check_verdict(g, v) == (True, "ok")
    return g, v


def _induced_subgraph(graph_class=COALITION):
    # co-C6 on 0..5 is no member of either class; on 6..11 C6 is a
    # coalition member and P6 an opposition member
    other = cycle_graph(6) if graph_class == COALITION else path_graph(6)
    g = disjoint_union([complement(cycle_graph(6)), other])
    v = RECOGNIZERS[graph_class](g)
    assert isinstance(v.certificate, InducedSubgraph)
    assert v.certificate.vertices == tuple(range(6))
    assert check_verdict(g, v) == (True, "ok")
    return g, v


# ---------------------------------------------------------------------------
# one mutation per certificate kind


@pytest.mark.parametrize("graph_class", sorted(RECOGNIZERS))
def test_reversed_arc_breaks_a_p4(graph_class):
    g = path_graph(5)
    v = RECOGNIZERS[graph_class](g)
    assert check_verdict(g, v) == (True, "ok")
    arcs = [(h, t) if {t, h} == {0, 1} else (t, h) for t, h in v.certificate.arcs()]
    msg = _rejected(g, replace(v, certificate=Orientation(g, arcs)))
    assert "violates" in msg


@pytest.mark.parametrize("graph_class", [OPPOSITION, COALITION])
def test_directed_cycle_rejected(graph_class):
    g = complete_graph(3)
    v = RECOGNIZERS[graph_class](g)
    cyclic = replace(v, certificate=Orientation(g, [(0, 1), (1, 2), (2, 0)]))
    assert "directed cycle" in _rejected(g, cyclic)


def test_dropped_flip_entry_rejected():
    g, v = _flip_exhaustion()
    entries = v.certificate.entries
    assert "expected 4" in _rejected(g, replace(v, certificate=FlipExhaustion(entries[1:])))


def test_duplicated_flip_entry_rejected():
    g, v = _flip_exhaustion()
    entries = v.certificate.entries
    forged = FlipExhaustion(entries[:3] + entries[:1])
    assert "duplicate" in _rejected(g, replace(v, certificate=forged))


def test_flip_value_outside_bits_rejected():
    # (0, 1, 2) and (0, 1, 1) select the same co-C6 arcs, so a vector with
    # a 2 in it used to stand in for the unlisted (0, 1, 1)
    g, v = _flip_exhaustion()
    entries = list(v.certificate.entries)
    assert entries[3][0] == (0, 1, 1)
    entries[3] = ((0, 1, 2), entries[3][1])
    msg = _rejected(g, replace(v, certificate=FlipExhaustion(tuple(entries))))
    assert "other than 0 and 1" in msg


def test_cycle_arc_not_selected_by_flips_rejected():
    g, v = _flip_exhaustion()
    flips, cycle = v.certificate.entries[0]
    reversed_cycle = DirectedCycleCertificate(tuple(reversed(cycle.vertices)))
    entries = ((flips, reversed_cycle),) + v.certificate.entries[1:]
    msg = _rejected(g, replace(v, certificate=FlipExhaustion(entries)))
    assert "not selected" in msg


def test_list_flip_vector_rejected():
    g, v = _flip_exhaustion()
    flips, cycle = v.certificate.entries[0]
    entries = ((list(flips), cycle),) + v.certificate.entries[1:]
    msg = _rejected(g, replace(v, certificate=FlipExhaustion(entries)))
    assert "not a tuple" in msg


def test_flip_exhaustion_refutes_no_generalized_opposition():
    # generalized opposition allows cycles: co-C6 is a member although
    # every opposition flip vector of it forces a directed cycle
    g = complement(cycle_graph(6))
    v = recognize_opposition(g)
    assert isinstance(v.certificate, FlipExhaustion)
    assert recognize_generalized_opposition(g).is_member
    msg = _rejected(g, replace(v, graph_class=GENERALIZED_OPPOSITION))
    assert "only opposition and coalition" in msg


def test_unknown_class_rejected():
    g = path_graph(4)
    v = recognize_coalition(g)
    assert check_verdict(g, v) == (True, "ok")
    assert "unknown graph class" in _rejected(g, replace(v, graph_class="bogus"))
    # check_verdict stops there, before check_orientation, the member
    # self-check, which rejects the class on its own
    assert check_orientation(g, v.certificate, "bogus") == (False, "unknown graph class 'bogus'")


def test_even_walk_rejected():
    g = cycle_graph(5)
    v = recognize_opposition(g)
    walk = v.certificate.walk
    assert check_verdict(g, v) == (True, "ok")
    # twice round the odd walk: closed, every hop adjacent, even length
    doubled = OddWalkCertificate(walk + walk[1:])
    assert "even length" in _rejected(g, replace(v, certificate=doubled))


# ---------------------------------------------------------------------------
# malformed certificate parts are rejected, not raised on


def test_plain_tuple_cycle_rejected():
    g = complement(cycle_graph(6))
    v = recognize_opposition(g)
    ((flips, cycle),) = v.certificate.entries
    forged = FlipExhaustion(((flips, cycle.vertices),))
    assert "not a directed cycle" in _rejected(g, replace(v, certificate=forged))


@pytest.mark.parametrize("entry", [(), ((0,),), ((0,), None, None)])
def test_malformed_flip_entry_rejected(entry):
    g = complement(cycle_graph(6))
    v = recognize_opposition(g)
    assert "pair" in _rejected(g, replace(v, certificate=FlipExhaustion((entry,))))


def test_cycle_outside_the_graph_rejected():
    g = complement(cycle_graph(6))
    v = recognize_opposition(g)
    ((flips, _),) = v.certificate.entries
    forged = FlipExhaustion(((flips, DirectedCycleCertificate((0, 2, 6))),))
    assert "vertex ids" in _rejected(g, replace(v, certificate=forged))


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda walk: tuple(step + (0,) for step in walk), "pairs of vertex ids"),
        (lambda walk: tuple(step[:1] for step in walk), "pairs of vertex ids"),
        (lambda walk: tuple((str(x), y) for x, y in walk), "pairs of vertex ids"),
        (lambda walk: tuple((x, [y]) for x, y in walk), "pairs of vertex ids"),
        (lambda walk: list(walk), "pairs of vertex ids"),
        # adj[-1] is the last vertex's neighbourhood, which holds 0
        (lambda walk: ((-1, 0),) + walk[1:-1] + ((-1, 0),), "not an edge"),
        (lambda walk: walk[:3], "too short"),
        (lambda walk: walk[:-1] + walk[1:2], "not closed"),
        # (4, 0) turned round is an edge variable that (2, 3) does not see
        (lambda walk: walk[:2] + ((0, 4),) + walk[3:], "hop 1 fails the auxiliary adjacency predicate"),
    ],
)
def test_malformed_walk_steps_rejected(mangle, message):
    g = cycle_graph(5)
    v = recognize_opposition(g)
    assert v.certificate.walk[2] == (4, 0)
    forged = OddWalkCertificate(mangle(v.certificate.walk))
    assert message in _rejected(g, replace(v, certificate=forged))


# ---------------------------------------------------------------------------
# induced-subgraph certificates


@pytest.mark.parametrize("graph_class", [OPPOSITION, COALITION])
def test_induced_subgraph_accepted(graph_class):
    g, v = _induced_subgraph(graph_class)
    assert isinstance(v.certificate.certificate, FlipExhaustion)
    # an odd walk of a component refutes the union too
    h = cycle_graph(5) if graph_class == OPPOSITION else GRAPH_N.as_graph()
    walk = RECOGNIZERS[graph_class](h).certificate
    assert isinstance(walk, OddWalkCertificate)
    g = disjoint_union([path_graph(4), h])
    wrapped = replace(v, certificate=InducedSubgraph(tuple(range(4, 4 + h.n)), walk))
    assert check_verdict(g, wrapped) == (True, "ok")


@pytest.mark.parametrize(
    "vertices", [(0, 1, 2, 3, 4, 4), (0, 1, 2, 3, 4, 12), (-1, 0, 1, 2, 3, 4), (1, 0, 2, 3, 4, 5), [0, 1, 2, 3, 4, 5]]
)
def test_bad_subgraph_vertices_rejected(vertices):
    g, v = _induced_subgraph()
    forged = replace(v.certificate, vertices=vertices)
    assert "subgraph vertices" in _rejected(g, replace(v, certificate=forged))


def test_certificate_of_another_component_rejected():
    # the co-C6 exhaustion does not refute the C6 component
    g, v = _induced_subgraph()
    forged = replace(v.certificate, vertices=tuple(range(6, 12)))
    assert "induced subgraph" in _rejected(g, replace(v, certificate=forged))


def test_nested_induced_subgraph_rejected():
    g, v = _induced_subgraph()
    nested = InducedSubgraph(tuple(range(12)), v.certificate)
    assert "only by a flip exhaustion or an odd walk" in _rejected(g, replace(v, certificate=nested))


def test_orientation_or_pattern_inside_rejected():
    g, v = _induced_subgraph()
    c6 = cycle_graph(6)
    member = recognize_coalition(c6).certificate
    n_match = PatternMatch(GRAPH_N, (0, 1, 2, 3, 4, 5))
    for inner, vertices in ((member, tuple(range(6, 12))), (n_match, tuple(range(6)))):
        forged = InducedSubgraph(vertices, inner)
        assert "only by a flip exhaustion or an odd walk" in _rejected(g, replace(v, certificate=forged))


def test_induced_subgraph_refutes_no_generalized_opposition():
    g, v = _induced_subgraph(OPPOSITION)
    assert recognize_generalized_opposition(g).is_member
    msg = _rejected(g, replace(v, graph_class=GENERALIZED_OPPOSITION))
    assert "only opposition and coalition" in msg


def test_member_with_induced_subgraph_rejected():
    g, v = _induced_subgraph()
    assert "without an orientation" in _rejected(g, replace(v, decision=MEMBER))


# ---------------------------------------------------------------------------
# pattern certificates


@pytest.mark.parametrize("graph_class", [OPPOSITION, GENERALIZED_OPPOSITION])
def test_pattern_certificate_rejected_for_opposition_classes(graph_class):
    # the house is an opposition graph; no recognizer of these two classes
    # refutes membership by a pattern
    g = HOUSE.as_graph()
    assert recognize_opposition(g).is_member
    forged = Verdict(graph_class, NON_MEMBER, "forged", PatternMatch(HOUSE, tuple(range(5))))
    _rejected(g, forged)


def test_forged_n_pattern_rejected():
    # a pattern named N with the edges of P4 embeds in P4, a coalition member
    g = path_graph(4)
    assert recognize_coalition(g).is_member
    fake_n = Pattern("N", 4, ((0, 1), (1, 2), (2, 3)))
    forged = Verdict(COALITION, NON_MEMBER, "forged", PatternMatch(fake_n, (0, 1, 2, 3)))
    _rejected(g, forged)


def test_forged_witness_rejected():
    # a "gem" carrying the edges of P4 embeds in C5; the witness must be
    # checked against the pattern its name stands for
    g = cycle_graph(5)
    v = recognize_opposition(g)
    assert check_verdict(g, v) == (True, "ok")
    p4_edges = ((0, 1), (1, 2), (2, 3))
    for name in ("gem", "A", "T1", "N"):
        forged = PatternMatch(Pattern(name, 4, p4_edges), (0, 1, 2, 3))
        assert "witness" in _rejected(g, replace(v, witness=forged)), name


@pytest.mark.parametrize(
    "graph_class, pattern",
    [(OPPOSITION, GRAPH_A), (OPPOSITION, make_Tk(1)), (COALITION, GRAPH_N)],
)
def test_witness_checked_against_its_named_pattern(graph_class, pattern):
    g = pattern.as_graph()
    v = RECOGNIZERS[graph_class](g, want_witness=True)
    assert v.witness is not None and v.witness.pattern.name == pattern.name
    assert check_verdict(g, v) == (True, "ok")
    # the same embedding under a name the class does not use
    other = COALITION if graph_class == OPPOSITION else OPPOSITION
    assert "witness" in _rejected(g, replace(v, graph_class=other, certificate=None, decision=UNDECIDED))


def test_witness_larger_than_the_graph_rejected():
    g = make_Tk(1).as_graph()
    v = recognize_opposition(g, want_witness=True)
    huge = PatternMatch(Pattern("T999999", g.n, v.witness.pattern.edges), v.witness.mapping)
    assert "witness" in _rejected(g, replace(v, witness=huge))


# ---------------------------------------------------------------------------
# malformed parts that once raised inside the checker


def test_flip_entries_that_are_no_tuple_rejected():
    g, v = _flip_exhaustion()
    assert "not a tuple" in _rejected(g, replace(v, certificate=FlipExhaustion(None)))


def test_list_inside_a_flip_vector_rejected():
    # two aux components, so a list in the second place passes the length
    # and leading-zero checks
    g = parse_graph6("GKi@yk")
    v = recognize_coalition(g)
    assert isinstance(v.certificate, FlipExhaustion) and check_verdict(g, v) == (True, "ok")
    first, (flips, cycle) = v.certificate.entries
    assert flips == (0, 1)
    forged = FlipExhaustion((first, ((0, [1]), cycle)))
    assert "other than 0 and 1" in _rejected(g, replace(v, certificate=forged))


@pytest.mark.parametrize("mapping", [None, ("0", 1, 2, 3, 4, 5), [0, 1, 2, 3, 4, 5]])
def test_malformed_pattern_mapping_rejected(mapping):
    g = GRAPH_N.as_graph()
    forged = PatternMatch(GRAPH_N, mapping)
    v = recognize_coalition_distance_hereditary(g)
    assert v.method == "dh-n-witness" and check_verdict(g, v) == (True, "ok")
    assert "vertex ids" in _rejected(g, replace(v, certificate=forged))
    v = recognize_coalition(g, want_witness=True)
    assert v.witness is not None and check_verdict(g, v) == (True, "ok")
    assert "witness: " in _rejected(g, replace(v, witness=forged))


@pytest.mark.parametrize("witness", ["N", (0, 1, 2, 3, 4, 5), GRAPH_N])
def test_witness_that_is_no_pattern_match_rejected(witness):
    g = GRAPH_N.as_graph()
    v = recognize_coalition(g, want_witness=True)
    assert "not a pattern embedding" in _rejected(g, replace(v, witness=witness))


@pytest.mark.parametrize("pattern", [None, "N", [GRAPH_N], Pattern(["N"], 6, GRAPH_N.edges)])
def test_pattern_that_is_no_named_pattern_rejected(pattern):
    # the N certificate and the N witness alike
    g = GRAPH_N.as_graph()
    forged = PatternMatch(pattern, (0, 1, 2, 3, 4, 5))
    v = recognize_coalition_distance_hereditary(g)
    assert "only N embeddings" in _rejected(g, replace(v, certificate=forged))
    v = recognize_coalition(g, want_witness=True)
    assert _rejected(g, replace(v, witness=forged)) == "witness: None is no coalition obstruction"


@pytest.mark.parametrize("pattern", [None, "T1", [make_Tk(1)], Pattern(["T1"], 8, make_Tk(1).edges)])
def test_opposition_witness_pattern_that_is_no_named_pattern_rejected(pattern):
    g = make_Tk(1).as_graph()
    v = recognize_opposition(g, want_witness=True)
    assert v.witness is not None and check_verdict(g, v) == (True, "ok")
    forged = replace(v, witness=PatternMatch(pattern, v.witness.mapping))
    assert _rejected(g, forged) == "witness: None is no opposition obstruction"


_JUNK = (None, "x", 3, 1.5, [], (), {}, ((0, 1),))


def _junk_copies(obj):
    """Copies of ``obj`` with one field replaced by a junk value, at any
    depth of its dataclass fields; an orientation's field is its graph."""
    if isinstance(obj, Orientation):
        names = ("base",)
    else:
        names = [f.name for f in fields(obj)] if is_dataclass(obj) else ()
    for name in names:
        for value in (*_JUNK, *_junk_copies(getattr(obj, name))):
            mutant = copy(obj)
            object.__setattr__(mutant, name, value)
            yield mutant


def test_no_junk_field_makes_the_checker_raise():
    recognizers = (
        partial(recognize_opposition, want_witness=True),
        recognize_generalized_opposition,
        partial(recognize_coalition, want_witness=True),
        recognize_coalition_distance_hereditary,
    )
    graphs = [GRAPH_N.as_graph(), complement(cycle_graph(6)), make_Tk(1).as_graph(),
              parse_graph6("F}SyO"), parse_graph6("FUxqO")]
    checked = 0
    for g in graphs:
        for recognize in recognizers:
            v = recognize(g)
            assert check_verdict(g, v)[0]
            for mutant in _junk_copies(v):
                ok, msg = check_verdict(g, mutant)
                assert isinstance(ok, bool) and isinstance(msg, str)
                checked += 1
    # six verdict fields each take every junk value, and inner fields more
    assert checked > 20 * 6 * len(_JUNK)


# ---------------------------------------------------------------------------
# one test per rejection no other test reaches, each changing one field of
# a real verdict


def test_orientation_of_another_graph_rejected():
    g = path_graph(5)
    v = recognize_opposition(g)
    other = recognize_opposition(path_graph(6)).certificate
    assert "different graph" in _rejected(g, replace(v, certificate=other))


@pytest.mark.parametrize(
    "mapping, message",
    [
        ((0, 1, 2, 3, 4, 6), "leaves the host"),
        ((0, 1, 2, 3, 5, 4), "pattern pair (1, 4) not induced correctly"),
    ],
)
def test_n_embedding_outside_the_host_or_not_induced_rejected(mapping, message):
    g = GRAPH_N.as_graph()
    v = recognize_coalition_distance_hereditary(g)
    assert v.certificate.mapping == (0, 1, 2, 3, 4, 5)
    forged = replace(v.certificate, mapping=mapping)
    assert message in _rejected(g, replace(v, certificate=forged))


def test_exhaustion_over_a_non_bipartite_aux_graph_rejected():
    # C(C5) is bipartite and every coalition flip vector of C5 is cyclic;
    # O(C5) is an odd cycle, so no opposition flip vector exists
    g = cycle_graph(5)
    v = recognize_coalition(g)
    assert isinstance(v.certificate, FlipExhaustion) and check_verdict(g, v) == (True, "ok")
    assert _rejected(g, replace(v, graph_class=OPPOSITION)) == "auxiliary graph is not even bipartite"


def test_exhaustion_of_a_subgraph_without_variables_rejected():
    # three vertices hold no P4
    g, v = _induced_subgraph()
    forged = replace(v.certificate, vertices=(0, 1, 2))
    assert _rejected(g, replace(v, certificate=forged)) == "induced subgraph: no variables, nothing to exhaust"


@pytest.mark.parametrize(
    "cycle, message",
    [
        ((0,), "degenerate cycle"),
        # 0 and 1 are not adjacent in co-C6
        ((0, 1), "cycle arc (0, 1) is not an end-edge variable"),
    ],
)
def test_cycle_that_is_no_cycle_of_variables_rejected(cycle, message):
    g, v = _flip_exhaustion()
    (flips, _), *rest = v.certificate.entries
    forged = FlipExhaustion(((flips, DirectedCycleCertificate(cycle)), *rest))
    assert message == _rejected(g, replace(v, certificate=forged))


def test_undecided_verdict_with_a_certificate_rejected():
    g, v = _flip_exhaustion()
    assert "carry no certificate" in _rejected(g, replace(v, decision=UNDECIDED))


def test_unknown_decision_rejected():
    g, v = _flip_exhaustion()
    assert _rejected(g, replace(v, decision="maybe")) == "unknown decision 'maybe'"


# ---------------------------------------------------------------------------
# the checker never runs the 4-subset scan


@pytest.fixture
def no_subset_scan(monkeypatch):
    def refuse(g):
        raise AssertionError("check_verdict ran the 4-subset P4 scan")

    monkeypatch.setattr(verify, "brute_force_p4s", refuse)


def _kinds():
    co_c6 = complement(cycle_graph(6))
    co_c6_thrice = disjoint_union([co_c6] * 3)
    f_twice = disjoint_union([parse_graph6("F}SyO")] * 2)
    k2 = hub_last_k2(200)
    tree = random_tree(1000, 1)
    return [
        *[(k2, RECOGNIZERS[c](k2)) for c in sorted(RECOGNIZERS)],
        (tree, recognize_coalition(tree)),
        (cycle_graph(5), recognize_opposition(cycle_graph(5))),
        (co_c6, recognize_opposition(co_c6)),
        (co_c6, recognize_generalized_opposition(co_c6)),
        (GRAPH_N.as_graph(), recognize_coalition_distance_hereditary(GRAPH_N.as_graph())),
        (co_c6_thrice, recognize_opposition(co_c6_thrice)),
        (f_twice, recognize_opposition(f_twice, flip_cap=1)),
    ]


def test_check_verdict_without_subset_scan(no_subset_scan):
    seen = set()
    for g, v in _kinds():
        ok, msg = check_verdict(g, v)
        assert ok, (g, v.graph_class, v.method, msg)
        seen.add((v.decision, type(v.certificate).__name__))
    assert seen == {
        ("member", "Orientation"),
        ("non-member", "OddWalkCertificate"),
        ("non-member", "FlipExhaustion"),
        ("non-member", "InducedSubgraph"),
        ("non-member", "PatternMatch"),
        ("undecided", "NoneType"),
    }


@pytest.mark.parametrize("graph_class", [OPPOSITION, COALITION])
def test_flip_exhaustion_check_holds_no_p4_list(graph_class):
    # the prism C3 x K2 with every vertex replaced by K_8 (n = 48, 24 576
    # P4s) is refuted by flip exhaustion alone; streaming its P4s into
    # the end-edge union-find keeps the check in O(n + m) memory, where
    # a list of them peaks near 3 MiB
    g = clique_blowup(parse_graph6("EtXW"), 8)
    v = RECOGNIZERS[graph_class](g)
    assert isinstance(v.certificate, FlipExhaustion)
    tracemalloc.start()
    try:
        assert check_verdict(g, v) == (True, "ok")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------------------
# the mid-edge orientation checker


def _reference_check(g, o, graph_class):
    """Acceptance by the definition over the 4-subset P4 scan, and the
    P4s that break the class condition."""
    opposed_wanted = graph_class != COALITION
    bad = [
        p for p in verify.brute_force_p4s(g)
        if (o.forward(p[0], p[1]) != o.forward(p[2], p[3])) != opposed_wanted
    ]
    acyclic = topo_order_or_cycle(g.n, o.arcs())[0] is not None
    return not bad and (acyclic or graph_class == GENERALIZED_OPPOSITION), bad


def _reverse_a_few(rng, arcs):
    for i in rng.sample(range(len(arcs)), min(len(arcs), rng.randint(0, 2))):
        arcs[i] = arcs[i][::-1]
    return arcs


def _check_against_reference(g, arcs, reasons):
    """The checker against the reference in every class; the number of
    classes that accept."""
    o = Orientation(g, arcs)
    accepted = 0
    for graph_class in GRAPH_CLASSES:
        want, bad = _reference_check(g, o, graph_class)
        ok, msg = check_orientation(g, o, graph_class)
        assert ok == want, (g.edges, arcs, graph_class, msg)
        if bad:
            # the P4 named is a real induced P4 that breaks the condition
            hit = re.fullmatch(rf"P4 \((\d+), (\d+), (\d+), (\d+)\) violates the {graph_class} condition", msg)
            assert hit is not None and tuple(map(int, hit.groups())) in bad, (msg, bad)
            reasons.add("P4")
        elif not ok:
            assert msg == "orientation contains a directed cycle"
            reasons.add("cycle")
        accepted += ok
    return accepted


def test_check_orientation_matches_subset_reference():
    rng = random.Random(12)
    reasons = set()
    for _ in range(2000):
        n = rng.randint(0, 9)
        density = rng.random()
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
        if rng.random() < 0.5:
            arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges]
        else:
            # acyclic, then a few arcs reversed
            arcs = _reverse_a_few(rng, orient_along(g, rng.sample(range(n), n)).arcs())
        _check_against_reference(g, arcs, reasons)
    assert reasons == {"P4", "cycle"}
    # ptolemaic and distance-hereditary graphs, where most mid-edges have
    # an empty side: each member certificate, then with a few arcs reversed
    members, accepted, reasons = set(), 0, set()
    for i in range(60):
        n = rng.randint(4, 14)
        grow = random_opposition_ptolemaic if i % 2 else random_distance_hereditary
        perm = rng.sample(range(n), n)
        g = Graph(n, [(perm[u], perm[v]) for u, v in grow(n, rng.randrange(1 << 30)).edges])
        for graph_class, recognize in RECOGNIZERS.items():
            v = recognize(g)
            if v.decision == MEMBER:
                members.add((grow, graph_class))
                arcs = v.certificate.arcs()
            else:
                arcs = orient_along(g, rng.sample(range(n), n)).arcs()
            accepted += _check_against_reference(g, _reverse_a_few(rng, arcs), reasons)
    assert len(members) == 6 and reasons == {"P4", "cycle"} and accepted > 0, (members, reasons, accepted)


def test_check_orientation_on_k2_2000():
    # hub-last K_{2,2000} has no P4; this order makes 0 -> 2000 -> 1 -> 2001
    # a path, so reversing the arc 0 -> 2001 closes a directed cycle
    k = 2000
    g = hub_last_k2(k)
    o = orient_along(g, [0, k, 1, k + 1, *range(2, k)])
    for graph_class in GRAPH_CLASSES:
        assert check_orientation(g, o, graph_class) == (True, "ok")
    cyclic = Orientation(g, [(h, t) if (t, h) == (0, k + 1) else (t, h) for t, h in o.arcs()])
    for graph_class in (OPPOSITION, COALITION):
        assert check_orientation(g, cyclic, graph_class) == (False, "orientation contains a directed cycle")
    assert check_orientation(g, cyclic, GENERALIZED_OPPOSITION) == (True, "ok")


@pytest.mark.parametrize("graph_class", [GENERALIZED_OPPOSITION, COALITION])
def test_k2_2000_members_certified(graph_class, no_subset_scan):
    # opposition on hub-last K_{2,k} for k >= 1100 still overflows the
    # twin recursion of the distance-hereditary route
    g = hub_last_k2(2000)
    v = RECOGNIZERS[graph_class](g)
    assert v.decision == MEMBER
    assert check_verdict(g, v) == (True, "ok")
