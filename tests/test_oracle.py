import pytest

from conftest import random_graph
from oppograph.graphs import Graph, cycle_graph, path_graph
from oppograph.oracle import (
    OracleCapError,
    oracle_coalition,
    oracle_generalized_opposition,
    oracle_opposition,
)
from oppograph.p4 import induced_p4s
from oppograph.patterns import GEM, GRAPH_N


def test_p4_is_member():
    assert oracle_opposition(path_graph(4)).is_member


def test_co_c6_no_valid_order(co_c6):
    res = oracle_opposition(co_c6, enumerate_all=True)
    assert res.decision == "non-member"
    assert res.all_end_edge_assignments is None


def test_h1_exactly_two_assignments(h1):
    res = oracle_opposition(h1, enumerate_all=True)
    assert res.is_member
    assignments = res.all_end_edge_assignments
    assert len(assignments) == 2
    a0, a1 = assignments
    assert sorted((h, t) for t, h in a0) == sorted(a1)
    # v1 (id 0) is a source in exactly one of them
    sources = [a for a in assignments if all(t == 0 for t, h in a if 0 in (t, h))]
    assert len(sources) == 1


def test_witness_order_satisfies_predicate(h1):
    res = oracle_opposition(h1)
    pos = {v: i for i, v in enumerate(res.witness_order)}
    for a, b, c, d in induced_p4s(h1):
        assert (pos[a] < pos[b]) == (pos[d] < pos[c])


def test_oracle_coalition_examples(co_c6):
    assert not oracle_coalition(GRAPH_N.as_graph()).is_member
    assert oracle_coalition(cycle_graph(6)).is_member
    # regression constant, frozen after the first 120-order scan
    assert oracle_coalition(GEM.as_graph()).is_member


def test_oracle_generalized_examples(co_c6):
    assert not oracle_generalized_opposition(cycle_graph(5)).is_member
    assert oracle_generalized_opposition(co_c6).is_member
    assert oracle_generalized_opposition(cycle_graph(4)).is_member  # vacuous


def test_opposition_member_implies_generalized():
    for seed in range(30):
        g = random_graph(6, 0.5, seed + 17)
        if oracle_opposition(g).is_member:
            assert oracle_generalized_opposition(g).is_member


def test_caps_are_hard_errors():
    with pytest.raises(OracleCapError):
        oracle_opposition(Graph(10))
    with pytest.raises(OracleCapError):
        oracle_coalition(Graph(10))
    # a long path has (n-3) P4s and all edges end up as end-edges
    with pytest.raises(OracleCapError):
        oracle_generalized_opposition(path_graph(30))


def test_twin_addition_never_changes_verdicts():
    for seed in range(10):
        base = random_graph(5, 0.5, seed + 51)
        for anchor in range(base.n):
            for kind in ("true", "false"):
                nbrs = set(base.adj[anchor]) | ({anchor} if kind == "true" else set())
                g = Graph(base.n + 1, list(base.edges) + [(u, base.n) for u in sorted(nbrs)])
                assert oracle_opposition(g).is_member == oracle_opposition(base).is_member
                assert oracle_coalition(g).is_member == oracle_coalition(base).is_member
                assert (
                    oracle_generalized_opposition(g).is_member
                    == oracle_generalized_opposition(base).is_member
                )
