"""Acceptance suite: named instances, oracle equivalence sweeps,
class-equivalence chains, constructor soundness, the complexity smoke
check, and certificate self-validation.  One pass/fail line per criterion."""

import itertools
import random
import time

import pytest

from conftest import CO_C6_EDGE_LIST, N_EDGE_LIST, aux_graph, disjoint_union, isomorphic
from oppograph.constraints import (
    ConstraintGraph,
    OddWalkCertificate,
    bipartition_or_odd_walk,
)
from oppograph.generate import random_distance_hereditary, random_opposition_ptolemaic
from oppograph.graphs import (
    Graph,
    complement,
    cycle_graph,
    encode_graph6,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    path_graph,
)
from oppograph.oracle import (
    oracle_coalition,
    oracle_generalized_opposition,
    oracle_opposition,
)
from oppograph.p4 import COALITION, GENERALIZED_OPPOSITION, OPPOSITION, end_edges, verify_orientation
from oppograph.patterns import (
    GRAPH_A,
    GRAPH_G1,
    GRAPH_G2,
    GRAPH_N,
    find_induced,
    find_Tk_free_violation,
    is_distance_hereditary,
    is_ptolemaic,
    make_Hk,
    make_Tk,
)
from oppograph.recognize import (
    PtolemaicOrientationError,
    ptolemaic_opposition_orient,
    recognize_coalition,
    recognize_coalition_distance_hereditary,
    recognize_generalized_opposition,
    recognize_opposition,
    transitive_orient,
)
from oppograph.verify import check_verdict


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _recognizers():
    return (
        (OPPOSITION, recognize_opposition, oracle_opposition),
        (GENERALIZED_OPPOSITION, recognize_generalized_opposition, oracle_generalized_opposition),
        (COALITION, recognize_coalition, oracle_coalition),
    )


@pytest.fixture(scope="module")
def atlas_stream():
    nx = pytest.importorskip("networkx")
    lines = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if 1 <= n <= 7 and nx.is_connected(G):
            lines.append(encode_graph6(Graph(n, list(G.edges()))))
    assert len(lines) == 996  # connected graphs on 1..7 vertices
    return "\n".join(lines)


@pytest.fixture(scope="module")
def dh_corpus():
    graphs = []
    for i in range(1000):
        n = 1 + (i % 12)
        graphs.append(random_distance_hereditary(n, seed=i))
    return graphs


def test_criterion_1_named_instances():
    t_start = time.perf_counter()
    problems = []

    # C5: not even a generalized opposition graph; odd walk in O(C5)
    t0 = time.perf_counter()
    c5 = cycle_graph(5)
    v = recognize_generalized_opposition(c5)
    if not (
        v.decision == "non-member"
        and isinstance(v.certificate, OddWalkCertificate)
        and check_verdict(c5, v)[0]
        and recognize_opposition(c5).decision == "non-member"
    ):
        problems.append("C5 block")
    if time.perf_counter() - t0 >= 1.0:
        problems.append("C5 over 1s")

    # complement of C6
    t0 = time.perf_counter()
    co_c6_labeled = parse_edge_list(CO_C6_EDGE_LIST)
    if not isomorphic(co_c6_labeled, complement(cycle_graph(6))):
        problems.append("co_c6_labeled not co-C6")
    cg = ConstraintGraph(OPPOSITION, co_c6_labeled)
    if cg.var_count != 12 or isinstance(bipartition_or_odd_walk(cg), OddWalkCertificate):
        problems.append("O(co-C6) shape")
    if not recognize_generalized_opposition(co_c6_labeled).is_member:
        problems.append("co-C6 generalized membership")
    if recognize_opposition(co_c6_labeled).decision != "non-member":
        problems.append("co-C6 opposition rejection")
    if time.perf_counter() - t0 >= 1.0:
        problems.append("co-C6 over 1s")

    # graph N: non-coalition, C(N) iso co-C6, minimal
    t0 = time.perf_counter()
    n_graph = parse_edge_list(N_EDGE_LIST)
    if recognize_coalition(n_graph).decision != "non-member":
        problems.append("N coalition rejection")
    cgn = ConstraintGraph(COALITION, n_graph)
    if not isomorphic(aux_graph(cgn), complement(cycle_graph(6))):
        problems.append("C(N) iso co-C6")
    for drop in range(6):
        sub, _ = induced_subgraph(n_graph, [x for x in range(6) if x != drop])
        if not (recognize_coalition(sub).is_member and oracle_coalition(sub).is_member):
            problems.append(f"N minus {drop} not a member")
    if time.perf_counter() - t0 >= 1.0:
        problems.append("N block over 1s")

    # T_1, A, G1, G2: minimal non-opposition, oracle-verified
    t0 = time.perf_counter()
    obstructions = [("T1", make_Tk(1).as_graph())] + [
        (p.name, p.as_graph()) for p in (GRAPH_A, GRAPH_G1, GRAPH_G2)
    ]
    for name, g in obstructions:
        if recognize_opposition(g).decision != "non-member":
            problems.append(f"{name} not rejected")
        if oracle_opposition(g).is_member:
            problems.append(f"{name} oracle says member")
        for drop in range(g.n):
            sub, _ = induced_subgraph(g, [x for x in range(g.n) if x != drop])
            if not (recognize_opposition(sub).is_member and oracle_opposition(sub).is_member):
                problems.append(f"{name} minus {drop} not a member")
    if time.perf_counter() - t0 >= 30.0:
        problems.append("obstruction block over 30s")

    # H1 and H2: exactly two end-edge assignments; constructor matches one
    t0 = time.perf_counter()
    for k in (1, 2):
        g = make_Hk(k).as_graph()
        res = oracle_opposition(g, enumerate_all=True)
        assignments = res.all_end_edge_assignments
        if not res.is_member or len(assignments) != 2:
            problems.append(f"H{k} assignment count")
            continue
        a0, a1 = assignments
        if sorted((h, t) for t, h in a0) != sorted(a1):
            problems.append(f"H{k} assignments not mutual reverses")
        root_edges = [a for a in assignments if all(t == 0 for t, h in a if 0 in (t, h))]
        if len(root_edges) != 1:
            problems.append(f"H{k} root-source count")
        o = ptolemaic_opposition_orient(g)
        restriction = tuple(
            (u, v) if o.forward(u, v) else (v, u) for u, v in end_edges(g)
        )
        if restriction not in assignments:
            problems.append(f"H{k} constructor does not reproduce an oracle assignment")
    if time.perf_counter() - t0 >= 10.0:
        problems.append("H block over 10s")

    _report(
        "criterion-1 named-instances",
        not problems,
        problems[0] if problems else f"all named instances agree, {time.perf_counter() - t_start:.1f}s",
    )


def test_criterion_2_oracle_equivalence_sweep(atlas_stream):
    t0 = time.perf_counter()
    disagreements = []
    count = 0
    for line in atlas_stream.splitlines():
        g = parse_graph6(line)
        count += 1
        for name, rec, orc in _recognizers():
            v = rec(g)
            o = orc(g)
            if v.decision == "undecided" or v.is_member != o.is_member:
                disagreements.append((line, name, v.decision, o.decision))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and count == 996 and elapsed < 600
    _report(
        "criterion-2 oracle-sweep",
        ok,
        f"{count} graphs x 3 classes, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )


def test_criterion_3_equivalence_sweeps(atlas_stream, dh_corpus):
    violations = []

    # (gem, house)-free graphs: bipartiteness alone must match the oracle
    from oppograph.patterns import GEM, HOUSE

    checked_31 = 0
    for line in atlas_stream.splitlines():
        g = parse_graph6(line)
        if find_induced(g, GEM) is not None or find_induced(g, HOUSE) is not None:
            continue
        checked_31 += 1
        cg = ConstraintGraph(OPPOSITION, g)
        bip = not isinstance(bipartition_or_odd_walk(cg), OddWalkCertificate)
        if bip != oracle_opposition(g).is_member:
            violations.append(("gem-house-free-equivalence", line))

    # distance-hereditary equivalence chains for both classes
    checked_dh = 0
    for i, g in enumerate(dh_corpus):
        checked_dh += 1
        cg = ConstraintGraph(OPPOSITION, g)
        obip = not isinstance(bipartition_or_odd_walk(cg), OddWalkCertificate)
        tkfree = (
            find_Tk_free_violation(g) is None
            and all(find_induced(g, p) is None for p in (GRAPH_A, GRAPH_G1, GRAPH_G2))
        )
        if obip != tkfree:
            violations.append(("dh-opposition-chain", i))
        if g.n <= 9 and obip != oracle_opposition(g).is_member:
            violations.append(("dh-opposition-oracle", i))
        cgc = ConstraintGraph(COALITION, g)
        cbip = not isinstance(bipartition_or_odd_walk(cgc), OddWalkCertificate)
        nfree = find_induced(g, GRAPH_N) is None
        trans = transitive_orient(g) is not None
        if not (cbip == nfree == trans):
            violations.append(("dh-coalition-chain", i))
        if g.n <= 9 and cbip != oracle_coalition(g).is_member:
            violations.append(("dh-coalition-oracle", i))

    # trees: opposition membership must coincide with T_k-freeness
    nx = pytest.importorskip("networkx")
    checked_trees = 0
    tree_iter = itertools.chain(
        [nx.empty_graph(1), nx.path_graph(2)],
        *(nx.nonisomorphic_trees(n) for n in range(3, 13)),
    )
    for T in tree_iter:
        g = Graph(T.number_of_nodes(), list(T.edges()))
        checked_trees += 1
        member = recognize_opposition(g).is_member
        if member != (find_Tk_free_violation(g) is None):
            violations.append(("cor-4.7", encode_graph6(g)))

    ok = not violations
    _report(
        "criterion-3 equivalence-sweeps",
        ok,
        f"gem-house-free on {checked_31} graphs, chains on {checked_dh} DH graphs, "
        f"{checked_trees} trees, {len(violations)} violations"
        + (f", first={violations[0]}" if violations else ""),
    )


def test_criterion_4_constructive_soundness():
    t0 = time.perf_counter()
    conflicts = 0
    failures = 0
    built = 0
    rng = random.Random(20240901)
    for i in range(500):
        n = rng.randint(4, 40)
        g = random_opposition_ptolemaic(n, seed=10_000 + i)
        assert is_ptolemaic(g)[0]
        try:
            o = ptolemaic_opposition_orient(g)
        except PtolemaicOrientationError:
            conflicts += 1
            continue
        built += 1
        if not verify_orientation(o, OPPOSITION):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = conflicts == 0 and failures == 0 and built == 500 and elapsed < 300
    _report(
        "criterion-4 constructor",
        ok,
        f"{built}/500 orientations verified, {conflicts} conflicts, {failures} bad, {elapsed:.1f}s",
    )


def test_criterion_5_complexity_smoke():
    def random_gnm(n, m, seed):
        rng = random.Random(seed)
        edges = set()
        while len(edges) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        return Graph(n, sorted(edges))

    times = {}
    for m in (250, 500, 1000, 2000):
        g = random_gnm(m // 4, m, seed=12345)
        t0 = time.perf_counter()
        cg = ConstraintGraph(OPPOSITION, g)
        bipartition_or_odd_walk(cg)
        times[m] = time.perf_counter() - t0
    overall = times[2000] / max(times[250], 1e-6)
    quadratic_with_slack = 2 * (2000 / 250) ** 2
    ok = times[2000] < 10.0 and overall <= quadratic_with_slack
    _report(
        "criterion-5 complexity",
        ok,
        f"t(m=2000)={times[2000]:.2f}s, growth x{overall:.1f} over 8x edges "
        f"(bound x{quadratic_with_slack:.0f})",
    )


def test_criterion_6_certificate_self_validation(atlas_stream, dh_corpus):
    instances = [
        cycle_graph(5),
        cycle_graph(6),
        complement(cycle_graph(6)),
        parse_edge_list(N_EDGE_LIST),
        make_Tk(1).as_graph(),
        GRAPH_A.as_graph(),
        GRAPH_G1.as_graph(),
        GRAPH_G2.as_graph(),
        make_Hk(1).as_graph(),
        make_Hk(2).as_graph(),
        make_Hk(2, "minus").as_graph(),
        # refuted by its co-C6 component alone
        disjoint_union([path_graph(5), complement(cycle_graph(6))]),
    ]
    lines = atlas_stream.splitlines()
    instances += [parse_graph6(line) for line in lines[:: max(1, len(lines) // 150)]]
    instances += dh_corpus[::40]

    kinds = set()
    total = 0
    bad = []
    for g in instances:
        verdicts = [
            recognize_opposition(g, want_witness=True),
            recognize_generalized_opposition(g),
            recognize_coalition(g),
        ]
        if is_distance_hereditary(g)[0]:
            verdicts.append(recognize_coalition_distance_hereditary(g))
        for v in verdicts:
            total += 1
            kinds.add(type(v.certificate).__name__)
            ok, msg = check_verdict(g, v)
            if not ok:
                bad.append((encode_graph6(g), v.graph_class, v.method, msg))
    expected_kinds = {"Orientation", "OddWalkCertificate", "FlipExhaustion", "InducedSubgraph", "PatternMatch"}
    ok = not bad and expected_kinds <= kinds
    _report(
        "criterion-6 certificates",
        ok,
        f"{total} verdicts re-verified independently, kinds={sorted(kinds - {'NoneType'})}, "
        f"{len(bad)} failures" + (f", first={bad[0]}" if bad else ""),
    )
