"""Seeded corpora for the three benchmark workloads.

A corpus is a list of `Item`s: one graph6 string, one graph class and,
where the construction fixes it, the decision the recognizer must reach.
Builders take the imported `oppograph` package as an argument so that a
fresh import (set-up is timed several times) and the traced run both see
the module objects that are current at call time.

Sizes and flip counts follow fixed schedules.  The seed relabels the
vertices of every random structure; it also chooses the trees and the
extra components of the flip unions.  Keeping the schedule fixed keeps
per-seed totals comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MEMBER = "member"
NON_MEMBER = "non-member"


@dataclass(frozen=True)
class Item:
    family: str
    n: int
    graph6: str
    graph_class: str
    expected: str | None  # decision known by construction, or None


def _classes(og):
    return (og.OPPOSITION, og.GENERALIZED_OPPOSITION, og.COALITION)


def _relabel(og, g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return og.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _disjoint_union(og, parts):
    edges = []
    offset = 0
    for h in parts:
        edges.extend((u + offset, v + offset) for u, v in h.edges)
        offset += h.n
    return og.Graph(offset, edges)


def _complete_bipartite_hubs_last(og, k):
    """K_{2,k}: leaves 0..k-1, the two hubs k and k+1 (labelled last)."""
    return og.Graph(k + 2, [(i, k + h) for i in range(k) for h in (0, 1)])


# ---------------------------------------------------------------------------
# ptolemaic-members and flip-unions: all small enough to certify


PTOLEMAIC_GRAPHS = 24
PTOLEMAIC_SIZES = (20, 24, 28, 32)


def ptolemaic_members(og, seed):
    """Opposition members from the ptolemaic growth filter, three classes each.

    Only the opposition label is known by construction; the other two
    classes are decided without a label and checked by certificate.
    """
    rng = random.Random(seed)
    items = []
    for i in range(PTOLEMAIC_GRAPHS):
        n = PTOLEMAIC_SIZES[i % len(PTOLEMAIC_SIZES)]
        g = _relabel(og, og.generate.random_opposition_ptolemaic(n, i), rng)
        s = og.encode_graph6(g)
        for cls in _classes(og):
            expected = MEMBER if cls == og.OPPOSITION else None
            items.append(Item("ptolemaic", g.n, s, cls, expected))
    return items


# exponent e of the 2^e flip vectors, one entry per graph
FLIP_EXPONENTS = tuple(e for e in range(6, 12) for _ in range(4))
# base component: co-C6 fails opposition and coalition by exhausted flips,
# C5 fails coalition by exhausted flips, C6 is a coalition member
FLIP_BASES = ("co-C6", "C5", "co-C6", "C6")


def flip_unions(og, seed):
    """Disjoint unions of one base with small member components.

    Every extra component is a member of all three classes: a house or a
    gem in half of the graphs (one aux component each, and not
    distance-hereditary, so the union cannot take a DH fast path), then
    P5s (two aux components in five vertices, which keeps n and the O(n^4)
    certification small) and a P4 when one component is left over.  With
    c aux components the flip search spans 2^(c-1) vectors.
    """
    rng = random.Random(seed)
    co_c6 = og.complement(og.cycle_graph(6))
    bases = {"co-C6": co_c6, "C5": og.cycle_graph(5), "C6": og.cycle_graph(6)}
    extras = (og.HOUSE.as_graph(), og.GEM.as_graph())
    p4, p5 = og.path_graph(4), og.path_graph(5)
    labels = {
        "co-C6": {og.OPPOSITION: NON_MEMBER, og.GENERALIZED_OPPOSITION: MEMBER, og.COALITION: NON_MEMBER},
        "C5": {og.OPPOSITION: NON_MEMBER, og.GENERALIZED_OPPOSITION: NON_MEMBER, og.COALITION: NON_MEMBER},
        "C6": {og.OPPOSITION: NON_MEMBER, og.GENERALIZED_OPPOSITION: NON_MEMBER, og.COALITION: MEMBER},
    }
    items = []
    for i, e in enumerate(FLIP_EXPONENTS):
        base = FLIP_BASES[i % len(FLIP_BASES)]
        parts = [bases[base]]
        if (i + i // len(FLIP_BASES)) % 2:
            parts.append(rng.choice(extras))
        left = e + 1 - len(parts)
        parts.extend([p5] * (left // 2) + [p4] * (left % 2))
        rng.shuffle(parts)
        g = _relabel(og, _disjoint_union(og, parts), rng)
        s = og.encode_graph6(g)
        for cls in _classes(og):
            items.append(Item(f"flip-{base}", g.n, s, cls, labels[base][cls]))
    return items


# ---------------------------------------------------------------------------
# dh-scale


# n <= 48 always stays under the shortest-odd-walk search budget (variables
# x aux edges <= 4M), so every such decision runs that search; n >= 110 is
# always over it
DH_CLIFF_SIZES = (40, 44, 48)
DH_SCALE_SIZES = (110, 140, 180)
# under the walk budget at 200, over it at 1000
TREE_SIZES = (200, 1000)
K2_LEAVES = (30, 100, 200)
# hub-last K_{2,1100}: the opposition twin reduction recurses once per twin
K2_DEFECT_LEAVES = 1100


def dh_scale(og, seed):
    """Distance-hereditary graphs, trees and K_{2,k} twin chains.

    Random DH growth varies the P4 count five-fold at a fixed n, so DH
    structures come from fixed generator seeds and the run seed relabels
    them.  DH graphs take one class each, rotating through the three;
    trees and K_{2,k} take all three.  The K_{2,1100} opposition request
    probes the recursion depth of the twin reduction.
    """
    rng = random.Random(seed)
    classes = _classes(og)
    items = []
    for i, n in enumerate(DH_CLIFF_SIZES + DH_SCALE_SIZES):
        g = _relabel(og, og.generate.random_distance_hereditary(n, i), rng)
        items.append(Item("dh", g.n, og.encode_graph6(g), classes[i % 3], None))
    for n in TREE_SIZES:
        s = og.encode_graph6(og.generate.random_tree(n, rng.getrandbits(64)))
        # trees are coalition members: comparability graphs without an N
        for cls in classes:
            items.append(Item("tree", n, s, cls, MEMBER if cls == og.COALITION else None))
    for k in K2_LEAVES:
        s = og.encode_graph6(_complete_bipartite_hubs_last(og, k))
        for cls in classes:
            items.append(Item("k2", k + 2, s, cls, MEMBER))
    g = _complete_bipartite_hubs_last(og, K2_DEFECT_LEAVES)
    items.append(Item("k2", g.n, og.encode_graph6(g), og.OPPOSITION, MEMBER))
    return items


WORKLOADS = {
    "ptolemaic-members": ptolemaic_members,
    "flip-unions": flip_unions,
    "dh-scale": dh_scale,
}
