"""Brute-force ground truth for class membership on small graphs.

The oracles enumerate every linear order (for the acyclic classes) or
every end-edge direction assignment (for generalized opposition) and stay
deliberately free of pruning so they can be trusted as test oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph
from .p4 import COALITION, GENERALIZED_OPPOSITION, OPPOSITION, end_edges, induced_p4s

ORDER_CAP = 9  # n! enumeration
END_EDGE_CAP = 22  # 2^t enumeration


class OracleCapError(ValueError):
    """The instance exceeds the hard enumeration cap."""


@dataclass(frozen=True)
class OracleResult:
    graph_class: str
    decision: str  # member | non-member
    witness_order: tuple[int, ...] | None = None
    all_end_edge_assignments: tuple[tuple[tuple[int, int], ...], ...] | None = None

    @property
    def is_member(self) -> bool:
        return self.decision == "member"


def _end_edge_arcs(order_pos, ends) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) if order_pos[u] < order_pos[v] else (v, u) for u, v in ends)


def _scan_orders(g: Graph, graph_class: str, opposed: bool, enumerate_all: bool) -> OracleResult:
    if g.n > ORDER_CAP:
        raise OracleCapError(f"oracle order scan capped at n <= {ORDER_CAP}, got {g.n}")
    p4s = induced_p4s(g)
    ends = end_edges(g, p4s)
    # opposition asks a<b iff d<c, coalition a<b iff c<d
    cons = [(a, b, d, c) if opposed else (a, b, c, d) for a, b, c, d in p4s]
    n = g.n
    pos = [0] * n
    witness = None
    assignments: set[tuple[tuple[int, int], ...]] = set()
    for perm in itertools.permutations(range(n)):
        for i, v in enumerate(perm):
            pos[v] = i
        for a, b, x, y in cons:
            if (pos[a] < pos[b]) != (pos[x] < pos[y]):
                break
        else:
            if witness is None:
                witness = perm
            if not enumerate_all:
                break
            assignments.add(_end_edge_arcs(pos, ends))
    if witness is None:
        return OracleResult(graph_class, "non-member")
    return OracleResult(
        graph_class,
        "member",
        witness_order=witness,
        all_end_edge_assignments=tuple(sorted(assignments)) if enumerate_all else None,
    )


def oracle_opposition(g: Graph, enumerate_all: bool = False) -> OracleResult:
    """Try every vertex permutation as a linear order; member iff some
    order makes every induced P4 a-b-c-d satisfy a<b iff d<c."""
    return _scan_orders(g, OPPOSITION, opposed=True, enumerate_all=enumerate_all)


def oracle_coalition(g: Graph, enumerate_all: bool = False) -> OracleResult:
    """Permutation scan with the coalition predicate (a<b iff c<d)."""
    return _scan_orders(g, COALITION, opposed=False, enumerate_all=enumerate_all)


def oracle_generalized_opposition(g: Graph) -> OracleResult:
    """Enumerate all end-edge direction assignments; acyclicity is not
    required, and non-end-edges are irrelevant by definition."""
    p4s = induced_p4s(g)
    ends = end_edges(g, p4s)
    t = len(ends)
    if t > END_EDGE_CAP:
        raise OracleCapError(f"oracle assignment scan capped at {END_EDGE_CAP} end-edges, got {t}")
    eidx = {e: i for i, e in enumerate(ends)}
    # constraint per P4: the "a->b" bit differs from the "c->d" bit; bit 0
    # means low->high on the edge, so the two edge bits differ exactly when
    # both edges are read the same way
    cons = []
    for a, b, c, d in p4s:
        ab = (a, b) if a < b else (b, a)
        cd = (c, d) if c < d else (d, c)
        cons.append((eidx[ab], eidx[cd], int((a < b) == (c < d))))
    for mask in range(1 << t):
        for i, j, req in cons:
            if ((mask >> i) ^ (mask >> j)) & 1 != req:
                break
        else:
            return OracleResult(GENERALIZED_OPPOSITION, "member")
    return OracleResult(GENERALIZED_OPPOSITION, "non-member")
