"""Decision procedures with machine-checkable certificates.

Every recognizer returns a `verify.Verdict`.  Members carry an orientation
that is re-checked by `verify.check_orientation` before being returned;
rejections carry an odd closed walk in the auxiliary graph, an exhausted
flip search with one directed cycle per flip vector, or a forbidden-pattern
embedding.  Opposition and coalition share one pipeline, `_recognize`, run
on O(G) or C(G); the per-class table `_PIPELINES` holds all that differs.
`recognize_coalition_distance_hereditary` is the coalition pipeline with
its witness search, its N-rejections relabelled.  No recognizer calls
`transitive_orient`: it is the comparability test of the theorem that a
distance-hereditary coalition graph is N-free and a comparability graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ConstraintGraph, OddWalkCertificate, bipartition_or_odd_walk
from .graphs import (
    DirectedCycleCertificate,
    Graph,
    Orientation,
    bits,
    connected_components,
    induced_subgraph,
    kahn_pass,
    leftover_cycle,
    neighbour_bits,
    orient_along,
    topo_order_or_cycle,
)
from .p4 import (
    COALITION,
    GENERALIZED_OPPOSITION,
    OPPOSITION,
    P4,
    classify_layer_type,
    induced_p4s,
    layer_decompose,
    orientation_good_for,
)
from .patterns import (
    GRAPH_A,
    GRAPH_G1,
    GRAPH_G2,
    GRAPH_N,
    PatternMatch,
    _gem_house_free,
    _perfect_elimination_order,
    _prunes,
    find_induced,
    find_Tk_free_violation,
    has_hole,
    is_ptolemaic,
)
from .verify import (
    MEMBER, NON_MEMBER, UNDECIDED, FlipExhaustion, InducedSubgraph, Verdict, check_orientation, check_pattern_match,
)

DEFAULT_FLIP_CAP = 1 << 20


class CertificateError(RuntimeError):
    """A certificate failed its own re-verification: an internal bug."""


class PtolemaicOrientationError(RuntimeError):
    """Step-3 conflict or failed final verification in the layer
    construction; carries the offending P4(s)."""

    def __init__(self, message, p4s=()):
        super().__init__(message)
        self.p4s = tuple(p4s)


def _stats(cg: ConstraintGraph, flips_tried=None):
    return {
        "p4_count": cg.p4_count,
        "aux_vertices": cg.var_count,
        "aux_components": len(cg.class_bad) if cg.bipartite else None,
        "flips_tried": flips_tried,
    }


def _side0_arcs(cg: ConstraintGraph) -> list[tuple[int, int]]:
    """Side 0 in every aux component, one arc per end-edge: the first flip vector."""
    return [cg.vars[2 * k + s] for k, s in enumerate(cg.edge_side)]


def _checked_member(graph_class, method, orientation, stats) -> Verdict:
    """The member verdict once the orientation passes `verify.check_orientation`."""
    ok, msg = check_orientation(orientation.base, orientation, graph_class)
    if not ok:
        raise CertificateError(f"{method} produced an orientation failing the {graph_class} verifier: {msg}")
    return Verdict(graph_class, MEMBER, method, orientation, stats)


def _checked_pattern(g: Graph, match: PatternMatch) -> PatternMatch:
    ok, msg = check_pattern_match(g, match)
    if not ok:
        raise CertificateError(f"{match.pattern.name} {msg}")
    return match


@dataclass
class _FlipOutcome:
    """A member's orientation, or a non-member's certificate, or neither
    when a part hit the cap; ``tried`` is the ``flips_tried`` stat."""

    orientation: Orientation | None
    certificate: FlipExhaustion | InducedSubgraph | None
    tried: int


class _Part:
    """A connected component of G where side 0 is cyclic.

    ``vertices`` are its vertices in increasing order; local vertex i is
    ``vertices[i]``, as in ``induced_subgraph``.  ``aux`` lists the aux
    components inside it in increasing order, and ``edges`` each of its
    end-edges k as (position of its aux component in ``aux``,
    ``edge_side[k]``, the local arc of variable 2k).  The classes of
    O(G[S]) or C(G[S]) are those of the part in the same order with the
    same sides, so local bit vectors are the flip vectors of G[S].
    ``cycle`` is its side-0 cycle in local ids.
    """

    __slots__ = ("vertices", "aux", "edges", "cycle")

    def __init__(self, vertices: tuple[int, ...]):
        self.vertices = vertices
        self.aux: list[int] = []
        self.edges: list[tuple[int, int, int, int]] = []

    def arcs(self, flips: tuple[int, ...]) -> list[tuple[int, int]]:
        """The local arcs the bit vector ``flips`` forces: an end-edge
        keeps its arc where its side is its component's bit."""
        return [(x, y) if side == flips[j] else (y, x) for j, side, x, y in self.edges]

    def search(self, cap: int):
        """The search G[S] runs alone: local vectors by rank, bit 0 (the
        least aux component) held at 0 and bit j the bit j - 1 of the rank,
        for at most ``cap`` vectors.  Returns the min-id topological order
        of the first vector whose forced part of G[S] is acyclic (or None)
        and the (vector, cycle) entries before it, each cycle the one
        ``topo_order_or_cycle`` reports, all in local ids.  The rank-0
        entry is (side 0, ``cycle``), so passes start at rank 1."""
        entries = [((0,) * len(self.aux), self.cycle)]
        for rank in range(1, min(1 << (len(self.aux) - 1), cap)):
            bits = (0,) + tuple((rank >> j) & 1 for j in range(len(self.aux) - 1))
            order, cyc = topo_order_or_cycle(len(self.vertices), self.arcs(bits))
            if cyc is None:
                return order, entries
            entries.append((bits, cyc))
        return None, entries


def _parts(cg: ConstraintGraph, indeg: list[int]) -> list[_Part]:
    """The components of G holding a vertex that the side-0 Kahn pass left
    over (``indeg``), by least vertex, each given the ``leftover_cycle``
    of its own side-0 arcs.  Aux components are numbered by least
    end-edge, so each part meets its own in increasing order."""
    part_of: list[_Part | None] = [None] * cg.base.n
    local = [0] * cg.base.n
    parts = []
    for comp in connected_components(cg.base):
        if any(indeg[v] for v in comp):
            part = _Part(tuple(comp))
            for i, v in enumerate(comp):
                part_of[v], local[v] = part, i
            parts.append(part)
    pos: dict[int, int] = {}  # aux component -> its position in its part
    for (x, y), k, side in zip(cg.vars[::2], cg.edge_class, cg.edge_side):
        part = part_of[x]
        if part is None:
            continue
        if k not in pos:
            pos[k] = len(part.aux)
            part.aux.append(k)
        part.edges.append((pos[k], side, local[x], local[y]))
    for part in parts:
        part.cycle = leftover_cycle(part.arcs((0,) * len(part.aux)), [indeg[v] for v in part.vertices])
    return parts


def _flip_search(cg: ConstraintGraph, flip_cap: int | None) -> _FlipOutcome:
    """A flip vector whose forced orientation is acyclic, each component
    of G searched in rank order in its own reversal quotient.

    A flip vector holds one bit per aux component, and end-edge k takes
    its variable 2k where ``edge_side[k]`` equals its component's bit,
    else its variable 2k + 1.  The first vector, side 0 in every aux
    component, takes one Kahn pass over the whole graph.  Only the
    components of G holding a vertex it left over, the parts, search
    further: side 0 is acyclic in the others, and a min-id Kahn order
    restricted to one of them is its own.

    A P4 lies inside one component and a union of acyclic orientations is
    acyclic, so a vector is acyclic exactly when its restriction to every
    component is.  Each part runs the search G[S] runs alone, its least
    aux component pinned, and may try ``flip_cap`` vectors.
    ``flips_tried`` counts the forced orientations whose acyclicity was
    tested: the side-0 pass plus every Kahn pass a part ran.

    The first part whose search exhausts refutes G: when it holds every
    aux component the certificate is its whole-graph ``FlipExhaustion``,
    else an ``InducedSubgraph`` holding the exhaustion of G[S].  With no
    exhaustion, a part that hit the cap leaves the verdict undecided.  A
    member is oriented along the pass's order outside the parts and their
    min-id topological orders inside: per component, the arcs of a min-id
    topological completion, as ``orient_along`` reads only the relative
    order of adjacent vertices.
    """
    order, indeg = kahn_pass(cg.base.n, _side0_arcs(cg))
    if len(order) == cg.base.n:
        return _FlipOutcome(orient_along(cg.base, order), None, 1)
    cap = DEFAULT_FLIP_CAP if flip_cap is None else flip_cap
    parts = _parts(cg, indeg)
    in_part = set().union(*(part.vertices for part in parts))
    order = [v for v in order if v not in in_part]
    tried, capped = 1, False
    for part in parts:
        topo, entries = part.search(cap)
        tried += len(entries) - 1 + (topo is not None)  # rank 0 was the shared pass
        if topo is not None:
            order += [part.vertices[v] for v in topo]
        elif len(entries) < 1 << (len(part.aux) - 1):
            capped = True
        elif len(part.aux) == len(cg.class_bad):
            exhaustion = FlipExhaustion(tuple(
                (bits, DirectedCycleCertificate(tuple(part.vertices[v] for v in cyc.vertices)))
                for bits, cyc in entries
            ))
            return _FlipOutcome(None, exhaustion, tried)
        else:
            return _FlipOutcome(None, InducedSubgraph(part.vertices, FlipExhaustion(tuple(entries))), tried)
    if capped:
        return _FlipOutcome(None, None, tried)
    return _FlipOutcome(orient_along(cg.base, order), None, tried)


# ---------------------------------------------------------------------------
# pipeline stages shared by the recognizers


def _aux(g: Graph, kind: str):
    """The auxiliary graph O(G) or C(G), and an odd closed walk in it, or
    None when it is bipartite."""
    cg = ConstraintGraph(kind, g)
    return cg, bipartition_or_odd_walk(cg)


def _dh_side0_orientation(g: Graph) -> Orientation:
    """The flip search's first vector of O(G), side 0, which the
    distance-hereditary theorems make acyclic; ValueError when O(G) is not
    bipartite."""
    cg, walk = _aux(g, OPPOSITION)
    if walk is not None:
        raise ValueError("O(G) is not bipartite: not an opposition graph")
    o = _flip_search(cg, 1).orientation
    if o is None:
        raise CertificateError("a bipartite opposition aux graph gave a cyclic forced part")
    return o


# ---------------------------------------------------------------------------
# generalized opposition (bipartiteness alone decides)


def recognize_generalized_opposition(g: Graph) -> Verdict:
    """Bipartiteness of O(G) decides.  A member takes the side-0 arcs and,
    low to high, the edges that end no P4 (acyclic or not)."""
    cg, walk = _aux(g, OPPOSITION)
    if walk is not None:
        return Verdict(GENERALIZED_OPPOSITION, NON_MEMBER, "aux-odd-walk", walk, _stats(cg))
    ends = set(cg.vars[::2])
    o = Orientation(g, _side0_arcs(cg) + [e for e in g.edges if e not in ends])
    return _checked_member(GENERALIZED_OPPOSITION, "aux-bipartite", o, _stats(cg, 0))


# ---------------------------------------------------------------------------
# opposition and coalition


def _dh_twin_order(g: Graph) -> list[int] | None:
    """None where the twin reduction stops, at a chordal or twin-free
    level.  Otherwise one twin is removed, the rest ordered (along side 0
    where the reduction stops) and the twin re-inserted next to its
    partner, which preserves membership."""
    twin = None
    if _perfect_elimination_order(g) is None:
        pairs = ((u, v) for u in range(g.n) for v in range(u + 1, g.n))
        twin = next(((u, v) for u, v in pairs if g.adj[u] - {v} == g.adj[v] - {u}), None)
    if twin is None:
        return None
    keep, drop = twin
    sub, new_to_old = induced_subgraph(g, [v for v in range(g.n) if v != drop])
    topo = _dh_twin_order(sub)
    if topo is None:
        topo, _ = topo_order_or_cycle(sub.n, _dh_side0_orientation(sub).arcs())
    order = [new_to_old[v] for v in topo]
    order.insert(order.index(keep) + 1, drop)
    return order


def opposition_obstruction(g: Graph) -> PatternMatch | None:
    """A human-readable obstruction for distance-hereditary rejections:
    an induced A, G1, G2, or T_k, named by its pattern."""
    for pat in (GRAPH_A, GRAPH_G1, GRAPH_G2):
        match = find_induced(g, pat)
        if match is not None:
            return match
    hit = find_Tk_free_violation(g)
    return None if hit is None else hit[1]


# class -> (flip-search method, DH label, non-chordal DH member order (None
# keeps side 0), pattern-free label, its test beyond (gem, house)-freeness, witness)
_PIPELINES = {
    OPPOSITION: ("flip-search", "dh-ptolemaic", _dh_twin_order,
                 "gem-house-free", lambda g: True, opposition_obstruction),
    COALITION: ("flip-search-extension", "dh-transitive", lambda g: None,
                "gem-house-hole-free", lambda g: has_hole(g) is None, lambda g: find_induced(g, GRAPH_N)),
}


def _recognize(graph_class: str, g: Graph, flip_cap: int | None, want_witness: bool) -> Verdict:
    """The exact flip search over O(G) or C(G).  An odd walk rejects, with
    the class's witness under ``want_witness`` if G is distance-hereditary,
    where the paper's theorem says one exists.  Only a member at the first
    vector, side 0, runs route tests: the DH label if distance-hereditary,
    else the pattern-free label."""
    search, dh_label, dh_order, free_label, free_test, obstruction = _PIPELINES[graph_class]
    if flip_cap is not None and flip_cap < 1:
        raise ValueError("flip cap must be at least 1")
    cg, walk = _aux(g, graph_class)
    if walk is not None:
        witness = None
        if want_witness and _prunes(g)[0]:
            match = obstruction(g)
            if match is None:
                raise CertificateError(f"distance-hereditary {graph_class} non-member holds no obstruction")
            witness = _checked_pattern(g, match)
        return Verdict(graph_class, NON_MEMBER, "aux-odd-walk", walk, _stats(cg), witness)
    outcome = _flip_search(cg, flip_cap)
    method = search
    if outcome.orientation is not None and outcome.tried == 1:  # at side 0
        dh, chordal = _prunes(g)
        if dh:
            order = None if chordal else dh_order(g)
            o = outcome.orientation if order is None else orient_along(g, order)
            return _checked_member(graph_class, dh_label, o, _stats(cg))
        if _gem_house_free(g) and free_test(g):
            method = free_label
    # the exact flip search's member, exhaustion, or undecided at the cap
    stats = _stats(cg, outcome.tried)
    if outcome.orientation is not None:
        return _checked_member(graph_class, method, outcome.orientation, stats)
    if outcome.certificate is None:
        return Verdict(graph_class, UNDECIDED, method, None, stats)
    return Verdict(graph_class, NON_MEMBER, method, outcome.certificate, stats)


def recognize_opposition(g: Graph, flip_cap: int | None = None, want_witness: bool = False) -> Verdict:
    """`_recognize` over O(G): ``dh-ptolemaic`` members take side 0 where
    the twin reduction stops, removed twins put back next to their
    partners.  The witness is an induced A, G1, G2 or T_k."""
    return _recognize(OPPOSITION, g, flip_cap, want_witness)


def recognize_coalition(g: Graph, flip_cap: int | None = None, want_witness: bool = False) -> Verdict:
    """`_recognize` over C(G), marked as an extension: every member keeps
    the flip search's orientation, with no transitive orientation built.
    The witness is an induced N."""
    return _recognize(COALITION, g, flip_cap, want_witness)


# ---------------------------------------------------------------------------
# the ptolemaic layer constructor


def _find_p5(g: Graph, p4s: list[P4]) -> tuple[int, int, int, int, int] | None:
    for a, b, c, d in p4s:
        closed = g.adj[a] | g.adj[b] | g.adj[c] | {a, b, c}
        for w in sorted(g.adj[d] - closed):
            return (a, b, c, d, w)
        closed = g.adj[b] | g.adj[c] | g.adj[d] | {b, c, d}
        for w in sorted(g.adj[a] - closed):
            return (w, a, b, c, d)
    return None


def ptolemaic_opposition_orient(g: Graph) -> Orientation:
    """The constructive orientation for connected ptolemaic graphs that
    are T_k-free and (G1, G2)-free.

    P5-free graphs take the side-0 orientation of O(G) (the underlying
    result for that case is non-constructive).  Otherwise the layer
    construction runs from one root after another: the midpoint of an
    induced P5 first, then every vertex in id order.  The first root whose
    construction passes every check (no conflicting forced direction, an
    acyclic forced part, no bad P4 after completion) wins; if none does,
    the first root's PtolemaicOrientationError is raised.  Each try is
    polynomial, so the scan is too.
    """
    if g.n == 0:
        return Orientation(g, [])
    if len(connected_components(g)) != 1:
        raise ValueError("the layer constructor needs a connected graph")
    ok, wit = is_ptolemaic(g)
    if not ok:
        raise ValueError(f"not ptolemaic: contains {wit.pattern.name}")
    p4s = induced_p4s(g)
    p5 = _find_p5(g, p4s)
    if p5 is None:
        o = _dh_side0_orientation(g)
        if not check_orientation(g, o, OPPOSITION)[0]:
            raise PtolemaicOrientationError("side-0 completion failed verification")
        return o
    first_error = None
    for root in [p5[2]] + [v for v in range(g.n) if v != p5[2]]:
        try:
            return _layer_orient(g, p4s, root)
        except PtolemaicOrientationError as exc:
            if first_error is None:
                first_error = exc
    raise first_error


def _layer_orient(g: Graph, p4s: list[P4], root: int) -> Orientation:
    """The layer construction from one root.  Inter-layer edges alternate
    in blocks of two layers; intra-layer end-edges take the direction
    opposing the other end-edge of their P4.  One min-id Kahn pass over
    these arcs either reports their directed cycle or gives the order that
    every edge is then directed along.  Raises PtolemaicOrientationError
    when a check fails."""
    layers = layer_decompose(g, root)
    heads: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        lu, lv = layers[u], layers[v]
        if lu == lv:
            continue
        lo, hi = (u, v) if lu < lv else (v, u)
        heads[(u, v)] = hi if min(lu, lv) % 4 in (0, 1) else lo
    forced: dict[tuple[int, int], tuple[int, P4]] = {}
    for p in p4s:
        letter, (a, b, c, d) = classify_layer_type(p, layers)
        if letter not in ("D", "E"):
            continue
        e_cd = (c, d) if c < d else (d, c)
        cd_forward = heads[e_cd] == d
        e_ab = (a, b) if a < b else (b, a)
        head = a if cd_forward else b  # opposition: c->d forces b->a
        if e_ab in forced and forced[e_ab][0] != head:
            raise PtolemaicOrientationError(
                f"conflicting forced directions on edge {e_ab}",
                (forced[e_ab][1], p),
            )
        forced.setdefault(e_ab, (head, p))
    for e, (head, _) in forced.items():
        heads[e] = head
    arcs = [(u if h == v else v, h) for (u, v), h in heads.items()]
    order, cyc = topo_order_or_cycle(g.n, arcs)
    if cyc is not None:
        raise PtolemaicOrientationError(
            f"forced partial orientation is cyclic: {cyc.vertices}"
        )
    o = orient_along(g, order)
    bad = [p for p in p4s if not orientation_good_for(p, o, OPPOSITION)]
    if bad:
        raise PtolemaicOrientationError(
            f"constructed orientation leaves {len(bad)} bad P4(s)", bad[:2]
        )
    return o


# ---------------------------------------------------------------------------
# coalition


def transitive_orient(g: Graph) -> Orientation | None:
    """Edge-forcing closure (shared tail with non-adjacent heads, shared
    head with non-adjacent tails), one implication class at a time from
    its first edge in ``g.edges`` directed low to high, then a global
    transitivity check; None when either fails.

    Over bitsets ``out``/``inn`` of the heads/tails at each vertex, a
    popped arc a -> b forces a -> c for c in N(a) minus N[b] with one
    AND-NOT, a c in ``inn[a]`` being a contradiction; the shared head b
    is symmetric.  A class is closed under forcing, so it never reaches
    an earlier class's edge.  O(m) big-int operations, O(k) on K_{2,k}.
    """
    nbr = neighbour_bits(g)
    out = [0] * g.n
    inn = [0] * g.n
    for u, v in g.edges:
        if (out[u] | inn[u]) >> v & 1:
            continue  # in an earlier class
        out[u] |= 1 << v
        inn[v] |= 1 << u
        stack = [(u, v)]
        while stack:
            a, b = stack.pop()
            # x -> c at the shared tail x = a, c -> x at the shared head x = b
            for x, y, ahead, behind in ((a, b, out, inn), (b, a, inn, out)):
                forced = nbr[x] & ~nbr[y] & ~(1 << y)
                if forced & behind[x]:
                    return None
                new = forced & ~ahead[x]
                ahead[x] |= new
                for c in bits(new):
                    behind[c] |= 1 << x
                    stack.append((x, c) if ahead is out else (c, x))
    if any(out[b] & ~out[a] for b in range(g.n) for a in bits(inn[b])):
        return None
    return Orientation(g, [(t, h) for t in range(g.n) for h in bits(out[t])])


def recognize_coalition_distance_hereditary(g: Graph, flip_cap: int | None = None) -> Verdict:
    """`recognize_coalition` with its witness search: a distance-hereditary
    non-member is rejected by its induced N alone (membership there is
    N-freeness), labelled ``dh-n-witness``; every other verdict is
    `recognize_coalition`'s."""
    v = recognize_coalition(g, flip_cap, want_witness=True)
    if v.witness is None:
        return v
    return Verdict(COALITION, NON_MEMBER, "dh-n-witness", v.witness, v.stats)


# ---------------------------------------------------------------------------
# serialization


def _labels(g: Graph, vs) -> list[str]:
    return [g.label(v) for v in vs]


def certificate_payload(cert, g: Graph) -> dict:
    if cert is None:
        return {"kind": "none"}
    if isinstance(cert, Orientation):
        return {
            "kind": "orientation",
            "arcs": [[g.label(t), g.label(h)] for t, h in cert.arcs()],
        }
    if isinstance(cert, OddWalkCertificate):
        return {
            "kind": "odd-closed-walk",
            "walk": [[g.label(x), g.label(y)] for x, y in cert.walk],
        }
    if isinstance(cert, FlipExhaustion):
        return {
            "kind": "flip-exhaustion",
            "reversal_quotient": True,
            "entries": [
                {"flips": list(flips), "cycle": _labels(g, cyc.vertices)}
                for flips, cyc in cert.entries
            ],
        }
    if isinstance(cert, InducedSubgraph):
        # G[S] numbered as S, labelled as in G: the inner payload reads
        # only labels
        labels = _labels(g, cert.vertices)
        return {
            "kind": "induced-subgraph",
            "vertices": labels,
            "certificate": certificate_payload(cert.certificate, Graph(len(labels), labels=labels)),
        }
    if isinstance(cert, PatternMatch):
        return {
            "kind": "pattern-embedding",
            "pattern": cert.pattern.name,
            "map": {str(i): g.label(v) for i, v in enumerate(cert.mapping)},
        }
    raise TypeError(f"cannot serialize certificate of type {type(cert)!r}")


def verdict_payload(v: Verdict, g: Graph) -> dict:
    payload = {
        "schema": "oppograph.verdict/1",
        "class": v.graph_class,
        "decision": v.decision,
        "method": v.method,
        "certificate": certificate_payload(v.certificate, g),
        "stats": v.stats,
    }
    if v.witness is not None:
        payload["witness"] = certificate_payload(v.witness, g)
    return payload
