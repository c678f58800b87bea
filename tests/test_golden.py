"""Pinned verdict payloads.

Each case runs one recognizer on a fixed graph and compares the sha256 of
its JSON payload with a recorded digest, so a refactor of the recognition
pipeline cannot change a decision, a method, a certificate or a stats
field unnoticed.  The corpus reaches every method string, both witness
searches, `undecided` for opposition and coalition, and the graphs that
`random_opposition_ptolemaic` returns; the arcs of
`ptolemaic_opposition_orient` are pinned the same way.  After an
intended change of output, print the new digests with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json

import pytest

from conftest import CO_C6_EDGE_LIST, disjoint_union, shuffled_union
from oppograph.generate import random_distance_hereditary, random_opposition_ptolemaic, random_tree
from oppograph.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    path_graph,
)
from oppograph.patterns import GEM, GRAPH_A, GRAPH_G1, GRAPH_G2, GRAPH_N, HOUSE, make_Hk, make_Tk
from oppograph.recognize import (
    PtolemaicOrientationError,
    certificate_payload,
    ptolemaic_opposition_orient,
    recognize_coalition,
    recognize_coalition_distance_hereditary,
    recognize_generalized_opposition,
    recognize_opposition,
    verdict_payload,
)


def _graphs():
    co_c6 = parse_edge_list(CO_C6_EDGE_LIST)
    house, gem = HOUSE.as_graph(), GEM.as_graph()
    return {
        "c5": cycle_graph(5),
        "c6": cycle_graph(6),
        "p7": path_graph(7),
        "co-c6": co_c6,
        "co-c6x3": disjoint_union([complement(cycle_graph(6))] * 3),
        "co-c8": complement(cycle_graph(8)),
        "h2": make_Hk(2).as_graph(),
        "t1": make_Tk(1).as_graph(),
        "a": GRAPH_A.as_graph(),
        "g1": GRAPH_G1.as_graph(),
        "n": GRAPH_N.as_graph(),
        "c4-pendant": parse_edge_list("a b\nb c\nc d\nd a\na e"),
        "tree": random_tree(9, 3),
        "dh-twins": random_distance_hereditary(16, 2),
        "dh-non-member": random_distance_hereditary(24, 5),
        "p5+h1": disjoint_union([path_graph(5), make_Hk(1).as_graph()]),
        # small random graphs, one per route they reach
        "gem-house-hole-free": parse_graph6("Er_g"),
        "flip-member": parse_graph6("DNk"),
        "odd-walk": parse_graph6("DqK"),
        "opp-flip-non-member": parse_graph6("EYnO"),
        "opp-two-components": parse_graph6("FUxqO"),
        "coal-two-components": parse_graph6("EfWo"),
        # the flip search checks components one at a time; a union that
        # is no member is refuted by one component
        "union-c5": shuffled_union([cycle_graph(5), co_c6, path_graph(5), house], 5),
        "union-co-c6": shuffled_union([co_c6, path_graph(5), gem, complement(cycle_graph(6))], 6),
        # the exhausting component does not hold aux component 0; it runs
        # the search it runs alone, after F}SyO's one pass past side 0
        "union-top-pinned": shuffled_union([parse_graph6("F}SyO"), parse_graph6("FUxqO")], 1),
        # members past side 0 in the component without aux component 0 too
        "f-x2": disjoint_union([parse_graph6("F}SyO")] * 2),
        "fnccw-x2": disjoint_union([parse_graph6("FNccw")] * 2),
        # at cap 1 FUxqO stops at its cyclic side 0: flips_tried counts the
        # one side-0 pass, and nothing for the acyclic P4 and P5
        "fuxqo+p4+p5": shuffled_union([parse_graph6("FUxqO"), path_graph(4), path_graph(5)], 2),
    }


# (case name, graph name, recognizer, keyword arguments)
_CASES = [
    ("gen/c5", "c5", recognize_generalized_opposition, {}),
    ("gen/co-c6", "co-c6", recognize_generalized_opposition, {}),
    ("gen/co-c8", "co-c8", recognize_generalized_opposition, {}),
    ("opp/odd-walk", "odd-walk", recognize_opposition, {}),
    ("opp/t1-witness", "t1", recognize_opposition, {"want_witness": True}),
    ("opp/h2", "h2", recognize_opposition, {}),
    ("opp/c4-pendant", "c4-pendant", recognize_opposition, {}),
    ("opp/dh-twins", "dh-twins", recognize_opposition, {}),
    ("opp/tree", "tree", recognize_opposition, {}),
    ("opp/p5+h1", "p5+h1", recognize_opposition, {}),
    ("opp/dh-non-member-witness", "dh-non-member", recognize_opposition, {"want_witness": True}),
    ("opp/gem-house-free", "gem-house-hole-free", recognize_opposition, {}),
    ("opp/flip-member", "flip-member", recognize_opposition, {}),
    ("opp/co-c6", "co-c6", recognize_opposition, {}),
    ("opp/flip-non-member", "opp-flip-non-member", recognize_opposition, {}),
    ("opp/co-c6x3", "co-c6x3", recognize_opposition, {}),
    ("opp/co-c6x3-cap2", "co-c6x3", recognize_opposition, {"flip_cap": 2}),
    ("opp/undecided-cap1", "opp-two-components", recognize_opposition, {"flip_cap": 1}),
    ("opp/two-components", "opp-two-components", recognize_opposition, {}),
    ("opp/c5", "c5", recognize_opposition, {}),
    ("opp/t1", "t1", recognize_opposition, {}),
    ("opp/a-witness", "a", recognize_opposition, {"want_witness": True}),
    ("opp/g1-witness", "g1", recognize_opposition, {"want_witness": True}),
    ("coal/n", "n", recognize_coalition, {}),
    ("coal/n-witness", "n", recognize_coalition, {"want_witness": True}),
    ("coal/tree", "tree", recognize_coalition, {}),
    ("coal/h2", "h2", recognize_coalition, {}),
    ("coal/dh-twins", "dh-twins", recognize_coalition, {}),
    ("coal/p5+h1", "p5+h1", recognize_coalition, {}),
    ("coal/dh-non-member-witness", "dh-non-member", recognize_coalition, {"want_witness": True}),
    ("coal/gem-house-hole-free", "gem-house-hole-free", recognize_coalition, {}),
    ("coal/c6", "c6", recognize_coalition, {}),
    ("coal/flip-non-member", "odd-walk", recognize_coalition, {}),
    ("coal/co-c6", "co-c6", recognize_coalition, {}),
    ("coal/undecided-cap1", "coal-two-components", recognize_coalition, {"flip_cap": 1}),
    ("coal/two-components", "coal-two-components", recognize_coalition, {}),
    ("coal-dh/n", "n", recognize_coalition_distance_hereditary, {}),
    ("opp/union-c5", "union-c5", recognize_opposition, {}),
    ("coal/union-c5", "union-c5", recognize_coalition, {}),
    ("coal/union-c5-cap5", "union-c5", recognize_coalition, {"flip_cap": 5}),
    ("opp/union-co-c6", "union-co-c6", recognize_opposition, {}),
    ("opp/union-co-c6-cap5", "union-co-c6", recognize_opposition, {"flip_cap": 5}),
    ("coal/union-co-c6", "union-co-c6", recognize_coalition, {}),
    ("coal/union-co-c6-cap5", "union-co-c6", recognize_coalition, {"flip_cap": 5}),
    ("opp/union-top-pinned", "union-top-pinned", recognize_opposition, {}),
    ("opp/f-x2-cap1", "f-x2", recognize_opposition, {"flip_cap": 1}),
    ("opp/f-x2", "f-x2", recognize_opposition, {}),
    ("coal/fnccw-x2", "fnccw-x2", recognize_coalition, {}),
    ("opp/fuxqo+p4+p5-cap1", "fuxqo+p4+p5", recognize_opposition, {"flip_cap": 1}),
]

# (n, seed) pairs whose generated graph6 strings are pinned
_GENERATOR_PAIRS = [(1, 0), (12, 1), (20, 7), (31, 10_032), (40, 3)]


def _payload_digest(case):
    _, graph_name, recognize, kwargs = case
    g = _graphs()[graph_name]
    payload = verdict_payload(recognize(g, **kwargs), g)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _orient_graphs():
    """Inputs of the ptolemaic constructor: P5 graphs take the layer
    construction, P5-free ones the side-0 orientation of O(G).  K_{2,5} has
    an induced C4, so it pins the rejection; with its hubs joined it is
    ptolemaic.  T_1, T_2, G1 and G2 are ptolemaic but no opposition graphs,
    so they pin the layer constructor's failures."""
    k25 = [(a, 2 + j) for a in (0, 1) for j in range(5)]
    return {
        "p7": path_graph(7),
        "h2": make_Hk(2).as_graph(),
        "star": Graph(5, [(0, i) for i in range(1, 5)]),
        "k4": complete_graph(4),
        "k2,5": Graph(7, k25),
        "k2,5-hubs-joined": Graph(7, [(0, 1)] + k25),
        "p4": path_graph(4),
        "bull": Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)]),
        "t1": make_Tk(1).as_graph(),
        "t2": make_Tk(2).as_graph(),
        "g1": GRAPH_G1.as_graph(),
        "g2": GRAPH_G2.as_graph(),
    }


def _orient_digest(name):
    g = _orient_graphs()[name]
    try:
        out = json.dumps(certificate_payload(ptolemaic_opposition_orient(g), g), sort_keys=True)
    except (ValueError, PtolemaicOrientationError) as exc:
        out = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(out.encode()).hexdigest()


def _generator_digest():
    lines = "\n".join(encode_graph6(random_opposition_ptolemaic(n, s)) for n, s in _GENERATOR_PAIRS)
    return hashlib.sha256(lines.encode()).hexdigest()


GOLDEN = {
    "gen/c5": "f0d17aea573a20dff2bb34ae1b00d3f53debdc7b85c734dd752d3651b76441b3",
    "gen/co-c6": "c5579e80c295a0b12b40392f21f5668aed15513c4a24a937bc99a8747e1e91bc",
    "gen/co-c8": "40d98471c566047584010db310e98ce748919e59677fc20c7e6473a0f249453d",
    "opp/odd-walk": "88f0cfe85933bf295a1dc2db2ef9a914ece015239a9f4835210ae4f9dbb3c7c0",
    "opp/t1-witness": "8cebcb45d560d53ecf0ca76a7ade4b343bde861acc18947af109415efc48fe1c",
    "opp/h2": "36ae65d20be37e2e175b581fd26551f12a65dd27b1a0f72faf4c66ac4c47fb0b",
    "opp/c4-pendant": "02f98faa54e6b144d247210d1aa17a27cb0eff6b6364c74d0af2cb894b589afe",
    "opp/dh-twins": "f8a4a54a52fd81756046bcc19af8df9ac8f1abdebd08da892e8b4532cbab6615",
    "opp/tree": "5604f8e3f06c58f520ed71e0ea18961e57533b90ad16ed37ff4825de5da1e9af",
    "opp/p5+h1": "e738eaa7829fd7db02d9de7833c061aaff5eccbd9201f9ea0657ee6d2d409a33",
    "opp/dh-non-member-witness": "4eb5ac29dbf23ce10b65ac62d29f822e61ce47599afa46e63b8f80dc2f12f183",
    "opp/gem-house-free": "4ca3270807f4ab2571d6f169164fe5daba7add15d8c3c0b44de01175348c4019",
    "opp/flip-member": "d86beeed6a3c6080d60d02e78a1b56e475002ee23584a190ad7982f3ba5cbc97",
    "opp/co-c6": "22139f69474df4b80f150f9facce543c2a6ae1ba2ff5940195e93da31aa8556d",
    "opp/flip-non-member": "05ac4ecd27f0cdb57eaac4770ef7edcc91730f4d149ab25d37af4f9c54f62a91",
    "opp/co-c6x3": "d1fe1c15c68ee5e78382ecd916b5e7971b8e8ba3d14a64e43fdecb9c7664ea6e",
    "opp/co-c6x3-cap2": "d1fe1c15c68ee5e78382ecd916b5e7971b8e8ba3d14a64e43fdecb9c7664ea6e",
    "opp/undecided-cap1": "1af1c1dcc585b0584ffa6048fa9eaa3daf9466f8c873a1eeffbce923ceecdf68",
    "opp/two-components": "86237a2f6bccffc6a7d05b7713d5e911c337c7dd505515404ac36376fb6a6835",
    "opp/c5": "71aab93f4a015da487e1a499f144f4ac05438b322f9283355b8e61049bce2d59",
    "opp/t1": "17e69e126ffcbcc053d7f2afa08e40249794b5a2d29a1976853bd7356d0a82b3",
    "opp/a-witness": "a544f17128e29abb5b263f8ea4db5ffa991bb4f7269e5460e55d4eef891380f0",
    "opp/g1-witness": "6ebf3eb11b91b05785f52c69d6b571257e7bbda6c8a336c2b4124f01b8f6b8f6",
    "coal/n": "14908d5d5a3b5eee4aec3f4ff2823062885b6b2e0df8109114716562cfaac7d9",
    "coal/n-witness": "a21db90cc0f710094f5fe9a89f897cb798d836cbf93e468a8a6e26b84a35aed3",
    "coal/tree": "f076e88d891932e703704e6912b0f294216561d78f6b2e1ad8fbe7a621499331",
    "coal/h2": "5fdd76a1627eb58e5f80c00d29c880517bc1e76a798bd34a35259f0c2dd92aad",
    "coal/dh-twins": "8fed8e9631a20c2d45b3bbd8d76163765af4a6a4a87d2ee48eba6d6256ee4e1f",
    "coal/p5+h1": "b2781fa3c2e4c6d4e2db6805147453b8c1d27bda1635e16d03b5489e17f69456",
    "coal/dh-non-member-witness": "4d2b8eea85b5c1b6a33b27bf0c5e1b526d41ddb978a5da874511949c90c7dd96",
    "coal/gem-house-hole-free": "b7838cbd22695e040fc1bc44250a94838f2c58b78486497f17d01c6c2cc4cfb6",
    "coal/c6": "bf84041d8d2b6b50c6a3ed628ab0348be21621c83dbb5d60774a1ff274c1004a",
    "coal/flip-non-member": "b5d21eb9c38c7a72763362232b9baea35eb1dd81890d9fbd13349671a5d68189",
    "coal/co-c6": "aaa8dd46e2a934aa5261f185c3d78639dd16e0529daa82469de8dbcfef7ff279",
    "coal/undecided-cap1": "cd55f50b77c1581379b476a92dd460ce9e55fc16a00ef0a3ec5cab26587ab0df",
    "coal/two-components": "8aa6c246daa0a68c4b0d41e74f4b3dfce44cf3cd61c91eaed9f5def20e5053a4",
    "coal-dh/n": "5ede2b9d166e40ec3334919782d05ed874a972d1b831d302e93ad32a2ebfae1b",
    "opp/union-c5": "8b07489b69c45c0c161fe29ed6b2ed2d65344d0fbecb4cf901e8f52473fbd5e4",
    "coal/union-c5": "e122f7210e159c8ee9268c12ea5a42307a408e20cad11d8e887c2de2dfad9dcf",
    "coal/union-c5-cap5": "e122f7210e159c8ee9268c12ea5a42307a408e20cad11d8e887c2de2dfad9dcf",
    "opp/union-co-c6": "634933bb0ba96635f2b3b551e5c47c968bbe30911e08f930c2dfc0bb4c7f328f",
    "opp/union-co-c6-cap5": "634933bb0ba96635f2b3b551e5c47c968bbe30911e08f930c2dfc0bb4c7f328f",
    "coal/union-co-c6": "5a88215a33770fdc4ae4b6124f2f0ab6b54477c89d02dfb05fe258a8f1ead3f3",
    "coal/union-co-c6-cap5": "5a88215a33770fdc4ae4b6124f2f0ab6b54477c89d02dfb05fe258a8f1ead3f3",
    "opp/union-top-pinned": "71ef15ae56953777548890466dedc4efd22a3b47da8949e0ddee97c673daa3da",
    "opp/f-x2-cap1": "9477f52a3741f66d6a67d82fb37f29c44b8f65e97a0516ffe3d2449626834256",
    "opp/f-x2": "6e0bb2b25e7eb74b95e369a46e80579f6b98ed1c36732c2286b73b4cecc548db",
    "coal/fnccw-x2": "05e13b78f3de4039465377826710be99ba3a4c7f8acee0546f04fdab3132cdd0",
    "opp/fuxqo+p4+p5-cap1": "308aff3e5b7ee147ca118463cba518e45af8bba07f6c73243d976cd83ef1aa6d",
}

GOLDEN_ORIENT = {
    "p7": "96634a5a7513c375f3d2ad2320027a4045bd015b3dca727014c3c8fa42dc6ead",
    "h2": "682a3f9d1d28b0d685fd155561debffc92efc2676d951b7c03571489522de63c",
    "star": "0660ccf22ffadd691cf6dec37a0a3b7a199dc5a3b8ed3827cc973f1ecc957b2c",
    "k4": "ea233fe41b59ca37d26105567ce8ab51a24278ae873904ed7414bfb94631b39e",
    "k2,5": "0b6733bcd9b3add319ad52239041e322a3afed57b84b4060da93ee8466a2e2d0",
    "k2,5-hubs-joined": "b92e55ebe5af4c37721e5e2dbfdf3e0429e308b8b81f8786d32bb5e8d75a681e",
    "p4": "21cafad1d4597c2be7dc3aafb38c0f5c3f0725307e3a36fd84c4b1e56ff7fa67",
    "bull": "bb8644028b3f359ee1886f94ec8438c6d0fccb55c98d148683c339dc9f002704",
    "t1": "3d9f1333a19301a6ac3f9c9d94fa9a89af74e327bf39a54a996f221957e653ef",
    "t2": "3d9f1333a19301a6ac3f9c9d94fa9a89af74e327bf39a54a996f221957e653ef",
    "g1": "1fa2bd1b841decc5553d619af9beafe9be5aacdd105939399da9a54dcc1b9ef2",
    "g2": "1fa2bd1b841decc5553d619af9beafe9be5aacdd105939399da9a54dcc1b9ef2",
}

GOLDEN_GENERATOR = "e2ddac1f455f877cecfd97511bc870e0c5a27ff6f3112a60b33ff52bce5d3dcf"


@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_payload_digest(case):
    assert _payload_digest(case) == GOLDEN[case[0]]


def test_corpus_reaches_every_method():
    methods = set()
    kinds = set()
    for _, graph_name, recognize, kwargs in _CASES:
        v = recognize(_graphs()[graph_name], **kwargs)
        methods.add((v.graph_class, v.method, v.decision, v.witness is not None))
        kinds.add((v.graph_class, type(v.certificate).__name__))
    for graph_class in ("opposition", "coalition"):
        assert (graph_class, "InducedSubgraph") in kinds
    for want in [
        ("generalized-opposition", "aux-odd-walk", "non-member", False),
        ("generalized-opposition", "aux-bipartite", "member", False),
        ("opposition", "aux-odd-walk", "non-member", True),
        ("opposition", "dh-ptolemaic", "member", False),
        ("opposition", "gem-house-free", "member", False),
        ("opposition", "flip-search", "member", False),
        ("opposition", "flip-search", "non-member", False),
        ("opposition", "flip-search", "undecided", False),
        ("coalition", "aux-odd-walk", "non-member", True),
        ("coalition", "dh-transitive", "member", False),
        ("coalition", "dh-n-witness", "non-member", False),
        ("coalition", "gem-house-hole-free", "member", False),
        ("coalition", "flip-search-extension", "member", False),
        ("coalition", "flip-search-extension", "non-member", False),
        ("coalition", "flip-search-extension", "undecided", False),
    ]:
        assert want in methods, want


@pytest.mark.parametrize("name", list(GOLDEN_ORIENT))
def test_orient_digest(name):
    assert _orient_digest(name) == GOLDEN_ORIENT[name]


@pytest.mark.parametrize(
    "name, p4s",
    [
        ("t1", ((5, 4, 3, 7),)),
        ("t2", ((7, 6, 5, 9),)),
        ("g1", ((3, 6, 7, 8), (5, 4, 3, 6))),
        ("g2", ((5, 4, 3, 6), (6, 3, 7, 8))),
    ],
)
def test_orient_error_carries_its_p4s(name, p4s):
    # the offending P4s are the (a, b, c, d) tuples of `induced_p4s`
    with pytest.raises(PtolemaicOrientationError) as info:
        ptolemaic_opposition_orient(_orient_graphs()[name])
    assert info.value.p4s == p4s


def test_generator_digest():
    assert _generator_digest() == GOLDEN_GENERATOR


if __name__ == "__main__":
    for case in _CASES:
        print(f'    "{case[0]}": "{_payload_digest(case)}",')
    for name in _orient_graphs():
        print(f'    "{name}": "{_orient_digest(name)}",')
    print(f'GOLDEN_GENERATOR = "{_generator_digest()}"')
