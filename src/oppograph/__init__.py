"""Recognition of opposition, generalized opposition, and coalition graphs
with certified orientations and obstructions."""

from .constraints import (
    ConstraintGraph,
    OddWalkCertificate,
    bipartition_or_odd_walk,
    extend_acyclic,
    forced_orientation,
    is_acyclic,
)
from .graphs import (
    DirectedCycleCertificate,
    Graph,
    GraphError,
    Orientation,
    complement,
    complete_graph,
    connected_components,
    cycle_graph,
    emit_dot,
    encode_graph6,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    path_graph,
)
from .oracle import (
    OracleCapError,
    OracleResult,
    oracle_coalition,
    oracle_generalized_opposition,
    oracle_opposition,
)
from .p4 import (
    COALITION,
    GENERALIZED_OPPOSITION,
    GRAPH_CLASSES,
    OPPOSITION,
    P4,
    classify_layer_type,
    end_edges,
    induced_p4s,
    layer_decompose,
    verify_orientation,
)
from .patterns import (
    CATALOG,
    GEM,
    GRAPH_A,
    GRAPH_G1,
    GRAPH_G2,
    GRAPH_N,
    HOUSE,
    Pattern,
    PatternMatch,
    find_induced,
    find_max_Hk,
    find_Tk_free_violation,
    has_hole,
    is_chordal,
    is_distance_hereditary,
    is_ptolemaic,
    make_Hk,
    make_Tk,
)
from .recognize import (
    DEFAULT_FLIP_CAP,
    FlipExhaustion,
    InducedSubgraph,
    PtolemaicOrientationError,
    Verdict,
    ptolemaic_opposition_orient,
    recognize_coalition,
    recognize_coalition_distance_hereditary,
    recognize_generalized_opposition,
    recognize_opposition,
    transitive_orient,
    verdict_payload,
)

__version__ = "0.1.0"
