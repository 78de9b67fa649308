"""Exact resolvability invariants of connected graphs.

Six dimension variants built from a representation kind (vector or multiset)
and the pairs compared: all pairs or adjacent pairs only, with or without the
pairs that have an end in the landmark set.
"""

from .bounds import (
    Bound,
    BoundReport,
    InfiniteCertificate,
    clique_log_bound,
    g_bound,
    infinite_certificates,
    lower_bounds,
)
from .errors import (
    BudgetExhaustedError,
    CapExceededError,
    DisconnectedGraphError,
    GraphParseError,
    GraphValidationError,
    MultiresError,
    NoClosedFormError,
    NoLeaflessSubgraphError,
)
from .generators import (
    CliqueGadget,
    FamilySpec,
    all_connected,
    gen,
    gen_clique_gadget,
    graph_from_mask,
    parse_family_spec,
)
from .graph import (
    Graph,
    all_pairs_distances,
    bipartition,
    chromatic_number,
    clique_number,
    diameter,
    distance_row,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
    two_core,
)
from .multisets import Variant
from .solver import (
    INFINITE,
    Certificate,
    DimensionResult,
    SolverOptions,
    certify,
    dimension,
    naive_all_dimensions,
    resolving_sets,
    solve_all,
)
from .verify import (
    TheoremCheck,
    closed_form,
    corpus_scan,
    run_all,
    run_theorem,
    wheel_path_structure,
)

__version__ = "0.1.0"

__all__ = [
    "Bound",
    "BoundReport",
    "BudgetExhaustedError",
    "CapExceededError",
    "Certificate",
    "CliqueGadget",
    "DimensionResult",
    "DisconnectedGraphError",
    "FamilySpec",
    "Graph",
    "GraphParseError",
    "GraphValidationError",
    "INFINITE",
    "InfiniteCertificate",
    "MultiresError",
    "NoClosedFormError",
    "NoLeaflessSubgraphError",
    "SolverOptions",
    "TheoremCheck",
    "Variant",
    "all_connected",
    "all_pairs_distances",
    "bipartition",
    "certify",
    "chromatic_number",
    "clique_log_bound",
    "clique_number",
    "closed_form",
    "corpus_scan",
    "diameter",
    "dimension",
    "distance_row",
    "g_bound",
    "gen",
    "gen_clique_gadget",
    "graph_from_mask",
    "infinite_certificates",
    "lower_bounds",
    "naive_all_dimensions",
    "parse_edge_list",
    "parse_family_spec",
    "parse_graph6",
    "resolving_sets",
    "run_all",
    "run_theorem",
    "solve_all",
    "to_edge_list",
    "to_graph6",
    "two_core",
    "wheel_path_structure",
]
