"""Toolkit for proportionally dense subgraphs.

A set S with 2 <= |S| < n is a proportionally dense subgraph (PDS) of a
graph G when every vertex of S has a proportion of neighbours inside S
at least as large as its proportion of neighbours in the whole graph.
The package bundles verification, exhaustive search, a half-size local
search with a proven approximation ratio, reductions from the maximum
independent set problem, and a linear-time solver for Hamiltonian cubic
graphs, plus generators, fixtures and timing suites.
"""

from .approx import ApproxTrace, MoveRecord, approx_ratio_bound, decide_pds_at_least_k, half_pds
from .cubic import (
    CubicCycleGraph,
    CubicOutcome,
    all_cubic_cycles,
    emit_cubic,
    max_pds_size_cubic,
    parse_cubic,
    random_cubic_cycle,
    solve_hamiltonian_cubic,
)
from .errors import (
    InstanceTooLarge,
    InvalidArgument,
    InvalidGraph,
    NoPds,
    ParseError,
    PdsKitError,
    UnknownName,
    VerificationFailed,
)
from .exact import (
    ExactResult,
    max_independent_set_exact,
    max_pds_exact,
    pds_extension,
)
from .generators import (
    all_connected_graphs,
    fixture,
    fixture_names,
    random_connected,
)
from .graph import (
    Graph,
    VertexSet,
    emit_graph,
    graph_from_json,
    graph_to_json,
    induced_connected,
    is_star,
    parse_graph,
    set_from_json,
)
from .pds import (
    PdsVerdict,
    check_pds,
    is_inclusionwise_maximal,
    pds_size_upper_bound,
)
from .reductions import (
    Reduction,
    ReductionCertificate,
    bipartite_reduction,
    certificate_from_json,
    certificate_to_json,
    split_reduction,
    verify_certificate,
)

__version__ = "1.0.0"

__all__ = [
    "ApproxTrace",
    "CubicCycleGraph",
    "CubicOutcome",
    "ExactResult",
    "Graph",
    "InstanceTooLarge",
    "InvalidArgument",
    "InvalidGraph",
    "MoveRecord",
    "NoPds",
    "ParseError",
    "PdsKitError",
    "PdsVerdict",
    "Reduction",
    "ReductionCertificate",
    "UnknownName",
    "VerificationFailed",
    "VertexSet",
    "all_connected_graphs",
    "all_cubic_cycles",
    "approx_ratio_bound",
    "bipartite_reduction",
    "certificate_from_json",
    "certificate_to_json",
    "check_pds",
    "decide_pds_at_least_k",
    "emit_cubic",
    "emit_graph",
    "fixture",
    "fixture_names",
    "graph_from_json",
    "graph_to_json",
    "half_pds",
    "induced_connected",
    "is_inclusionwise_maximal",
    "is_star",
    "max_independent_set_exact",
    "max_pds_exact",
    "max_pds_size_cubic",
    "parse_cubic",
    "parse_graph",
    "pds_extension",
    "pds_size_upper_bound",
    "random_connected",
    "random_cubic_cycle",
    "set_from_json",
    "solve_hamiltonian_cubic",
    "split_reduction",
    "verify_certificate",
]
