"""Intrinsically dynamic community detection on diachronic link data.

Builds temporal graphs whose vertices are (node, timestep) pairs, clusters
them by modularity optimization, and measures the resulting temporal
communities and per-node behavior.  Includes a planted-community synthetic
benchmark generator and a CLI pipeline (`dyncomm`).
"""

from .detection import (
    Cover,
    CoverMismatchError,
    GraphSizeError,
    ModularityView,
    UndefinedModularityError,
    brute_force_best,
    girvan_newman,
    louvain,
    modularity,
    read_cover,
    write_cover,
)
from .generator import (
    ConfigError,
    GeneratorConfig,
    cell_config,
    generate,
    read_assignment,
    write_assignment,
)
from .metrics import (
    CommunityReport,
    NodeReport,
    community_reports,
    dissimilarity,
    node_activity,
    node_reports,
    write_community_csv,
    write_node_csv,
)
from .repair import MergeStep, repair, write_trace
from .temporal_graph import (
    LinkParseError,
    LinkValidationError,
    PERMISSIVE,
    STRICT_CITATION,
    TemporalGraph,
    TemporalLink,
    TemporalNode,
    build_temporal_graph,
    coarsen_time,
    parse_link_file,
    parse_links,
    write_links,
)

__all__ = [
    "ConfigError",
    "Cover",
    "CoverMismatchError",
    "CommunityReport",
    "GeneratorConfig",
    "GraphSizeError",
    "LinkParseError",
    "LinkValidationError",
    "MergeStep",
    "ModularityView",
    "NodeReport",
    "PERMISSIVE",
    "STRICT_CITATION",
    "TemporalGraph",
    "TemporalLink",
    "TemporalNode",
    "UndefinedModularityError",
    "brute_force_best",
    "build_temporal_graph",
    "cell_config",
    "coarsen_time",
    "community_reports",
    "dissimilarity",
    "generate",
    "girvan_newman",
    "louvain",
    "modularity",
    "node_activity",
    "node_reports",
    "parse_link_file",
    "parse_links",
    "read_assignment",
    "read_cover",
    "repair",
    "write_assignment",
    "write_community_csv",
    "write_cover",
    "write_links",
    "write_node_csv",
    "write_trace",
]

__version__ = "0.1.0"
