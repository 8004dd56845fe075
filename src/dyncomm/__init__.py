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
from .repair import MergeStep, repair, write_trace
from .temporal_graph import (
    ConfigError,
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

# Loaded on first use (PEP 562), so that a command which needs neither the
# generator nor the metrics does not import them.  `repair` above stays
# eager: importing the submodule would rebind ``dyncomm.repair`` to it.
_LAZY = {
    "GeneratorConfig": "generator",
    "cell_config": "generator",
    "generate": "generator",
    "read_assignment": "generator",
    "write_assignment": "generator",
    "CommunityReport": "metrics",
    "NodeReport": "metrics",
    "community_reports": "metrics",
    "dissimilarity": "metrics",
    "node_activity": "metrics",
    "node_reports": "metrics",
    "write_community_csv": "metrics",
    "write_node_csv": "metrics",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
