"""Intrinsically dynamic community detection on diachronic link data.

Builds temporal graphs whose vertices are (node, timestep) pairs, clusters
them by modularity optimization, and measures the resulting temporal
communities and per-node behavior.  Includes a planted-community synthetic
benchmark generator and a CLI pipeline (`dyncomm`).
"""

# The function `repair` is bound here, not served below: importing the
# submodule of the same name would rebind ``dyncomm.repair`` to the module.
from .repair import repair

__version__ = "0.1.0"

# Each public name and the module that defines it.  Names load on first use
# (PEP 562), so a command imports only the modules it needs.
_EXPORTS = {
    "ConfigError": "temporal_graph",
    "Cover": "detection",
    "CoverMismatchError": "detection",
    "CommunityReport": "metrics",
    "GeneratorConfig": "generator",
    "GraphSizeError": "detection",
    "LinkParseError": "temporal_graph",
    "LinkValidationError": "temporal_graph",
    "MergeStep": "repair",
    "ModularityView": "detection",
    "NodeReport": "metrics",
    "TemporalGraph": "temporal_graph",
    "TemporalNode": "temporal_graph",
    "UndefinedModularityError": "detection",
    "brute_force_best": "detection",
    "build_temporal_graph": "temporal_graph",
    "cell_config": "generator",
    "coarsen_time": "temporal_graph",
    "community_reports": "metrics",
    "dissimilarity": "metrics",
    "generate": "generator",
    "girvan_newman": "detection",
    "louvain": "detection",
    "modularity": "detection",
    "node_activity": "metrics",
    "node_reports": "metrics",
    "parse_link_file": "temporal_graph",
    "read_assignment": "generator",
    "read_cover": "detection",
    "repair": "repair",
    "write_assignment": "generator",
    "write_community_csv": "metrics",
    "write_cover": "detection",
    "write_links": "temporal_graph",
    "write_node_csv": "metrics",
    "write_trace": "repair",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
