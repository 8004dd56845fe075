"""Temporal community and node-behavior metrics.

Per community: size in physical nodes (z), node activity NA, self-citation
ratio SC, heterogeneity index HI.  Per physical node: lifetime, community
membership, multiplicity C_M and toggle rate C_T.  Plus the pairwise
partition dissimilarity D used against planted assignments.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import IO, Hashable, Iterable, Mapping, NamedTuple

from .detection import Cover
from .temporal_graph import (
    TemporalGraph,
    TemporalNode,
    _decimal,
    _read_table,
    _real,
    _sum_in_order,
    _write_table,
)

COMMUNITY_HEADER = ["community", "z", "temporal_size", "NA", "SC", "HI", "internal_links"]
NODE_HEADER = ["node", "lifetime", "membership", "CM", "CT"]


class CommunityReport(NamedTuple):
    community: int
    z: int
    temporal_size: int
    na: float
    sc: float
    hi: float
    internal_links: int


class NodeReport(NamedTuple):
    node: str
    lifetime: int
    membership: int
    cm: float
    ct: float


def node_activity(community: Iterable[TemporalNode]) -> float:
    """NA = 1 - z/|C|, computed as (|C| - z)/|C|: recurrence of node participation over timesteps."""
    members = list(community)
    if not members:
        raise ValueError("community must not be empty")
    return (len(members) - len(set(tn.node for tn in members))) / len(members)


def dissimilarity(
    a: Mapping[TemporalNode, Hashable], b: Mapping[TemporalNode, Hashable]
) -> float:
    """Fraction of unordered node pairs classified together by exactly one
    of the two assignments.

    Computed through the pair-count contingency identity rather than the
    quadratic pair scan; both agree exactly.
    """
    if set(a) != set(b):
        raise ValueError("assignments must cover the same temporal nodes")
    n = len(a)
    if n < 2:
        raise ValueError("dissimilarity needs at least 2 temporal nodes")
    count_a = Counter(a.values())
    count_b = Counter(b.values())
    count_ab = Counter((a[tn], b[tn]) for tn in a)

    def pairs2(counts: Counter) -> int:
        return sum(c * (c - 1) // 2 for c in counts.values())

    disagreements = pairs2(count_a) + pairs2(count_b) - 2 * pairs2(count_ab)
    return disagreements / (n * (n - 1) // 2)


def community_reports(cover: Cover, tg: TemporalGraph) -> list[CommunityReport]:
    """All per-community metrics in one pass over the raw links, each counting 1.

    SC is 0 without internal links.  HI rescales h = 1/(z * sum p_i^2), p_i
    being node i's share of internal out-link weight, from [1/z, 1] to
    [0, 1]; it is 1 by convention when z = 1 or without internal links.
    """
    nodes = tg.nodes
    comm = cover.membership(nodes)
    internal = [0] * cover.n_communities
    selfs = [0] * cover.n_communities
    out_weight: list[Counter] = [Counter() for _ in range(cover.n_communities)]
    for i, j in zip(tg.sources, tg.targets):
        ca = comm[i]
        if ca != comm[j]:
            continue
        internal[ca] += 1
        label = nodes[i].node
        out_weight[ca][label] += 1
        if label == nodes[j].node:
            selfs[ca] += 1
    reports = []
    for cid, group in enumerate(cover.communities()):
        z = len(set(tn.node for tn in group))
        size = len(group)
        total = internal[cid]
        sc = selfs[cid] / total if total else 0.0
        if z == 1 or total == 0:
            hi = 1.0
        else:
            sum_p2 = _sum_in_order((w / total) ** 2 for w in out_weight[cid].values())
            hi = (z * (1.0 / (z * sum_p2)) - 1.0) / (z - 1.0)
        reports.append(
            CommunityReport(
                community=cid,
                z=z,
                temporal_size=size,
                na=(size - z) / size,
                sc=sc,
                hi=hi,
                internal_links=total,
            )
        )
    return reports


def node_reports(cover: Cover, tg: TemporalGraph) -> list[NodeReport]:
    """Lifetime, membership, C_M and C_T per physical node.

    C_T counts community changes between consecutive active timesteps over
    lifetime - 1; a node active once has C_T = 0 by definition.
    """
    by_node: dict[str, list[tuple[int, int]]] = {}
    for tn, cid in zip(tg.nodes, cover.membership(tg.nodes)):
        by_node.setdefault(tn.node, []).append((tn.t, cid))
    reports = []
    for label, visits in by_node.items():
        comms = [cid for _, cid in sorted(visits)]
        lifetime = len(comms)
        membership = len(set(comms))
        toggles = sum(1 for x, y in zip(comms, comms[1:]) if x != y)
        reports.append(
            NodeReport(
                node=label,
                lifetime=lifetime,
                membership=membership,
                cm=membership / lifetime,
                ct=toggles / (lifetime - 1) if lifetime > 1 else 0.0,
            )
        )
    return reports


def write_community_csv(
    reports: Iterable[CommunityReport], out: IO[str] | str | Path
) -> None:
    _write_table(out, COMMUNITY_HEADER, reports)


def write_node_csv(reports: Iterable[NodeReport], out: IO[str] | str | Path) -> None:
    _write_table(out, NODE_HEADER, reports)


def read_community_csv(source: IO[str] | str | Path) -> list[CommunityReport]:
    """Read a community metrics CSV; errors name the offending line.

    Numbers are read in the forms the package writes (`_decimal`, `_real`).
    A profile must be able to draw every row: NA, SC and HI must be finite,
    z at least 1, NA and SC within [0, 1], and no community id may repeat.
    HI is not range-checked, because its own formula can round past 1.
    """
    reports = []
    seen: set[int] = set()

    def add_row(row: list[str]) -> None:
        report = CommunityReport(
            community=_decimal(row[0]),
            z=_decimal(row[1]),
            temporal_size=_decimal(row[2]),
            na=_real(row[3]),
            sc=_real(row[4]),
            hi=_real(row[5]),
            internal_links=_decimal(row[6]),
        )
        for name, value in zip(COMMUNITY_HEADER[3:6], (report.na, report.sc, report.hi)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if report.z < 1:
            raise ValueError(f"z must be at least 1, got {report.z}")
        for name, value in (("NA", report.na), ("SC", report.sc)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if report.community in seen:
            raise ValueError(f"community {report.community} appears more than once")
        seen.add(report.community)
        reports.append(report)

    _read_table(source, "community", COMMUNITY_HEADER, add_row)
    return reports
