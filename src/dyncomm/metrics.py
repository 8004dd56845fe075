"""Temporal community and node-behavior metrics.

Per community: size in physical nodes (z), node activity NA, self-citation
ratio SC, heterogeneity index HI.  Per physical node: lifetime, community
membership, multiplicity C_M and toggle rate C_T.  Plus the pairwise
partition dissimilarity D used against planted assignments.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Hashable, Iterable, Mapping

from .detection import Cover
from .temporal_graph import TemporalGraph, TemporalNode, _read_table, _write_table

COMMUNITY_HEADER = ["community", "z", "temporal_size", "NA", "SC", "HI", "internal_links"]
NODE_HEADER = ["node", "lifetime", "membership", "CM", "CT"]


@dataclass(frozen=True)
class CommunityReport:
    community: int
    z: int
    temporal_size: int
    na: float
    sc: float
    hi: float
    internal_links: int
    hi_degenerate: bool = False


@dataclass(frozen=True)
class NodeReport:
    node: str
    lifetime: int
    membership: int
    cm: float
    ct: float


def community_size(community: Iterable[TemporalNode]) -> int:
    """Number of distinct physical nodes participating in the community."""
    members = set(tn.node for tn in community)
    if not members:
        raise ValueError("community must not be empty")
    return len(members)


def node_activity(community: Iterable[TemporalNode]) -> float:
    """NA = 1 - z/|C|: recurrence of node participation over timesteps."""
    members = list(community)
    if not members:
        raise ValueError("community must not be empty")
    return 1.0 - community_size(members) / len(members)


def _internal_links(community: Iterable[TemporalNode], tg: TemporalGraph):
    inside = set(community)
    if not inside:
        raise ValueError("community must not be empty")
    return [
        link for link in tg.links if link.source in inside and link.target in inside
    ]


def self_citation(community: Iterable[TemporalNode], tg: TemporalGraph) -> float:
    """Weight fraction of internal links joining two instances of one node.

    0 by convention when the community has no internal links.
    """
    links = _internal_links(community, tg)
    total = sum(link.weight for link in links)
    if total == 0:
        return 0.0
    selfs = sum(
        link.weight for link in links if link.source.node == link.target.node
    )
    return selfs / total


def heterogeneity(community: Iterable[TemporalNode], tg: TemporalGraph) -> float:
    """Rescaled inverse-Herfindahl balance of internal out-link weight.

    p_i is each physical node's share of internal link weight sourced by
    it; h = 1/(z * sum p_i^2) is rescaled from [1/z, 1] to [0, 1].
    Degenerate cases (z = 1, or no internal links) are 1 by convention.
    """
    members = list(community)
    z = community_size(members)
    links = _internal_links(members, tg)
    out_weight = Counter()
    for link in links:
        out_weight[link.source.node] += link.weight
    return _heterogeneity(z, sum(link.weight for link in links), out_weight)[0]


def _heterogeneity(z: int, total: int, out_weight: Counter) -> tuple[float, bool]:
    """(HI, degenerate) from z, the internal link weight and each physical
    node's internal out-link weight; HI is 1 when degenerate."""
    if z == 1 or total == 0:
        return 1.0, True
    sum_p2 = sum((w / total) ** 2 for w in out_weight.values())
    return (z * (1.0 / (z * sum_p2)) - 1.0) / (z - 1.0), False


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
    """All per-community metrics in one pass over the link set."""
    members: list[list[TemporalNode]] = [[] for _ in range(cover.n_communities)]
    for tn, cid in zip(tg.nodes, cover.membership(tg.nodes)):
        members[cid].append(tn)
    internal = [0] * cover.n_communities
    selfs = [0] * cover.n_communities
    out_weight: list[Counter] = [Counter() for _ in range(cover.n_communities)]
    for link in tg.links:
        ca = cover.assignment[link.source]
        if ca != cover.assignment[link.target]:
            continue
        internal[ca] += link.weight
        out_weight[ca][link.source.node] += link.weight
        if link.source.node == link.target.node:
            selfs[ca] += link.weight
    reports = []
    for cid in range(cover.n_communities):
        group = members[cid]
        if not group:
            raise ValueError(f"community {cid} has no temporal nodes")
        z = len(set(tn.node for tn in group))
        size = len(group)
        total = internal[cid]
        sc = selfs[cid] / total if total else 0.0
        hi, degenerate = _heterogeneity(z, total, out_weight[cid])
        reports.append(
            CommunityReport(
                community=cid,
                z=z,
                temporal_size=size,
                na=1.0 - z / size,
                sc=sc,
                hi=hi,
                internal_links=total,
                hi_degenerate=degenerate,
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
    rows = (
        [r.community, r.z, r.temporal_size, repr(r.na), repr(r.sc), repr(r.hi), r.internal_links]
        for r in reports
    )
    _write_table(out, COMMUNITY_HEADER, rows)


def write_node_csv(reports: Iterable[NodeReport], out: IO[str] | str | Path) -> None:
    rows = ([r.node, r.lifetime, r.membership, repr(r.cm), repr(r.ct)] for r in reports)
    _write_table(out, NODE_HEADER, rows)


def read_community_csv(source: IO[str] | str | Path) -> list[CommunityReport]:
    """Read a community metrics CSV; errors name the offending line.

    NA, SC and HI must be finite: a profile cannot place ``nan`` or ``inf``.
    """
    reports = []

    def add_row(row: list[str]) -> None:
        report = CommunityReport(
            community=int(row[0]),
            z=int(row[1]),
            temporal_size=int(row[2]),
            na=float(row[3]),
            sc=float(row[4]),
            hi=float(row[5]),
            internal_links=int(row[6]),
        )
        for name, value in zip(COMMUNITY_HEADER[3:6], (report.na, report.sc, report.hi)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        reports.append(report)

    _read_table(source, "community", COMMUNITY_HEADER, add_row)
    return reports
