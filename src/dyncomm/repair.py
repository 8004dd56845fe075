"""NA-guided community repairing.

Greedily merges communities that share physical nodes whenever the union
has higher node activity than either part, turning temporally-cohesive
fragments into physically-cohesive clusters.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .detection import Cover
from .temporal_graph import TemporalGraph, _write_table

TRACE_HEADER = ["step", "community_a", "community_b", "merged_NA", "gain"]


class MergeStep(NamedTuple):
    step: int
    community_a: int
    community_b: int
    merged_na: float
    gain: float


def repair(
    cover: Cover, tg: TemporalGraph, min_overlap: int = 1
) -> tuple[Cover, list[MergeStep]]:
    """Merge community pairs sharing >= min_overlap physical nodes while the
    best merge strictly increases NA over both parts.

    Each step picks the largest NA gain (ties to the smaller id pair), so
    the process is deterministic and finishes in at most one merge per
    community.  Gains are compared exactly.

    The state is updated incrementally.  Each physical node's holders (the
    live communities that contain it) give a community's neighbours, and a
    heap of candidate merges ordered by (-gain, a, b) is built once.  Merging
    b into a makes a the holder of b's nodes and re-queues a's pairs.  An
    entry carries its parts' sizes, which every merge grows, so one naming b,
    or a at a smaller size, is skipped when popped; other entries stay exact.
    Each survivor's member list, its original ids, gives the final ids.
    """
    if min_overlap < 1:
        raise ValueError("min_overlap must be >= 1")
    cids = cover.membership(tg.nodes)
    groups = cover.communities()
    phys = {cid: {tn.node for tn in group} for cid, group in enumerate(groups)}
    size = {cid: len(group) for cid, group in enumerate(groups)}
    holders: defaultdict[str, set[int]] = defaultdict(set)
    for cid, labels in phys.items():
        for label in labels:
            holders[label].add(cid)
    # NA = 1 - z/size with z = |phys|, so a gain is min(z/size) over the
    # parts minus union/merged_size: a rational whose denominator is at most
    # n**2 for n temporal nodes.  Two different gains thus differ by at
    # least 1/n**4, and floor(gain * n**4) orders gains exactly.
    scale = len(tg.nodes) ** 4
    heap: list[tuple[int, int, int, int, int, float, float]] = []

    def near(a: int) -> set[int]:
        return set().union(*map(holders.__getitem__, phys[a])) - {a}

    def queue(a: int, x: int) -> None:
        if x < a:
            a, x = x, a
        phys_a, phys_x = phys[a], phys[x]
        shared = len(phys_a & phys_x)
        if shared < min_overlap:
            return
        z_a, z_x, size_a, size_x = len(phys_a), len(phys_x), size[a], size[x]
        merged_size = size_a + size_x
        union = z_a + z_x - shared
        z, s = (z_a, size_a) if z_a * size_x <= z_x * size_a else (z_x, size_x)
        gain_num = z * merged_size - union * s
        if gain_num > 0:
            gain_den = s * merged_size
            heappush(heap, (
                -(gain_num * scale // gain_den), a, x, size_a, size_x,
                (merged_size - union) / merged_size, gain_num / gain_den,
            ))

    for cid in phys:
        for x in near(cid):
            if x > cid:
                queue(cid, x)
    members = {cid: [cid] for cid in phys}
    steps: list[MergeStep] = []
    while heap:
        _, a, b, size_a, size_b, merged_na, gain = heappop(heap)
        if size.get(a) != size_a or size.get(b) != size_b:
            continue
        for label in phys[b]:
            holders[label].remove(b)
            holders[label].add(a)
        phys[a] |= phys.pop(b)
        size[a] += size.pop(b)
        members[a] += members.pop(b)
        steps.append(MergeStep(len(steps) + 1, a, b, merged_na, gain))
        for x in near(a):
            queue(a, x)
    final = [0] * cover.n_communities
    for dense, cid in enumerate(sorted(members)):
        for original in members[cid]:
            final[original] = dense
    assignment = dict(zip(tg.nodes, map(final.__getitem__, cids)))
    return Cover(assignment=assignment, n_communities=len(members)), steps


def write_trace(steps: Iterable[MergeStep], out: IO[str] | str | Path) -> None:
    """Write the merge trace CSV `step,community_a,community_b,merged_NA,gain`."""
    _write_table(out, TRACE_HEADER, steps)
