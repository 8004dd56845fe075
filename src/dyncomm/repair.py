"""NA-guided community repairing.

Greedily merges communities that share physical nodes whenever the union
has higher node activity than either part, turning temporally-cohesive
fragments into physically-cohesive clusters.
"""

from __future__ import annotations

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

    The state is updated incrementally.  Neighbour sets (communities that
    share a physical node) and a heap of candidate merges ordered by
    (-gain, a, b) are built once.  Merging b into a touches only pairs with
    a or b: a's pairs are recounted and re-queued under a new version of a,
    and entries of b or of an older a are skipped when popped.  Every other
    pair keeps its parts, so its queued gain stays exact.
    """
    if min_overlap < 1:
        raise ValueError("min_overlap must be >= 1")
    cids = cover.membership(tg.nodes)
    groups = cover.communities()
    phys = {cid: {tn.node for tn in group} for cid, group in enumerate(groups)}
    size = {cid: len(group) for cid, group in enumerate(groups)}
    holders: dict[str, list[int]] = {}
    for cid, labels in phys.items():
        for label in labels:
            holders.setdefault(label, []).append(cid)
    neighbours = {
        cid: set().union(*map(holders.__getitem__, labels)) - {cid}
        for cid, labels in phys.items()
    }
    # NA = 1 - z/size with z = |phys|, so a gain is min(z/size) over the
    # parts minus union/merged_size: a rational whose denominator is at most
    # n**2 for n temporal nodes.  Two different gains thus differ by at
    # least 1/n**4, and floor(gain * n**4) orders gains exactly.
    scale = len(tg.nodes) ** 4
    version = dict.fromkeys(phys, 0)
    heap: list[tuple[int, int, int, int, int, float, float]] = []

    def queue(a: int, x: int) -> None:
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
            lo, hi = (a, x) if a < x else (x, a)
            heappush(heap, (
                -(gain_num * scale // gain_den), lo, hi, version[lo], version[hi],
                (merged_size - union) / merged_size, gain_num / gain_den,
            ))

    for cid, near in neighbours.items():
        for x in near:
            if x > cid:
                queue(cid, x)
    parent: dict[int, int] = {}
    steps: list[MergeStep] = []
    while heap:
        _, a, b, version_a, version_b, merged_na, gain = heappop(heap)
        if version.get(a) != version_a or version.get(b) != version_b:
            continue
        phys[a] |= phys.pop(b)
        size[a] += size.pop(b)
        del version[b]
        version[a] += 1
        parent[b] = a
        moved = neighbours.pop(b) - {a}
        for x in moved:
            neighbours[x].discard(b)
            neighbours[x].add(a)
        neighbours[a].discard(b)
        neighbours[a] |= moved
        steps.append(MergeStep(len(steps) + 1, a, b, merged_na, gain))
        for x in neighbours[a]:
            queue(a, x)

    def root(cid: int) -> int:
        while cid in parent:
            cid = parent[cid]
        return cid

    dense = {cid: i for i, cid in enumerate(sorted(phys))}
    final = {cid: dense[root(cid)] for cid in range(cover.n_communities)}
    assignment = dict(zip(tg.nodes, map(final.__getitem__, cids)))
    return Cover(assignment=assignment, n_communities=len(dense)), steps


def write_trace(steps: Iterable[MergeStep], out: IO[str] | str | Path) -> None:
    """Write the merge trace CSV `step,community_a,community_b,merged_NA,gain`."""
    _write_table(out, TRACE_HEADER, steps)
