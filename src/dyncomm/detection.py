"""Community detection on the temporal graph.

Clustering runs on an undirected view of the temporal graph: directed
weights between a node pair are summed and self-loops kept.  Louvain is
the workhorse; Girvan-Newman is available for small graphs and exhaustive
partition search for tiny ones (test oracle).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .temporal_graph import TemporalGraph, TemporalNode, _read_table, _write_table

_EPS = 1e-12

GIRVAN_NEWMAN_MAX_NODES = 500
BRUTE_FORCE_MAX_NODES = 12

COVER_HEADER = ["node", "timestep", "community"]


class UndefinedModularityError(ValueError):
    """Modularity is undefined on a graph without edges."""


class GraphSizeError(ValueError):
    """Graph too large for the requested (superlinear-cost) algorithm."""


class CoverMismatchError(ValueError):
    """Cover is not total over the graph's temporal nodes."""


@dataclass(frozen=True)
class Cover:
    """Total assignment of temporal nodes to community ids 0..k-1."""

    assignment: Mapping[TemporalNode, int]
    n_communities: int

    def __post_init__(self) -> None:
        ids = set(self.assignment.values())
        if ids != set(range(self.n_communities)):
            raise ValueError("community ids must be contiguous from 0")

    @classmethod
    def from_assignment(cls, assignment: Mapping[TemporalNode, int]) -> "Cover":
        """Densify arbitrary ids to 0..k-1 by first appearance order."""
        remap: dict[int, int] = {}
        dense: dict[TemporalNode, int] = {}
        for tn, cid in assignment.items():
            dense[tn] = remap.setdefault(cid, len(remap))
        return cls(assignment=dense, n_communities=len(remap))

    def membership(self, nodes: Iterable[TemporalNode]) -> list[int]:
        """Community id of each node, in order; every node must be covered."""
        try:
            return [self.assignment[tn] for tn in nodes]
        except KeyError as exc:
            raise CoverMismatchError(f"cover misses temporal node {exc.args[0]}") from None

    def communities(self) -> list[list[TemporalNode]]:
        groups: list[list[TemporalNode]] = [[] for _ in range(self.n_communities)]
        for tn, cid in self.assignment.items():
            groups[cid].append(tn)
        return groups


@dataclass(frozen=True)
class ModularityView:
    """Undirected weighted view of a temporal graph.

    ``adj[i]`` lists (neighbor, symmetrized weight) once per unordered
    pair at both endpoints; self-loops live in ``self_weight``.  Weighted
    degree counts a self-loop twice, so degrees sum to 2 * total_weight.
    """

    nodes: tuple[TemporalNode, ...]
    adj: tuple[tuple[tuple[int, float], ...], ...] = field(repr=False)
    self_weight: tuple[float, ...] = field(repr=False)
    degree: tuple[float, ...] = field(repr=False)
    total_weight: float = 0.0

    @classmethod
    def from_temporal_graph(cls, tg: TemporalGraph) -> "ModularityView":
        index = {tn: i for i, tn in enumerate(tg.nodes)}
        adj, self_w, degree = _fold(
            len(tg.nodes), ((index[src], index[dst], w) for src, dst, w in tg.links)
        )
        return cls(
            nodes=tg.nodes,
            adj=tuple(map(tuple, adj)),
            self_weight=tuple(self_w),
            degree=tuple(degree),
            total_weight=float(tg.total_weight),
        )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def modularity(view: ModularityView, cover: Cover) -> float:
    """Newman-Girvan modularity of a cover on the undirected view."""
    if view.total_weight <= 0:
        raise UndefinedModularityError("modularity undefined: graph has no edges")
    return _modularity(view, cover.membership(view.nodes))


def _modularity(view: ModularityView, comm: list[int]) -> float:
    """Modularity of the membership list ``comm`` (community id per node index).

    Folded by community, Q sums each community's internal weight over m
    less its squared share of the total degree.
    """
    _, internal, tot = _fold_by(view.adj, view.self_weight, comm)
    two_m = 2.0 * view.total_weight
    return sum(2.0 * w / two_m - (d / two_m) ** 2 for w, d in zip(internal, tot))


def _fold(
    k: int, triples: Iterable[tuple[int, int, float]]
) -> tuple[list[list[tuple[int, float]]], list[float], list[float]]:
    """Fold weight triples ``(i, j, w)`` over ids ``0..k-1`` into ``(adj, self_weight, degree)``.

    A triple with ``i == j`` is a self-loop.  Weights of one unordered pair
    add up whichever way round they come; the pair is listed at both ends,
    in order of first appearance.  Degree counts a self-loop twice.
    """
    self_w = [0.0] * k
    pair: dict[tuple[int, int], float] = {}
    for i, j, w in triples:
        if i == j:
            self_w[i] += w
        else:
            key = (i, j) if i < j else (j, i)
            pair[key] = pair.get(key, 0.0) + w
    adj: list[list[tuple[int, float]]] = [[] for _ in range(k)]
    degree = [2.0 * w for w in self_w]
    for (i, j), w in pair.items():
        adj[i].append((j, w))
        adj[j].append((i, w))
        degree[i] += w
        degree[j] += w
    return adj, self_w, degree


def _fold_by(
    adj: Sequence[Iterable[tuple[int, float]]], self_w: Sequence[float], comm: list[int]
) -> tuple[list[list[tuple[int, float]]], list[float], list[float]]:
    """`_fold` of a level's self-loops and pairs, each end relabelled by ``comm``."""

    def triples() -> Iterator[tuple[int, int, float]]:
        for i, neighbors in enumerate(adj):
            ci = comm[i]
            yield ci, ci, self_w[i]
            for j, w in neighbors:
                if j > i:
                    yield ci, comm[j], w

    return _fold(max(comm) + 1, triples())


def _one_level(
    adj: list[list[tuple[int, float]]],
    degree: list[float],
    two_m: float,
    rng: random.Random,
) -> tuple[list[int], bool]:
    """Local-move phase: greedy node relocation until no move improves Q.

    Nodes come off a FIFO queue that starts as a seeded shuffle.  A node that
    moves queues its unqueued neighbours outside its new community, in index
    order: the rows of ``adj`` are sorted in place.
    """
    n = len(adj)
    for row in adj:
        row.sort()
    comm = list(range(n))
    tot = list(degree)
    queue = deque(rng.sample(range(n), n))
    queued = [True] * n
    moved_any = False
    while queue:
        i = queue.popleft()
        queued[i] = False
        ci = comm[i]
        w_to: dict[int, float] = {}
        for j, w in adj[i]:
            cj = comm[j]
            w_to[cj] = w_to.get(cj, 0.0) + w
        tot[ci] -= degree[i]
        ki = degree[i]
        # Gains relative to i sitting alone; candidates are the
        # neighboring communities plus the one it came from.  Ties go
        # to the smallest community id, and staying put wins ties.
        best_c = ci
        best_gain = w_to.get(ci, 0.0) - tot[ci] * ki / two_m
        for c in sorted(w_to):
            gain = w_to[c] - tot[c] * ki / two_m
            if gain > best_gain + _EPS:
                best_c = c
                best_gain = gain
        if best_gain < -_EPS:
            # Every candidate hurts: detach into a fresh community
            # (gain 0), which strictly improves Q over staying.
            best_c = len(tot)
            tot.append(0.0)
        comm[i] = best_c
        tot[best_c] += degree[i]
        if best_c != ci:
            moved_any = True
            for j, _ in adj[i]:
                if not queued[j] and comm[j] != best_c:
                    queued[j] = True
                    queue.append(j)
    return comm, moved_any


def _densify(comm: list[int]) -> list[int]:
    remap: dict[int, int] = {}
    return [remap.setdefault(c, len(remap)) for c in comm]


def louvain(view: ModularityView, seed: int = 0) -> Cover:
    """Two-phase greedy modularity optimization.

    Each level visits nodes from a work queue seeded with a shuffled order
    (see `_one_level`), so the result is a deterministic function of
    (view, seed).  Never returns a cover worse than all-singletons (the
    starting point).
    """
    if view.total_weight <= 0:
        raise UndefinedModularityError("louvain undefined: graph has no edges")
    rng = random.Random(seed)
    # `_one_level` sorts the rows of its level in place, so level 0 gets list copies.
    adj, self_w, degree = [list(a) for a in view.adj], view.self_weight, list(view.degree)
    two_m = 2.0 * view.total_weight
    assign = list(range(view.n_nodes))
    while True:
        comm, moved = _one_level(adj, degree, two_m, rng)
        if not moved:
            break
        dense = _densify(comm)
        assign = [dense[a] for a in assign]
        if len(set(dense)) == len(dense):
            break
        adj, self_w, degree = _fold_by(adj, self_w, dense)
    return _cover(view, assign)


def _cover(view: ModularityView, comm: list[int]) -> Cover:
    """The cover with ``view.nodes[i]`` in community ``comm[i]``, ids densified."""
    return Cover.from_assignment(dict(zip(view.nodes, comm)))


def _components(adj_sets: dict[int, set[int]], nodes: Iterable[int]) -> list[list[int]]:
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        comp = []
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in adj_sets[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        comps.append(comp)
    return comps


def _edge_betweenness(
    adj_sets: dict[int, set[int]], nodes: list[int]
) -> dict[tuple[int, int], float]:
    """Brandes accumulation over the given nodes, unweighted shortest paths."""
    bw: dict[tuple[int, int], float] = {}
    for u in nodes:
        for v in adj_sets[u]:
            if u < v:
                bw[(u, v)] = 0.0
    for s in nodes:
        sigma = {s: 1.0}
        dist = {s: 0}
        preds: dict[int, list[int]] = {s: []}
        order: list[int] = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in adj_sets[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    sigma[v] = 0.0
                    preds[v] = []
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = {u: 0.0 for u in order}
        for w in reversed(order):
            for v in preds[w]:
                credit = sigma[v] / sigma[w] * (1.0 + delta[w])
                key = (v, w) if v < w else (w, v)
                bw[key] += credit
                delta[v] += credit
    return bw


def _components_cover(view: ModularityView, adj_sets: dict[int, set[int]]) -> Cover:
    comps = _components(adj_sets, range(view.n_nodes))
    assignment: dict[TemporalNode, int] = {}
    for cid, comp in enumerate(comps):
        for i in comp:
            assignment[view.nodes[i]] = cid
    return Cover(assignment=assignment, n_communities=len(comps))


def girvan_newman(
    view: ModularityView, max_nodes: int = GIRVAN_NEWMAN_MAX_NODES
) -> Cover:
    """Iterative removal of the highest-betweenness edge.

    Returns the connected-components cover with maximal modularity over the
    whole removal sequence (the untouched graph included).  Betweenness is
    recomputed only inside the component that lost an edge.  Cubic in the
    worst case, hence the node-count guard.
    """
    if view.n_nodes > max_nodes:
        raise GraphSizeError(
            f"{view.n_nodes} nodes exceeds the Girvan-Newman limit of "
            f"{max_nodes}; use louvain instead"
        )
    if view.total_weight <= 0:
        raise UndefinedModularityError("girvan-newman undefined: graph has no edges")
    adj_sets: dict[int, set[int]] = {i: set() for i in range(view.n_nodes)}
    for i, neighbors in enumerate(view.adj):
        for j, _ in neighbors:
            adj_sets[i].add(j)
    best_cover = _components_cover(view, adj_sets)
    best_q = modularity(view, best_cover)
    bw: dict[tuple[int, int], float] = {}
    comps = _components(adj_sets, range(view.n_nodes))
    for comp in comps:
        bw.update(_edge_betweenness(adj_sets, comp))
    while bw:
        target = None
        target_bw = -1.0
        for edge in bw:
            value = bw[edge]
            if value > target_bw + _EPS or (
                abs(value - target_bw) <= _EPS and (target is None or edge < target)
            ):
                target = edge
                target_bw = value
        assert target is not None
        u, v = target
        adj_sets[u].discard(v)
        adj_sets[v].discard(u)
        # Only the component that contained (u, v) changes.
        affected = _components(adj_sets, [u, v])
        stale = set()
        for comp in affected:
            stale.update(comp)
        for edge in [e for e in bw if e[0] in stale or e[1] in stale]:
            del bw[edge]
        for comp in affected:
            bw.update(_edge_betweenness(adj_sets, comp))
        cover = _components_cover(view, adj_sets)
        q = modularity(view, cover)
        if q > best_q + _EPS:
            best_cover = cover
            best_q = q
    return best_cover


def _set_partitions(n: int) -> Iterator[list[int]]:
    """All restricted-growth strings of length n (set partitions)."""
    a = [0] * n

    def rec(i: int, mx: int) -> Iterator[list[int]]:
        if i == n:
            yield a
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, v if v > mx else mx)

    if n == 0:
        return
    yield from rec(1, 0)


def brute_force_best(view: ModularityView) -> tuple[Cover, float]:
    """Exhaustive modularity maximizer; only viable on tiny graphs."""
    n = view.n_nodes
    if n > BRUTE_FORCE_MAX_NODES:
        raise GraphSizeError(
            f"{n} nodes exceeds the exhaustive-search limit of "
            f"{BRUTE_FORCE_MAX_NODES}"
        )
    if view.total_weight <= 0:
        raise UndefinedModularityError("modularity undefined: graph has no edges")
    best_q = float("-inf")
    best: list[int] = [0] * n
    for comm in _set_partitions(n):
        q = _modularity(view, comm)
        if q > best_q + _EPS:
            best_q = q
            best = list(comm)
    return _cover(view, best), best_q


def write_cover(cover: Cover, out: IO[str] | str | Path) -> None:
    """Write the `node,timestep,community` CSV, rows in the cover's order."""
    rows = ((tn.node, tn.t, cid) for tn, cid in cover.assignment.items())
    _write_table(out, COVER_HEADER, rows)


def read_cover(source: IO[str] | str | Path) -> tuple[Cover, bool]:
    """Read a cover CSV; returns (cover, had_id_gaps).

    Non-contiguous community ids are re-densified; the flag reports
    whether that normalization changed anything.
    """
    raw: dict[TemporalNode, int] = {}

    def add_row(row: list[str]) -> None:
        tn = TemporalNode(row[0], int(row[1]))
        if tn in raw:
            raise ValueError(f"duplicate cover row for {tn}")
        raw[tn] = int(row[2])

    _read_table(source, "cover", COVER_HEADER, add_row)
    ids = sorted(set(raw.values()))
    had_gaps = ids != list(range(len(ids)))
    remap = {cid: dense for dense, cid in enumerate(ids)}
    assignment = {tn: remap[cid] for tn, cid in raw.items()}
    return Cover(assignment=assignment, n_communities=len(ids)), had_gaps
