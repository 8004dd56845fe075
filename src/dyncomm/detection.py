"""Community detection on the temporal graph.

Clustering runs on an undirected view of the temporal graph: directed
weights between a node pair are summed and self-loops kept.  Louvain is
the workhorse; Girvan-Newman is available for small graphs and exhaustive
partition search for tiny ones (test oracle).
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from itertools import accumulate
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .temporal_graph import (
    TemporalGraph,
    TemporalNode,
    _decimal,
    _groups,
    _read_table,
    _sum_in_order,
    _write_table,
)

_EPS = 1e-12

GIRVAN_NEWMAN_MAX_NODES = 500
BRUTE_FORCE_MAX_NODES = 12

COVER_HEADER = ["node", "timestep", "community"]


class UndefinedModularityError(ValueError):
    """Modularity is undefined on a graph without edges."""


class GraphSizeError(ValueError):
    """Graph too large for the requested (superlinear-cost) algorithm."""


class CoverMismatchError(ValueError):
    """Cover does not hold exactly the graph's temporal nodes."""


class _CoverFields(NamedTuple):
    assignment: Mapping[TemporalNode, int]
    n_communities: int


class Cover(_CoverFields):
    """Total assignment of temporal nodes to community ids 0..k-1."""

    __slots__ = ()

    def __new__(cls, assignment: Mapping[TemporalNode, int], n_communities: int) -> "Cover":
        # `bool` is an `int`, and False == 0, so the range check alone would take it.
        if not set(map(type, assignment.values())) <= {int}:
            raise ValueError("community ids must be ints")
        if set(assignment.values()) != set(range(n_communities)):
            raise ValueError("community ids must be contiguous from 0")
        return super().__new__(cls, assignment, n_communities)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Cover":
        return cls(*iterable)  # `_replace` validates too

    @classmethod
    def from_assignment(cls, assignment: Mapping[TemporalNode, int]) -> "Cover":
        """Densify arbitrary ids to 0..k-1 by first appearance order."""
        dense = _densify(list(assignment.values()))
        return cls(assignment=dict(zip(assignment, dense)), n_communities=len(set(dense)))

    def membership(self, nodes: Sequence[TemporalNode]) -> list[int]:
        """Community id of each of the distinct ``nodes``, which the cover must hold exactly."""
        try:
            cids = [self.assignment[tn] for tn in nodes]
        except KeyError as exc:
            node, t = exc.args[0]
        else:
            if len(cids) == len(self.assignment):
                return cids
            node, t = min(self.assignment.keys() - set(nodes))
        raise CoverMismatchError(f"cover and link data disagree on temporal node ({node},{t})")

    def communities(self) -> list[list[TemporalNode]]:
        """The temporal nodes of each community, indexed by community id."""
        groups: list[list[TemporalNode]] = [[] for _ in range(self.n_communities)]
        for tn, cid in self.assignment.items():
            groups[cid].append(tn)
        return groups


class ModularityView(NamedTuple):
    """Undirected weighted view of a temporal graph.

    The adjacency is held flat, as compressed sparse rows: row ``i`` is
    ``targets[offsets[i]:offsets[i + 1]]``, sorted by target, with the
    weights at the same places.  Each unordered pair sits at both its ends
    with its symmetrized weight.  Self-loops live in ``self_weight``.
    Weighted degree counts a self-loop twice, so degrees sum to
    2 * total_weight.
    """

    nodes: tuple[TemporalNode, ...]
    offsets: array
    targets: array
    weights: array
    self_weight: tuple[float, ...]
    degree: tuple[float, ...]
    total_weight: float

    @classmethod
    def from_temporal_graph(cls, tg: TemporalGraph) -> "ModularityView":
        """The view of ``tg``'s links, each folded in at both its ends.

        The first pass counts each row's half-edges and the second places
        them; a link with equal ends adds to its node's self-loop instead.
        Then each row is sorted by target and the weights of one unordered
        pair are added up, whichever way round they came, compacting the
        arrays in place.
        """
        src, dst = tg.sources, tg.targets
        n = len(tg.nodes)
        count = [0] * n
        for i, j in zip(src, dst):
            if i != j:
                count[i] += 1
                count[j] += 1
        offsets = array("q", accumulate(count, initial=0))
        del count
        free = offsets.tolist()  # the next free slot of each row
        targets = array("i", [0]) * offsets[-1]
        weights = array("d", [0.0]) * offsets[-1]
        self_w = [0.0] * n
        for i, j, w in zip(src, dst, tg.weights):
            if i == j:
                self_w[i] += w
            else:
                at = free[i]
                targets[at] = j
                weights[at] = w
                free[i] = at + 1
                at = free[j]
                targets[at] = i
                weights[at] = w
                free[j] = at + 1
        del free
        degree: list[float] = []
        append = degree.append
        end = 0
        lo = 0
        for i, (s, hi) in enumerate(zip(self_w, offsets[1:])):
            offsets[i] = end
            d = 2.0 * s
            last = -1
            for j, w in sorted(zip(targets[lo:hi], weights[lo:hi])):
                d += w
                if j == last:
                    weights[end - 1] += w
                else:
                    targets[end] = j
                    weights[end] = w
                    end += 1
                    last = j
            append(d)
            lo = hi
        offsets[n] = end
        del targets[end:], weights[end:]
        return cls(
            nodes=tg.nodes,
            offsets=offsets,
            targets=targets,
            weights=weights,
            self_weight=tuple(self_w),
            degree=tuple(degree),
            total_weight=float(tg.total_weight),
        )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def adj(self) -> Iterator[tuple[tuple[int, float], ...]]:
        """Each row's ``(neighbor, weight)`` pairs as a tuple, in row order."""
        offsets, targets, weights = self.offsets, self.targets, self.weights
        return (tuple(zip(targets[lo:hi], weights[lo:hi])) for lo, hi in zip(offsets, offsets[1:]))

    def __repr__(self) -> str:
        return f"ModularityView(nodes={self.nodes!r}, total_weight={self.total_weight!r})"


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
    *_, internal, tot = _fold_by(view.offsets, view.targets, view.weights, view.self_weight, comm)
    two_m = 2.0 * view.total_weight
    return _sum_in_order(2.0 * w / two_m - (d / two_m) ** 2 for w, d in zip(internal, tot))


def _fold_by(
    offsets: array, targets: array, weights: array, self_w: Sequence[float], comm: list[int]
) -> tuple[array, array, array, list[float], list[float]]:
    """The rows, self-loops and degrees of a level, each node relabelled by ``comm``.

    `_groups` groups the nodes by community.  The rows of one community's
    nodes add their weight to each community they reach in one flat list,
    which is zeroed again at the communities they touched, as in
    `_one_level`.  A pair inside the community is met from both its ends,
    so half its community's sum adds to the self-loop; the other sums make
    the community's row, sorted by target.  The weights are sums of whole
    multiplicities, so the halving and the order of the sums move no bit.
    """
    k = max(comm) + 1
    loops = [0.0] * k
    for c, s in zip(comm, self_w):
        loops[c] += s
    members, ends = _groups(comm, k)
    row_ends, row_targets, row_weights = array("q", [0]), array("i"), array("d")
    degree: list[float] = []
    w_to = [0.0] * k
    start = 0
    for c, end in enumerate(ends):
        near = []
        for i in members[start:end]:
            lo = offsets[i]
            hi = offsets[i + 1]
            for j, w in zip(targets[lo:hi], weights[lo:hi]):
                cj = comm[j]
                a = w_to[cj]
                if not a:  # weights are positive, as in `_one_level`
                    near.append(cj)
                w_to[cj] = a + w
        loops[c] += w_to[c] / 2
        w_to[c] = 0.0
        d = 2.0 * loops[c]
        near.sort()
        for cj in near:
            if cj != c:
                w = w_to[cj]
                row_targets.append(cj)
                row_weights.append(w)
                d += w
                w_to[cj] = 0.0
        row_ends.append(len(row_targets))
        degree.append(d)
        start = end
    return row_ends, row_targets, row_weights, loops, degree


def _one_level(
    offsets: array,
    targets: array,
    weights: array,
    degree: Sequence[float],
    two_m: float,
    rng: random.Random,
) -> list[int]:
    """Local-move phase: greedy node relocation until no move improves Q.

    Nodes come off a FIFO queue that starts as a seeded shuffle.  A node that
    moves queues its unqueued neighbours outside its new community, in index
    order.  A level without a move returns the identity membership.  The
    popped node's weight to each community adds up in one flat list, which
    is zeroed again at the communities it touched.
    """
    n = len(degree)
    eps = _EPS
    comm = list(range(n))
    tot = list(degree)
    w_to = [0.0] * n  # weight from the popped node to each community, reset after each pop
    queue = deque(rng.sample(comm, n))  # the draws of `range(n)`, sharing comm's ints
    queued = [True] * n
    while queue:
        i = queue.popleft()
        queued[i] = False
        ci = comm[i]
        ki = degree[i]
        lo = offsets[i]
        hi = offsets[i + 1]
        row = targets[lo:hi]
        near = []
        for j, w in zip(row, weights[lo:hi]):
            cj = comm[j]
            a = w_to[cj]
            if not a:  # weights are positive, so a community's first link leaves it non-zero
                near.append(cj)
            w_to[cj] = a + w
        tot[ci] -= ki
        # Gains relative to i sitting alone; candidates are the
        # neighboring communities plus the one it came from.  Ties go
        # to the smallest community id, and staying put wins ties.
        best_c = ci
        best_gain = w_to[ci] - tot[ci] * ki / two_m
        near.sort()
        for c in near:
            gain = w_to[c] - tot[c] * ki / two_m
            if gain > best_gain + eps:
                best_c = c
                best_gain = gain
            w_to[c] = 0.0
        if best_gain < -eps:
            # Every candidate hurts: detach into a fresh community
            # (gain 0), which strictly improves Q over staying.
            best_c = len(tot)
            tot.append(0.0)
            w_to.append(0.0)
        comm[i] = best_c
        tot[best_c] += ki
        if best_c != ci:
            for j in row:
                if not queued[j] and comm[j] != best_c:
                    queued[j] = True
                    queue.append(j)
    return comm


def _densify(comm: list[int]) -> list[int]:
    remap: dict[int, int] = {}
    return [remap.setdefault(c, len(remap)) for c in comm]


def louvain(view: ModularityView, seed: int = 0) -> Cover:
    """Two-phase greedy modularity optimization.

    Each level visits nodes from a work queue seeded with a shuffled order
    (see `_one_level`), so the result is a deterministic function of
    (view, seed).  Never returns a cover worse than all-singletons (the
    starting point).  Every community is connected in the view: as in
    Traag, Waltman & van Eck (2019), a community the levels leave
    disconnected is split into its connected components, which never
    lowers Q.  Components are numbered by their smallest node index.
    """
    if view.total_weight <= 0:
        raise UndefinedModularityError("louvain undefined: graph has no edges")
    rng = random.Random(seed)
    offsets, targets, weights = view.offsets, view.targets, view.weights
    self_w, degree = view.self_weight, view.degree
    two_m = 2.0 * view.total_weight
    assign = range(view.n_nodes)
    while True:
        dense = _densify(_one_level(offsets, targets, weights, degree, two_m, rng))
        assign = [dense[a] for a in assign]
        if len(set(dense)) == len(dense):
            break
        offsets, targets, weights, self_w, degree = _fold_by(offsets, targets, weights, self_w, dense)

    def inside(i: int) -> list[int]:
        a = assign[i]
        return [j for j in view.targets[view.offsets[i] : view.offsets[i + 1]] if assign[j] == a]

    return _cover(view, _split(view.n_nodes, inside))


def _cover(view: ModularityView, comm: list[int]) -> Cover:
    """The cover with ``view.nodes[i]`` in community ``comm[i]``, whose ids the
    caller numbers 0..k-1 in order of first appearance.
    """
    return Cover(dict(zip(view.nodes, comm)), len(set(comm)))


def _split(n: int, neighbors: Callable[[int], Iterable[int]]) -> list[int]:
    """The connected-component id of nodes ``0..n-1``, components numbered by their smallest node."""
    comp = [-1] * n
    n_comps = 0
    for start in range(n):
        if comp[start] < 0:
            comp[start] = n_comps
            stack = [start]
            while stack:
                for v in neighbors(stack.pop()):
                    if comp[v] < 0:
                        comp[v] = n_comps
                        stack.append(v)
            n_comps += 1
    return comp


def _edge_betweenness(
    adj: Sequence[set[int]], nodes: Sequence[int]
) -> dict[tuple[int, int], float]:
    """Brandes accumulation from the given sources, unweighted shortest paths.

    A source reaches only its own component, so ``nodes`` may span several.
    """
    bw: dict[tuple[int, int], float] = {}
    for u in nodes:
        for v in adj[u]:
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
            for v in adj[u]:
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


def girvan_newman(view: ModularityView) -> Cover:
    """Iterative removal of the highest-betweenness edge.

    Returns the connected-components cover with maximal modularity over the
    whole removal sequence (the untouched graph included).  Betweenness is
    recomputed only inside the component that lost an edge.  Cubic in the
    worst case, hence the node-count guard.
    """
    if view.n_nodes > GIRVAN_NEWMAN_MAX_NODES:
        raise GraphSizeError(
            f"{view.n_nodes} nodes exceeds the Girvan-Newman limit of "
            f"{GIRVAN_NEWMAN_MAX_NODES}; use louvain instead"
        )
    if view.total_weight <= 0:
        raise UndefinedModularityError("girvan-newman undefined: graph has no edges")
    offsets, targets = view.offsets, view.targets
    adj = [set(targets[offsets[i] : offsets[i + 1]]) for i in range(view.n_nodes)]
    best = _split(view.n_nodes, adj.__getitem__)
    best_q = _modularity(view, best)
    bw = _edge_betweenness(adj, range(view.n_nodes))
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
        adj[u].discard(v)
        adj[v].discard(u)
        # Only the component that contained (u, v) changes.
        comm = _split(view.n_nodes, adj.__getitem__)
        stale = {comm[u], comm[v]}
        for edge in [e for e in bw if comm[e[0]] in stale]:
            del bw[edge]
        bw.update(_edge_betweenness(adj, [i for i, c in enumerate(comm) if c in stale]))
        q = _modularity(view, comm)
        if q > best_q + _EPS:
            best = comm
            best_q = q
    return _cover(view, best)


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
        tn = TemporalNode(row[0], _decimal(row[1]))
        if tn in raw:
            raise ValueError(f"duplicate cover row for ({tn.node},{tn.t})")
        raw[tn] = _decimal(row[2])

    _read_table(source, "cover", COVER_HEADER, add_row)
    ids = sorted(set(raw.values()))
    had_gaps = ids != list(range(len(ids)))
    remap = {cid: dense for dense, cid in enumerate(ids)}
    assignment = {tn: remap[cid] for tn, cid in raw.items()}
    return Cover(assignment=assignment, n_communities=len(ids)), had_gaps
