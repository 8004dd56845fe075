from __future__ import annotations

import csv
import dataclasses
import io
import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dyncomm import (
    Cover,
    CoverMismatchError,
    GeneratorConfig,
    GraphSizeError,
    ModularityView,
    TemporalNode,
    UndefinedModularityError,
    brute_force_best,
    build_temporal_graph,
    dissimilarity,
    generate,
    girvan_newman,
    louvain,
    modularity,
    read_cover,
    write_cover,
)

from conftest import barbell_graph, random_raw_links, triangle_sides, two_pairs_graph


def view_of(raw_links, isolated=()):
    return ModularityView.from_temporal_graph(
        build_temporal_graph(raw_links, isolated_nodes=isolated)
    )


def single_edge_view():
    return view_of([(("a", 1), ("b", 1))])


def cover_over(view, groups):
    assignment = {}
    for cid, group in enumerate(groups):
        for tn in group:
            assignment[tn] = cid
    return Cover(assignment=assignment, n_communities=len(groups))


def test_modularity_single_edge_fixtures():
    view = single_edge_view()
    together = cover_over(view, [view.nodes])
    apart = cover_over(view, [[view.nodes[0]], [view.nodes[1]]])
    assert modularity(view, together) == pytest.approx(0.0, abs=1e-12)
    assert modularity(view, apart) == pytest.approx(-0.5, abs=1e-12)


def test_modularity_barbell_triangles():
    view = ModularityView.from_temporal_graph(barbell_graph())
    left, right = triangle_sides()
    q = modularity(view, cover_over(view, [left, right]))
    assert q == pytest.approx(5 / 14, abs=1e-12)


def test_modularity_single_community_is_zero():
    rng = random.Random(11)
    for _ in range(10):
        raw, _ = random_raw_links(rng, rng.randint(2, 8), rng.randint(1, 15))
        view = view_of(raw)
        q = modularity(view, cover_over(view, [view.nodes]))
        assert q == pytest.approx(0.0, abs=1e-12)


def test_view_degrees_sum_to_twice_total_weight():
    # self-loops must count twice toward their node's degree
    rng = random.Random(12)
    for _ in range(10):
        raw, _ = random_raw_links(rng, rng.randint(2, 8), rng.randint(1, 15))
        view = view_of(raw)
        assert sum(view.degree) == pytest.approx(2 * view.total_weight, abs=1e-9)
        assert view.total_weight == len(raw)


def test_modularity_invariant_under_community_relabeling():
    view = ModularityView.from_temporal_graph(barbell_graph())
    left, right = triangle_sides()
    assert modularity(view, cover_over(view, [left, right])) == pytest.approx(
        modularity(view, cover_over(view, [right, left])), abs=1e-15
    )


def test_modularity_errors():
    with pytest.raises(UndefinedModularityError):
        empty = ModularityView.from_temporal_graph(build_temporal_graph([]))
        modularity(empty, Cover(assignment={}, n_communities=0))
    view = single_edge_view()
    with pytest.raises(CoverMismatchError):
        modularity(view, cover_over(view, [[view.nodes[0]]]))


def test_louvain_finds_the_two_pairs():
    view = ModularityView.from_temporal_graph(two_pairs_graph())
    cover = louvain(view, seed=0)
    assert cover.n_communities == 2
    assert cover.assignment[TemporalNode("a", 1)] == cover.assignment[TemporalNode("b", 1)]
    assert cover.assignment[TemporalNode("c", 1)] == cover.assignment[TemporalNode("d", 1)]
    assert modularity(view, cover) == pytest.approx(0.5, abs=1e-12)
    _, best_q = brute_force_best(view)
    assert best_q == pytest.approx(0.5, abs=1e-12)


def test_louvain_recovers_planted_communities_at_high_density():
    cfg = GeneratorConfig(n_c=4, m=5, t_max=20, w=10, d=4, p=1.0, seed=99)
    links, assignment = generate(cfg)
    tg = build_temporal_graph(links)
    view = ModularityView.from_temporal_graph(tg)
    cover = louvain(view, seed=99)
    assert cover.n_communities == 4
    planted = {tn: assignment[tn.node] for tn in tg.nodes}
    assert dissimilarity(cover.assignment, planted) == 0.0


_louvain_cells = st.tuples(st.sampled_from("abcdef"), st.integers(0, 3))
_louvain_graphs = st.tuples(
    st.lists(st.tuples(_louvain_cells, _louvain_cells), min_size=1, max_size=40),
    st.lists(_louvain_cells, max_size=4),
)
_louvain_seeds = st.integers(0, 2**32 - 1)


def disconnected_communities(view, cover):
    """Ids of the communities whose nodes induce a disconnected subgraph of ``view``."""
    comm = cover.membership(view.nodes)
    members = {}
    for i, cid in enumerate(comm):
        members.setdefault(cid, []).append(i)
    broken = []
    for cid, nodes in members.items():
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            for j, _ in view.adj[stack.pop()]:
                if comm[j] == cid and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) < len(nodes):
            broken.append(cid)
    return broken


@settings(max_examples=200)
@given(_louvain_graphs, _louvain_seeds)
def test_louvain_deterministic_given_seed(graph, seed):
    # The same cover, in the same order, on one view twice and on a view
    # rebuilt from the same links.
    view = view_of(*graph)
    cover = list(louvain(view, seed).assignment.items())
    assert list(louvain(view, seed).assignment.items()) == cover
    assert list(louvain(view_of(*graph), seed).assignment.items()) == cover


@settings(max_examples=200)
@given(_louvain_graphs, _louvain_seeds)
def test_louvain_never_below_singletons(graph, seed):
    # Repeated links add weight, (x, x) links are self-loops and the
    # declared cells no link touches are isolated nodes.
    view = view_of(*graph)
    singletons = cover_over(view, [[tn] for tn in view.nodes])
    assert modularity(view, louvain(view, seed)) >= modularity(view, singletons) - 1e-12


@settings(max_examples=200)
@given(_louvain_graphs, _louvain_seeds)
def test_louvain_communities_are_connected_on_random_graphs(graph, seed):
    view = view_of(*graph)
    assert disconnected_communities(view, louvain(view, seed)) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_louvain_communities_are_connected_on_planted_graphs(seed):
    # The planted graphs of the detect_planted benchmark workload, with its Louvain seed.
    # Louvain does not guarantee connected communities (seed 10 of this config gives
    # one that is not), so these seeds pin the behaviour rather than prove it.
    cfg = GeneratorConfig(n_c=20, m=25, t_max=10, w=10, d=3, p=0.85, seed=seed)
    view = ModularityView.from_temporal_graph(build_temporal_graph(generate(cfg)[0]))
    cover = louvain(view, seed=42)
    assert cover.n_communities >= cfg.n_c
    assert disconnected_communities(view, cover) == []


def test_louvain_assigns_isolated_nodes_their_own_community():
    view = view_of([(("a", 1), ("b", 1))], isolated=[("z", 9)])
    cover = louvain(view, seed=1)
    lonely = cover.assignment[TemporalNode("z", 9)]
    assert [cid for cid in cover.assignment.values()].count(lonely) == 1


def test_louvain_rejects_edgeless_graph():
    view = ModularityView.from_temporal_graph(
        build_temporal_graph([], isolated_nodes=[("a", 1), ("b", 2)])
    )
    with pytest.raises(UndefinedModularityError):
        louvain(view, seed=0)


def test_girvan_newman_keeps_disconnected_pairs():
    view = ModularityView.from_temporal_graph(two_pairs_graph())
    cover = girvan_newman(view)
    assert cover.n_communities == 2
    assert modularity(view, cover) == pytest.approx(0.5, abs=1e-12)


def exhaustive_edge_betweenness(adj):
    """Independent betweenness oracle: BFS path counting per source."""
    bw = {}
    for u in adj:
        for v in adj[u]:
            if u < v:
                bw[(u, v)] = 0.0
    for s in adj:
        dist = {s: 0}
        sigma = {s: 1.0}
        preds = {s: []}
        order = []
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
                credit = sigma[v] / sigma[w] * (1 + delta[w])
                bw[(v, w) if v < w else (w, v)] += credit
                delta[v] += credit
    return bw


def test_girvan_newman_splits_barbell_at_the_bridge():
    tg = barbell_graph()
    view = ModularityView.from_temporal_graph(tg)
    adj = {tn: set() for tn in tg.nodes}
    for link in tg.links:
        adj[link.source].add(link.target)
        adj[link.target].add(link.source)
    bw = exhaustive_edge_betweenness(adj)
    bridge = (TemporalNode("a1", 0), TemporalNode("b1", 0))
    assert max(bw, key=bw.get) == bridge
    assert sorted(bw.values())[-1] > sorted(bw.values())[-2]

    cover = girvan_newman(view)
    left, right = triangle_sides()
    assert cover.n_communities == 2
    assert {cover.assignment[tn] for tn in left} != {cover.assignment[tn] for tn in right}
    assert modularity(view, cover) == pytest.approx(5 / 14, abs=1e-12)


def test_girvan_newman_tracks_louvain_on_synthetic_data():
    # Cross-algorithm robustness at a size Girvan-Newman can afford.
    for seed in (0, 4):
        cfg = GeneratorConfig(n_c=3, m=3, t_max=6, w=4, d=3, p=0.85, seed=seed)
        links, assignment = generate(cfg)
        tg = build_temporal_graph(links)
        view = ModularityView.from_temporal_graph(tg)
        planted = {tn: assignment[tn.node] for tn in tg.nodes}
        d_louvain = dissimilarity(louvain(view, seed=seed).assignment, planted)
        d_gn = dissimilarity(girvan_newman(view).assignment, planted)
        assert d_gn <= 2 * d_louvain


def test_girvan_newman_size_guard():
    view = ModularityView.from_temporal_graph(two_pairs_graph())
    with pytest.raises(GraphSizeError, match="louvain"):
        girvan_newman(view, max_nodes=3)


def test_brute_force_single_edge():
    view = single_edge_view()
    cover, q = brute_force_best(view)
    assert cover.n_communities == 1
    assert q == pytest.approx(0.0, abs=1e-12)


def test_brute_force_barbell_maximum():
    view = ModularityView.from_temporal_graph(barbell_graph())
    cover, q = brute_force_best(view)
    left, right = triangle_sides()
    assert q == pytest.approx(5 / 14, abs=1e-12)
    assert len({cover.assignment[tn] for tn in left}) == 1
    assert len({cover.assignment[tn] for tn in right}) == 1
    assert cover.n_communities == 2


def test_brute_force_path_of_three_edges_and_louvain_match():
    view = view_of([(("a", 0), ("b", 0)), (("b", 0), ("c", 0)), (("c", 0), ("d", 0))])
    cover, q = brute_force_best(view)
    assert q == pytest.approx(1 / 6, abs=1e-12)
    assert cover.n_communities == 2
    assert modularity(view, louvain(view, seed=0)) == pytest.approx(q, abs=1e-12)


def test_brute_force_size_guard():
    rng = random.Random(1)
    raw, cells = random_raw_links(rng, 13, 13)
    view = view_of(raw, isolated=cells)
    if view.n_nodes > 12:
        with pytest.raises(GraphSizeError):
            brute_force_best(view)


def test_louvain_close_to_exhaustive_optimum():
    rng = random.Random(52)
    checked = 0
    for trial in range(20):
        raw, cells = random_raw_links(rng, rng.randint(4, 8), rng.randint(3, 16))
        view = view_of(raw, isolated=cells)
        if view.total_weight <= 0 or view.n_nodes > 10:
            continue
        checked += 1
        best_cover, best_q = brute_force_best(view)
        assert modularity(view, best_cover) == best_q
        q = modularity(view, louvain(view, seed=trial))
        assert q <= best_q + 1e-9
        assert q >= best_q - 0.05
    assert checked >= 15


_cells = st.tuples(st.sampled_from("abc"), st.integers(0, 2))


@settings(max_examples=300)
@given(
    st.lists(st.tuples(_cells, _cells), min_size=1, max_size=25),
    st.lists(_cells, max_size=4),
    st.lists(st.integers(0, 3), min_size=9, max_size=9),
)
def test_modularity_matches_the_dense_formula(raw, isolated, labels):
    # Repeated links add weight, (x, x) links are self-loops and the
    # declared cells no link touches are isolated nodes.
    tg = build_temporal_graph(raw, isolated_nodes=isolated)
    view = ModularityView.from_temporal_graph(tg)
    cover = Cover.from_assignment(dict(zip(tg.nodes, labels)))
    n = len(tg.nodes)
    index = {tn: i for i, tn in enumerate(tg.nodes)}
    a = [[0] * n for _ in range(n)]
    for src, dst, w in tg.links:
        a[index[src]][index[dst]] += w
        a[index[dst]][index[src]] += w
    k = [sum(row) for row in a]
    two_m = sum(k)
    c = [cover.assignment[tn] for tn in tg.nodes]
    dense = sum(
        a[i][j] - k[i] * k[j] / two_m for i in range(n) for j in range(n) if c[i] == c[j]
    ) / two_m
    assert modularity(view, cover) == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_louvain_ignores_adjacency_order(monkeypatch, seed):
    import dyncomm.detection as detection

    folds = []
    fold_by = detection._fold_by
    monkeypatch.setattr(detection, "_fold_by", lambda *args: folds.append(1) or fold_by(*args))
    cfg = GeneratorConfig(n_c=4, m=6, t_max=12, w=10, d=3, p=0.8, seed=seed)
    view = ModularityView.from_temporal_graph(build_temporal_graph(generate(cfg)[0]))
    cover = louvain(view, seed=seed)
    assert len(folds) >= 2  # two levels aggregated, each from the level before
    reversed_view = dataclasses.replace(view, adj=tuple(row[::-1] for row in view.adj))
    assert louvain(reversed_view, seed=seed).assignment == cover.assignment


def test_cover_requires_contiguous_ids():
    with pytest.raises(ValueError):
        Cover(assignment={TemporalNode("a", 1): 2}, n_communities=1)
    dense = Cover.from_assignment({TemporalNode("a", 1): 7, TemporalNode("b", 1): 9})
    assert dense.n_communities == 2
    assert dense.assignment[TemporalNode("a", 1)] == 0


_tn_labels = st.text(alphabet='ab, "x', min_size=1, max_size=3)


@settings(max_examples=200)
@given(st.dictionaries(st.builds(TemporalNode, _tn_labels, st.integers(0, 50)), st.integers(0, 9)))
def test_cover_csv_round_trip_and_gap_densification(raw):
    # Ids from 0..9 in any combination: gaps, or exactly 0..k-1.
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["node", "timestep", "community"])
    writer.writerows([tn.node, tn.t, cid] for tn, cid in raw.items())
    parsed, had_gaps = read_cover(io.StringIO(buffer.getvalue()))
    ids = sorted(set(raw.values()))
    assert had_gaps == (ids != list(range(len(ids))))
    assert parsed.n_communities == len(ids)
    assert list(parsed.assignment) == list(raw)
    assert [parsed.assignment[node] for node in raw] == [ids.index(cid) for cid in raw.values()]
    written = io.StringIO()
    write_cover(parsed, written)
    again, had_gaps = read_cover(io.StringIO(written.getvalue()))
    assert not had_gaps
    assert list(again.assignment.items()) == list(parsed.assignment.items())
