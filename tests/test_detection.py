from __future__ import annotations

import csv
import io
import random
import re
from array import array
from collections import deque
from itertools import combinations
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from dyncomm import (
    Cover,
    CoverMismatchError,
    GeneratorConfig,
    GraphSizeError,
    ModularityView,
    TemporalGraph,
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
from dyncomm.detection import _densify, _fold_by, _one_level, _set_partitions

from conftest import barbell_graph, cover_of, random_raw_links, triangle_sides, two_pairs_graph


def view_of(raw_links, isolated=()):
    return ModularityView.from_temporal_graph(
        build_temporal_graph(raw_links, isolated_nodes=isolated)
    )


def single_edge_view():
    return view_of([(("a", 1), ("b", 1))])


def test_modularity_single_edge_fixtures():
    view = single_edge_view()
    together = cover_of([view.nodes])
    apart = cover_of([[view.nodes[0]], [view.nodes[1]]])
    assert modularity(view, together) == pytest.approx(0.0, abs=1e-12)
    assert modularity(view, apart) == pytest.approx(-0.5, abs=1e-12)


def test_modularity_barbell_triangles():
    view = ModularityView.from_temporal_graph(barbell_graph())
    left, right = triangle_sides()
    q = modularity(view, cover_of([left, right]))
    assert q == pytest.approx(5 / 14, abs=1e-12)


def test_modularity_single_community_is_zero():
    rng = random.Random(11)
    for _ in range(10):
        raw, _ = random_raw_links(rng, rng.randint(2, 8), rng.randint(1, 15))
        view = view_of(raw)
        q = modularity(view, cover_of([view.nodes]))
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
    assert modularity(view, cover_of([left, right])) == pytest.approx(
        modularity(view, cover_of([right, left])), abs=1e-15
    )


def test_modularity_errors():
    with pytest.raises(UndefinedModularityError):
        empty = ModularityView.from_temporal_graph(build_temporal_graph([]))
        modularity(empty, Cover(assignment={}, n_communities=0))
    view = single_edge_view()
    with pytest.raises(CoverMismatchError):
        modularity(view, cover_of([[view.nodes[0]]]))


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


def test_louvain_seed_defaults_to_zero():
    cfg = GeneratorConfig(n_c=4, m=5, t_max=20, w=10, d=3, p=0.85, seed=99)
    view = ModularityView.from_temporal_graph(build_temporal_graph(generate(cfg)[0]))
    assert louvain(view) == louvain(view, 0)
    assert louvain(view, 1) != louvain(view, 0)  # the seed moves this graph's cover


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
            i = stack.pop()
            for j in view.targets[view.offsets[i] : view.offsets[i + 1]]:
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
    singletons = cover_of([[tn] for tn in view.nodes])
    assert modularity(view, louvain(view, seed)) >= modularity(view, singletons) - 1e-12


@settings(max_examples=200)
@given(_louvain_graphs, _louvain_seeds)
def test_louvain_communities_are_connected_on_random_graphs(graph, seed):
    view = view_of(*graph)
    assert disconnected_communities(view, louvain(view, seed)) == []


@pytest.mark.parametrize("seed", [1, 2, 3, 10, 18])
def test_louvain_communities_are_connected_on_planted_graphs(seed):
    # The planted graphs of the detect_planted benchmark workload, with its Louvain seed.
    # On seeds 10 and 18 the levels leave one community disconnected, which the final
    # split into connected components must undo.
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
    with pytest.raises(UndefinedModularityError):  # the exhaustive oracle too
        brute_force_best(view)


def test_view_repr_shows_its_nodes_and_weight():
    view = single_edge_view()
    assert repr(view) == f"ModularityView(nodes={view.nodes!r}, total_weight=1.0)"


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
    for src, dst, _ in tg.links:
        adj[src].add(dst)
        adj[dst].add(src)
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
    path = build_temporal_graph([((f"n{i}", 0), (f"n{i + 1}", 0)) for i in range(500)])
    view = ModularityView.from_temporal_graph(path)
    message = "501 nodes exceeds the Girvan-Newman limit of 500; use louvain"
    with pytest.raises(GraphSizeError, match=re.escape(message)):
        girvan_newman(view)


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


def test_covers_number_communities_in_order_of_first_appearance():
    # `_cover` keeps the ids it is given, so each detector must hand it dense,
    # first-appearance ids.
    views = [ModularityView.from_temporal_graph(tg) for tg in (barbell_graph(), two_pairs_graph())]
    views.append(view_of([(("a", 0), ("b", 0)), (("b", 0), ("c", 0)), (("c", 0), ("d", 0))]))
    views.append(view_of([(("a", 1), ("b", 1)), (("c", 1), ("c", 0))], isolated=[("e", 2)]))
    rng = random.Random(53)
    while len(views) < 8:
        raw, cells = random_raw_links(rng, rng.randint(4, 8), rng.randint(3, 12))
        view = view_of(raw, isolated=cells)
        if view.total_weight > 0 and view.n_nodes <= 9:
            views.append(view)
    for view in views:
        covers = [louvain(view, seed) for seed in range(3)]
        covers += [girvan_newman(view), brute_force_best(view)[0]]
        for cover in covers:
            m = cover.membership(view.nodes)
            assert _densify(m) == m


def test_set_partitions_are_the_bell_number_of_restricted_growth_strings():
    for n, bell in enumerate([1, 2, 5, 15, 52, 203, 877, 4140], start=1):
        strings = [tuple(a) for a in _set_partitions(n)]
        assert len(strings) == len(set(strings)) == bell
        for a in strings:  # each id is at most one more than the largest before it
            assert all(a[i] <= max(a[:i], default=-1) + 1 for i in range(n))


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


def reference_fold(k, triples):
    """The pair-dict fold that an earlier `detection._fold` replaced, kept as its oracle."""
    self_w = [0.0] * k
    pair = {}
    for i, j, w in triples:
        if i == j:
            self_w[i] += w
        else:
            key = (i, j) if i < j else (j, i)
            pair[key] = pair.get(key, 0.0) + w
    adj = [[] for _ in range(k)]
    degree = [2.0 * w for w in self_w]
    for (i, j), w in pair.items():
        adj[i].append((j, w))
        adj[j].append((i, w))
        degree[i] += w
        degree[j] += w
    return adj, self_w, degree


def tuple_row_fold(k, triples):
    """The dict-per-row fold into tuple rows that the flat `detection._fold` replaced, a second oracle."""
    self_w = [0.0] * k
    rows = [{} for _ in range(k)]
    for i, j, w in triples:
        if i == j:
            self_w[i] += w
        else:
            rows[i][j] = rows[i].get(j, 0.0) + w
            rows[j][i] = rows[j].get(i, 0.0) + w
    adj = [tuple(row.items()) for row in rows]
    degree = [sum(row.values(), 2.0 * w) for row, w in zip(rows, self_w)]
    return adj, self_w, degree


_weights = st.one_of(st.integers(1, 9), st.integers(1, 9).map(float))
_triples = st.integers(1, 7).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), _weights), max_size=40),
    )
)


def fold_triples(k, triples):
    """The view's ``(offsets, targets, weights, self_weight, degree)`` of the
    graph whose triple ``(i, j, w)`` is ``w`` raw links from node ``i`` to
    ``j``, ids ``0..k-1``."""
    raw = [(i, j) for i, j, w in triples for _ in range(int(w))]
    nodes = tuple(TemporalNode(str(i), 0) for i in range(k))
    tg = TemporalGraph(nodes, array("i", map(itemgetter(0), raw)), array("i", map(itemgetter(1), raw)))
    view = ModularityView.from_temporal_graph(tg)
    return view.offsets, view.targets, view.weights, list(view.self_weight), list(view.degree)


def rows_of(offsets, targets, weights):
    """Each flat row's ``(target, weight)`` pairs as a list."""
    return [list(zip(targets[lo:hi], weights[lo:hi])) for lo, hi in zip(offsets, offsets[1:])]


@settings(max_examples=300)
@given(_triples)
def test_fold_matches_the_pair_dict_fold(case):
    # Small id ranges repeat pairs both ways round, (i, i) triples are
    # self-loops, and ids that no triple names get empty rows.  Weights are
    # whole numbers, so every sum is exact in any order.
    k, triples = case
    offsets, targets, weights, self_w, degree = fold_triples(k, triples)
    assert len(offsets) == k + 1
    assert offsets[-1] == len(targets) == len(weights)
    rows = rows_of(offsets, targets, weights)
    for oracle in (reference_fold, tuple_row_fold):
        ref_adj, ref_self_w, ref_degree = oracle(k, triples)
        assert rows == [sorted(row) for row in ref_adj]
        assert self_w == ref_self_w
        assert degree == ref_degree


@settings(max_examples=200)
@given(_triples, st.data())
def test_fold_by_matches_the_fold_of_the_relabelled_triples(case, data):
    k, triples = case
    *rows, self_w, _ = fold_triples(k, triples)
    comm = _densify(data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k)))
    *folded, folded_self_w, folded_degree = _fold_by(*rows, self_w, comm)
    ref_adj, ref_self_w, ref_degree = reference_fold(max(comm) + 1, [(comm[i], comm[j], w) for i, j, w in triples])
    assert rows_of(*folded) == [sorted(row) for row in ref_adj]
    assert folded_self_w == ref_self_w
    assert folded_degree == ref_degree


def test_fold_by_lays_out_rows_as_the_view_build_does():
    # The view build and `_fold_by` each lay out rows and degrees.  Under the
    # identity membership they agree field for field, and a fold by one
    # level's membership keeps the degrees summing to twice the total weight,
    # which a wrong halving of the inner weight breaks.
    cfg = GeneratorConfig(n_c=20, m=25, t_max=10, w=10, d=3, p=0.85, seed=1)
    view = ModularityView.from_temporal_graph(build_temporal_graph(generate(cfg)[0]))
    rows = view.offsets, view.targets, view.weights
    offsets, targets, weights, self_w, degree = _fold_by(*rows, view.self_weight, list(range(view.n_nodes)))
    assert [(a.typecode, a) for a in (offsets, targets, weights)] == [(a.typecode, a) for a in rows]
    assert tuple(self_w) == view.self_weight
    assert tuple(degree) == view.degree
    comm = _densify(_one_level(*rows, view.degree, 2.0 * view.total_weight, random.Random(0)))
    assert max(comm) + 1 < view.n_nodes
    *_, folded_degree = _fold_by(*rows, view.self_weight, comm)
    assert sum(folded_degree) == 2 * view.total_weight


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_louvain_ignores_adjacency_order(monkeypatch, seed):
    # Rows are sorted by target whatever order the links come in, so the
    # graph with its links reversed gives an equal view, row by row, and
    # the same cover, through two aggregated levels.
    import dyncomm.detection as detection

    folds = []
    fold_by = detection._fold_by
    monkeypatch.setattr(detection, "_fold_by", lambda *args: folds.append(1) or fold_by(*args))
    cfg = GeneratorConfig(n_c=4, m=6, t_max=12, w=10, d=3, p=0.8, seed=seed)
    tg = build_temporal_graph(generate(cfg)[0])
    view = ModularityView.from_temporal_graph(tg)
    reversed_view = ModularityView.from_temporal_graph(
        tg._replace(sources=tg.sources[::-1], targets=tg.targets[::-1])
    )
    assert list(reversed_view.adj) == list(view.adj)
    assert reversed_view == view
    cover = louvain(view, seed=seed)
    assert len(folds) >= 2  # two levels aggregated, each from the level before
    assert list(louvain(reversed_view, seed=seed).assignment.items()) == list(cover.assignment.items())


def test_view_rows_read_as_pairs():
    view = ModularityView.from_temporal_graph(barbell_graph())
    rows = list(view.adj)
    assert len(rows) == view.n_nodes == 6
    assert rows[0] == ((1, 1.0), (2, 1.0), (3, 1.0))  # a1: a2, a3 and the bridge to b1
    assert rows[5] == ((3, 1.0), (4, 1.0))


def test_cover_requires_contiguous_ids():
    with pytest.raises(ValueError):
        Cover(assignment={TemporalNode("a", 1): 2}, n_communities=1)
    dense = Cover.from_assignment({TemporalNode("a", 1): 7, TemporalNode("b", 1): 9})
    assert dense.n_communities == 2
    assert dense.assignment[TemporalNode("a", 1)] == 0


@pytest.mark.parametrize("ids", [(False, True), (0.0, 1), (0, 1.0)])
def test_cover_rejects_community_ids_that_are_not_ints(ids):
    # False == 0 and 0.0 == 0, so each would pass as contiguous and write back as `False` or `0.0`.
    with pytest.raises(ValueError, match="community ids must be ints"):
        Cover(dict(zip([TemporalNode("a", 1), TemporalNode("b", 1)], ids)), 2)


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
