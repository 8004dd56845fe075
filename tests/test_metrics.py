from __future__ import annotations

import dataclasses
import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dyncomm import (
    Cover,
    CoverMismatchError,
    TemporalNode,
    build_temporal_graph,
    community_reports,
    dissimilarity,
    node_activity,
    node_reports,
    write_community_csv,
    write_node_csv,
)
from dyncomm.metrics import read_community_csv

from conftest import pair_xor_dissimilarity, random_raw_links


def tn(label: str, t: int) -> TemporalNode:
    return TemporalNode(label, t)


def report(tg, groups=None, community=0):
    """The community_reports row of ``community`` under a cover of ``groups``
    (default: every node in one community)."""
    return community_reports(cover_for(tg, groups or [tg.nodes]), tg)[community]


def test_z_counts_distinct_physical_nodes():
    three = build_temporal_graph([], isolated_nodes=[("A", 1), ("A", 2), ("B", 1)])
    assert report(three).z == 2
    lone = build_temporal_graph([], isolated_nodes=[("A", 5)])
    assert report(lone).z == 1
    # community 1 holds no node of the graph
    ghost = Cover(assignment={tn("A", 5): 0, tn("B", 1): 1}, n_communities=2)
    with pytest.raises(ValueError, match="community 1 has no temporal nodes"):
        community_reports(ghost, lone)


def test_node_activity_examples():
    assert node_activity([tn("A", 1), tn("B", 1), tn("C", 1)]) == 0.0
    assert node_activity([tn("A", t) for t in range(1, 11)]) == pytest.approx(0.9)
    five = [tn("A", 1), tn("A", 2), tn("A", 3), tn("B", 2), tn("B", 3)]
    assert node_activity(five) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        node_activity([])


def test_sc_examples():
    all_self = build_temporal_graph([(("v", 2), ("v", 1)), (("v", 3), ("v", 2))])
    assert report(all_self).sc == 1.0

    # 2 self-citations among 5 internal unit links
    two_of_five = build_temporal_graph(
        [
            (("a", 2), ("a", 1)),
            (("b", 3), ("b", 2)),
            (("a", 2), ("b", 1)),
            (("b", 2), ("a", 1)),
            (("a", 3), ("b", 2)),
        ]
    )
    assert report(two_of_five).sc == pytest.approx(0.4)

    # a community with no internal links
    graph = build_temporal_graph([(("a", 1), ("b", 1))], isolated_nodes=[("z", 4)])
    assert report(graph, [[tn("a", 1), tn("b", 1)], [tn("z", 4)]], community=1).sc == 0.0


def test_heterogeneity_balanced_and_concentrated():
    # z=4, each node sources exactly one internal unit link
    balanced = build_temporal_graph(
        [
            (("a", 2), ("b", 1)),
            (("b", 2), ("c", 1)),
            (("c", 2), ("d", 1)),
            (("d", 2), ("a", 1)),
        ]
    )
    assert report(balanced).hi == pytest.approx(1.0)

    concentrated = build_temporal_graph(
        [
            (("a", 2), ("b", 1)),
            (("a", 2), ("c", 1)),
            (("a", 3), ("d", 1)),
        ]
    )
    assert report(concentrated).hi == pytest.approx(0.0)


def test_heterogeneity_weighted_shares():
    # out-link weight shares 0.5 / 0.3 / 0.2 over z = 3
    raw = (
        [(("a", 2), ("b", 1))] * 5
        + [(("b", 2), ("c", 1))] * 3
        + [(("c", 2), ("a", 1))] * 2
    )
    graph = build_temporal_graph(raw)
    expected = (1 / 0.38 - 1) / 2
    assert report(graph).hi == pytest.approx(expected, abs=1e-12)


def test_heterogeneity_degenerate_cases():
    solo = build_temporal_graph([(("a", 2), ("a", 1))])
    assert report(solo).hi == 1.0
    no_internal = build_temporal_graph([(("a", 1), ("b", 1))], isolated_nodes=[("z", 1)])
    assert report(no_internal, [[tn("a", 1), tn("b", 1)], [tn("z", 1)]], community=1).hi == 1.0


def test_dissimilarity_examples():
    nodes = [tn("a", 1), tn("b", 1), tn("c", 1), tn("d", 1)]
    same = {x: 0 for x in nodes}
    assert dissimilarity(same, dict(same)) == 0.0

    three = nodes[:3]
    one_block = {x: 0 for x in three}
    singletons = {x: i for i, x in enumerate(three)}
    assert dissimilarity(one_block, singletons) == 1.0

    ab_cd = {nodes[0]: 0, nodes[1]: 0, nodes[2]: 1, nodes[3]: 1}
    ac_bd = {nodes[0]: 0, nodes[1]: 1, nodes[2]: 0, nodes[3]: 1}
    assert dissimilarity(ab_cd, ac_bd) == pytest.approx(2 / 3)


def test_dissimilarity_matches_pair_scan_oracle():
    rng = random.Random(77)
    for _ in range(25):
        nodes = [tn(f"n{i}", rng.randrange(3)) for i in range(rng.randint(2, 12))]
        nodes = list(dict.fromkeys(nodes))
        if len(nodes) < 2:
            continue
        a = {x: rng.randrange(4) for x in nodes}
        b = {x: rng.randrange(4) for x in nodes}
        assert dissimilarity(a, b) == pytest.approx(pair_xor_dissimilarity(a, b), abs=1e-12)
        assert dissimilarity(a, b) == dissimilarity(b, a)


@st.composite
def assignment_pairs(draw):
    """Two assignments over one node set, ids drawn from a few values."""
    node = st.builds(tn, st.sampled_from("abcde"), st.integers(0, 3))
    nodes = draw(st.lists(node, min_size=2, unique=True))
    ids = st.integers(0, 4)
    return {x: draw(ids) for x in nodes}, {x: draw(ids) for x in nodes}


def relabel(assignment, data):
    """``assignment`` under a random one-to-one renaming of its ids."""
    old = sorted(set(assignment.values()))
    new = data.draw(st.permutations(range(len(old))))
    names = {cid: f"c{new[i]}" for i, cid in enumerate(old)}
    return {x: names[cid] for x, cid in assignment.items()}


@settings(max_examples=200)
@given(assignment_pairs(), st.data())
def test_dissimilarity_label_invariance(pair, data):
    # Also 0 on identical assignments, and symmetric.
    a, b = pair
    d = dissimilarity(a, b)
    assert dissimilarity(a, dict(a)) == 0.0
    assert dissimilarity(a, relabel(a, data)) == 0.0
    assert dissimilarity(b, a) == d
    assert dissimilarity(relabel(a, data), b) == d
    assert dissimilarity(a, relabel(b, data)) == d


def test_dissimilarity_argument_errors():
    a = {tn("a", 1): 0, tn("b", 1): 0}
    with pytest.raises(ValueError):
        dissimilarity(a, {tn("a", 1): 0})
    with pytest.raises(ValueError):
        dissimilarity({tn("a", 1): 0}, {tn("a", 1): 0})


def cover_for(tg, groups):
    assignment = {}
    for cid, group in enumerate(groups):
        for node in group:
            assignment[node] = cid
    return Cover(assignment=assignment, n_communities=len(groups))


def test_node_reports_examples():
    raw = [
        (("solo", 3), ("x", 1)),
        (("jump", 1), ("x", 1)),
        (("jump", 3), ("x", 1)),
        (("jump", 5), ("x", 1)),
        (("flip", 1), ("x", 1)),
        (("flip", 2), ("x", 1)),
        (("flip", 3), ("x", 1)),
        (("flip", 4), ("x", 1)),
    ]
    tg = build_temporal_graph(raw)
    groups = {
        tn("x", 1): 0,
        tn("solo", 3): 0,
        tn("jump", 1): 0,
        tn("jump", 3): 0,
        tn("jump", 5): 1,
        tn("flip", 1): 0,
        tn("flip", 2): 1,
        tn("flip", 3): 0,
        tn("flip", 4): 1,
    }
    cover = Cover(assignment=groups, n_communities=2)
    by_node = {r.node: r for r in node_reports(cover, tg)}

    solo = by_node["solo"]
    assert (solo.lifetime, solo.membership, solo.cm, solo.ct) == (1, 1, 1.0, 0.0)

    jump = by_node["jump"]
    assert (jump.lifetime, jump.membership) == (3, 2)
    assert jump.cm == pytest.approx(2 / 3)
    assert jump.ct == pytest.approx(1 / 2)

    flip = by_node["flip"]
    assert (flip.lifetime, flip.membership) == (4, 2)
    assert flip.cm == pytest.approx(1 / 2)
    assert flip.ct == pytest.approx(1.0)


_cells = st.tuples(st.sampled_from("abcd"), st.integers(0, 6))


@st.composite
def graphs_with_covers(draw):
    """A small temporal graph and a cover of it; ids need not follow node order."""
    raw = draw(st.lists(st.tuples(_cells, _cells), min_size=1, max_size=25))
    tg = build_temporal_graph(raw, isolated_nodes=draw(st.lists(_cells, max_size=4)))
    ids = draw(st.lists(st.integers(0, 4), min_size=len(tg.nodes), max_size=len(tg.nodes)))
    dense = {cid: i for i, cid in enumerate(sorted(set(ids)))}
    return tg, Cover({tn: dense[cid] for tn, cid in zip(tg.nodes, ids)}, len(dense))


def direct_metrics(group, tg):
    """(z, NA, SC, HI) of one community, each from its definition."""
    inside = set(group)
    links = [link for link in tg.links if link.source in inside and link.target in inside]
    z = len({member.node for member in group})
    total = sum(link.weight for link in links)
    if total == 0:
        return z, 1 - z / len(group), 0.0, 1.0
    sc = sum(link.weight for link in links if link.source.node == link.target.node) / total
    shares = Counter()
    for link in links:
        shares[link.source.node] += link.weight / total
    h = 1 / (z * sum(share * share for share in shares.values()))
    hi = 1.0 if z == 1 else (h - 1 / z) / (1 - 1 / z)
    return z, 1 - z / len(group), sc, hi


@settings(max_examples=300)
@given(graphs_with_covers())
def test_community_reports_match_single_community_operations(case):
    tg, cover = case
    reports = community_reports(cover, tg)
    groups = cover.communities()
    assert [r.community for r in reports] == list(range(cover.n_communities))
    assert sum(r.temporal_size for r in reports) == len(tg.nodes)
    for report in reports:
        group = groups[report.community]
        z, na, sc, hi = direct_metrics(group, tg)
        assert (report.z, report.temporal_size) == (z, len(group))
        assert report.na == na == node_activity(group)
        assert report.sc == pytest.approx(sc, abs=1e-12)
        assert report.hi == pytest.approx(hi, abs=1e-12)
        assert 0.0 <= report.na < 1.0
        assert 0.0 <= report.sc <= 1.0
        assert 0.0 <= report.hi <= 1.0 + 1e-12


def relabelled(cover, data):
    """``cover`` with its community ids permuted; returns (cover, permutation)."""
    perm = data.draw(st.permutations(range(cover.n_communities)))
    assignment = {node: perm[cid] for node, cid in cover.assignment.items()}
    return Cover(assignment=assignment, n_communities=cover.n_communities), perm


@settings(max_examples=200)
@given(graphs_with_covers(), st.data())
def test_community_reports_follow_relabelled_ids(case, data):
    tg, cover = case
    other, perm = relabelled(cover, data)
    reports, permuted = community_reports(cover, tg), community_reports(other, tg)
    assert len(permuted) == len(reports)
    for report in reports:
        assert permuted[perm[report.community]] == dataclasses.replace(
            report, community=perm[report.community]
        )


@settings(max_examples=200)
@given(graphs_with_covers(), st.data())
def test_node_reports_ignore_relabelled_ids(case, data):
    tg, cover = case
    other, _ = relabelled(cover, data)
    assert node_reports(other, tg) == node_reports(cover, tg)


def test_na_zero_iff_no_repeats():
    rng = random.Random(91)
    for _ in range(10):
        raw, _ = random_raw_links(rng, rng.randint(2, 8), rng.randint(1, 16))
        tg = build_temporal_graph(raw)
        na = node_activity(tg.nodes)
        repeats = len(set(n.node for n in tg.nodes)) < len(tg.nodes)
        assert (na > 0) == repeats


def test_reports_reject_partial_cover():
    tg = build_temporal_graph([(("a", 1), ("b", 1)), (("c", 1), ("b", 1))])
    partial = Cover(assignment={tn("a", 1): 0, tn("b", 1): 0}, n_communities=1)
    with pytest.raises(CoverMismatchError):
        community_reports(partial, tg)
    with pytest.raises(CoverMismatchError):
        node_reports(partial, tg)


def test_csv_round_trip():
    tg = build_temporal_graph([(("a", 2), ("a", 1)), (("a", 2), ("b", 1))])
    cover = cover_for(tg, [tg.nodes])
    reports = community_reports(cover, tg)
    buffer = io.StringIO()
    write_community_csv(reports, buffer)
    parsed = read_community_csv(io.StringIO(buffer.getvalue()))
    assert len(parsed) == 1
    assert parsed[0].z == reports[0].z
    assert parsed[0].na == pytest.approx(reports[0].na)
    assert parsed[0].internal_links == reports[0].internal_links

    node_buffer = io.StringIO()
    write_node_csv(node_reports(cover, tg), node_buffer)
    header, *rows = node_buffer.getvalue().strip().split("\n")
    assert header == "node,lifetime,membership,CM,CT"
    assert len(rows) == 2
