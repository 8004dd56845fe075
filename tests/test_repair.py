from __future__ import annotations

import copy
import io
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dyncomm import (
    Cover,
    CoverMismatchError,
    GeneratorConfig,
    MergeStep,
    ModularityView,
    TemporalNode,
    build_temporal_graph,
    generate,
    louvain,
    node_activity,
    repair,
    write_cover,
    write_trace,
)

from conftest import cover_of


def tn(label: str, t: int) -> TemporalNode:
    return TemporalNode(label, t)


def graph_over(nodes):
    return build_temporal_graph([], isolated_nodes=[(n.node, n.t) for n in nodes])


def test_disjoint_communities_left_untouched():
    groups = [[tn("A", 1), tn("A", 2)], [tn("B", 1), tn("C", 1)]]
    cover = cover_of(groups)
    tg = graph_over([n for g in groups for n in g])
    repaired, trace = repair(cover, tg)
    assert trace == []
    assert repaired.assignment == cover.assignment


def test_merge_improves_node_activity():
    c1 = [tn("A", 1), tn("A", 2), tn("A", 3)]                 # NA = 2/3
    c2 = [tn("A", 4), tn("A", 5), tn("A", 6), tn("B", 5)]     # NA = 1/2
    cover = cover_of([c1, c2])
    tg = graph_over(c1 + c2)
    repaired, trace = repair(cover, tg)
    assert len(trace) == 1
    step = trace[0]
    assert (step.community_a, step.community_b) == (0, 1)
    assert step.merged_na == pytest.approx(5 / 7)
    assert step.gain == pytest.approx(5 / 7 - 2 / 3)
    assert repaired.n_communities == 1


def test_merge_of_two_flat_communities_sharing_a_node():
    c1 = [tn("A", 1), tn("B", 1)]   # NA = 0
    c2 = [tn("A", 2), tn("C", 2)]   # NA = 0
    cover = cover_of([c1, c2])
    repaired, trace = repair(cover, graph_over(c1 + c2))
    assert len(trace) == 1
    assert trace[0].merged_na == pytest.approx(1 / 4)
    assert trace[0].gain == pytest.approx(1 / 4)
    assert repaired.n_communities == 1


def test_identity_when_each_node_lives_in_one_community():
    groups = [
        [tn("A", 1), tn("A", 2), tn("B", 1)],
        [tn("C", 1), tn("C", 2)],
        [tn("D", 5)],
    ]
    cover = cover_of(groups)
    repaired, trace = repair(cover, graph_over([n for g in groups for n in g]), min_overlap=1)
    assert trace == []
    assert repaired.assignment == cover.assignment


def test_min_overlap_blocks_single_node_overlaps():
    c1 = [tn("A", 1), tn("A", 2), tn("A", 3)]
    c2 = [tn("A", 4), tn("A", 5), tn("A", 6), tn("B", 5)]
    cover = cover_of([c1, c2])
    tg = graph_over(c1 + c2)
    _, trace = repair(cover, tg, min_overlap=2)
    assert trace == []
    with pytest.raises(ValueError):
        repair(cover, tg, min_overlap=0)


def test_repair_soundness_on_random_covers():
    rng = random.Random(606)
    cfg = GeneratorConfig(n_c=3, m=4, t_max=10, w=5, d=2, p=0.9, seed=17)
    links, _ = generate(cfg)
    tg = build_temporal_graph(links)
    nodes = list(tg.nodes)
    for trial in range(20):
        k = rng.randint(2, 12)
        assignment = {node: rng.randrange(k) for node in nodes}
        cover = Cover.from_assignment(assignment)
        repaired, trace = repair(cover, tg)
        assert len(trace) <= cover.n_communities - 1
        assert set(repaired.assignment) == set(nodes)
        assert set(repaired.assignment.values()) == set(range(repaired.n_communities))
        assert sum(len(g) for g in repaired.communities()) == len(nodes)
        # replay the merges: every step must beat both of its parts' NA
        groups = {cid: set(g) for cid, g in enumerate(cover.communities())}
        for step in trace:
            assert step.gain > 0
            a, b = step.community_a, step.community_b
            merged = groups[a] | groups[b]
            assert node_activity(merged) == step.merged_na
            assert step.merged_na > max(node_activity(groups[a]), node_activity(groups[b]))
            groups[a] = merged
            del groups[b]
        # original communities are never split, only merged
        final_groups = {cid: set(g) for cid, g in enumerate(repaired.communities())}
        for group in groups.values():
            assert any(group <= fg for fg in final_groups.values())


def test_equal_gains_break_ties_toward_smaller_id_pair():
    # Three singleton communities of the same physical node: every pair has
    # the identical gain 1/2, so (0, 1) must merge first.
    groups = [[tn("X", 1)], [tn("X", 2)], [tn("X", 3)]]
    cover = cover_of(groups)
    _, trace = repair(cover, graph_over([n for g in groups for n in g]))
    assert (trace[0].community_a, trace[0].community_b) == (0, 1)
    assert trace[0].gain == pytest.approx(1 / 2)
    assert (trace[1].community_a, trace[1].community_b) == (0, 2)


def test_chain_merge_absorbs_a_community_that_absorbed_another():
    # 1 takes 2 first (gain 2/5 over NA 0 and 0); the merged 1 then has
    # NA 2/5, and 0 joins it for NA 1/2.
    groups = [[tn("Y", 3)], [tn("Z", 0), tn("Y", 1)], [tn("Z", 2), tn("Y", 0), tn("X", 0)]]
    cover = cover_of(groups)
    tg = graph_over([n for g in groups for n in g])
    assignment, graph = dict(cover.assignment), copy.deepcopy(tg)
    repaired, trace = repair(cover, tg)
    assert trace == [MergeStep(1, 1, 2, 0.4, 0.4), MergeStep(2, 0, 1, 0.5, 0.1)]
    assert repaired.n_communities == 1
    assert set(repaired.assignment.values()) == {0}
    assert cover.assignment == assignment and cover.n_communities == 3
    assert tg == graph


def test_trace_csv_format():
    c1 = [tn("A", 1), tn("B", 1)]
    c2 = [tn("A", 2), tn("C", 2)]
    _, trace = repair(cover_of([c1, c2]), graph_over(c1 + c2))
    buffer = io.StringIO()
    write_trace(trace, buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert lines[0] == "step,community_a,community_b,merged_NA,gain"
    assert lines[1].startswith("1,0,1,0.25,")


def reference_repair(cover, tg, min_overlap=1):
    """Full-recompute repair, the oracle for the incremental `repair`.

    Every step rebuilds the label -> communities index, all pairwise
    shared-node counts and every candidate gain, then takes the largest
    gain, ties to the smallest (a, b) pair.
    """
    if min_overlap < 1:
        raise ValueError("min_overlap must be >= 1")
    phys = {c: set() for c in range(cover.n_communities)}
    size = {c: 0 for c in range(cover.n_communities)}
    for node in tg.nodes:
        if node not in cover.assignment:
            raise CoverMismatchError(f"cover misses temporal node {node}")
        cid = cover.assignment[node]
        phys[cid].add(node.node)
        size[cid] += 1
    na = {c: 1 - Fraction(len(phys[c]), size[c]) for c in phys}
    parent = {}
    steps = []
    while True:
        shared = {}
        node_comms = {}
        for cid in sorted(phys):
            for label in phys[cid]:
                node_comms.setdefault(label, []).append(cid)
        for comms in node_comms.values():
            for a, b in combinations(comms, 2):
                shared[(a, b)] = shared.get((a, b), 0) + 1
        best_pair = None
        best_gain = Fraction(0)
        best_na = Fraction(0)
        for pair in sorted(shared):
            if shared[pair] < min_overlap:
                continue
            a, b = pair
            merged_na = 1 - Fraction(len(phys[a] | phys[b]), size[a] + size[b])
            gain = merged_na - max(na[a], na[b])
            if gain > best_gain:
                best_pair = pair
                best_gain = gain
                best_na = merged_na
        if best_pair is None:
            break
        a, b = best_pair
        phys[a] |= phys.pop(b)
        size[a] += size.pop(b)
        na[a] = best_na
        del na[b]
        parent[b] = a
        steps.append(
            MergeStep(
                step=len(steps) + 1,
                community_a=a,
                community_b=b,
                merged_na=float(best_na),
                gain=float(best_gain),
            )
        )

    def root(cid):
        while cid in parent:
            cid = parent[cid]
        return cid

    survivors = sorted(phys)
    dense = {cid: i for i, cid in enumerate(survivors)}
    assignment = {node: dense[root(cover.assignment[node])] for node in tg.nodes}
    return Cover(assignment=assignment, n_communities=len(survivors)), steps


def output_bytes(result):
    """The cover CSV and trace CSV a repair result writes."""
    repaired, steps = result
    cover_csv, trace_csv = io.StringIO(), io.StringIO()
    write_cover(repaired, cover_csv)
    write_trace(steps, trace_csv)
    return cover_csv.getvalue(), trace_csv.getvalue()


def oracle_covers(graph_seed):
    """A generated graph and its random, per-timestep and Louvain covers."""
    cfg = GeneratorConfig(
        n_c=3,
        m=4,
        t_max=8,
        w=4,
        d=(2, 3)[graph_seed % 2],
        p=(0.6, 0.85, 1.0)[graph_seed % 3],
        seed=graph_seed,
    )
    links, planted = generate(cfg)
    tg = build_temporal_graph(links)
    rng = random.Random(graph_seed)
    covers = {}
    for k in (2, 6, 15, 40):
        covers[f"random{k}"] = Cover.from_assignment(
            {node: rng.randrange(k) for node in tg.nodes}
        )
    # Per-timestep slices of the planted communities, exact and with one
    # physical node misplaced into a wrong community at every timestep.
    stride = cfg.t_max + 1
    covers["per_timestep"] = Cover.from_assignment(
        {node: planted[node.node] * stride + node.t for node in tg.nodes}
    )
    stray = rng.choice(sorted(planted))
    covers["per_timestep_noisy"] = Cover.from_assignment(
        {
            node: ((planted[node.node] + (node.node == stray)) % cfg.n_c) * stride + node.t
            for node in tg.nodes
        }
    )
    covers["louvain"] = louvain(ModularityView.from_temporal_graph(tg), seed=graph_seed)
    return tg, covers


@pytest.mark.parametrize("graph_seed", range(10))
def test_repair_matches_full_recompute_oracle(graph_seed):
    tg, covers = oracle_covers(graph_seed)
    for name, cover in covers.items():
        for min_overlap in (1, 2, 3):
            expected = output_bytes(reference_repair(cover, tg, min_overlap))
            got = output_bytes(repair(cover, tg, min_overlap))
            assert got == expected, (name, min_overlap)


def size_weighted_mean_na(cover):
    """NA of each temporal node's community, averaged over temporal nodes.

    The unweighted mean over communities can fall: merging two NA-1/2
    pairs into one NA-3/4 community among many NA-0 singletons lowers it.
    """
    groups = cover.communities()
    return sum(len(g) * node_activity(g) for g in groups) / len(cover.assignment)


random_covers = st.lists(
    st.tuples(
        st.sampled_from("ABCDE"), st.integers(0, 5), st.integers(0, 7)
    ),
    min_size=1,
    max_size=30,
    unique_by=lambda row: row[:2],
)


@settings(max_examples=150)
@given(rows=random_covers, min_overlap=st.integers(1, 3))
def test_repair_properties(rows, min_overlap):
    cover = Cover.from_assignment({TemporalNode(label, t): cid for label, t, cid in rows})
    tg = graph_over(cover.assignment)
    result = repair(cover, tg, min_overlap)
    repaired, steps = result
    assert size_weighted_mean_na(repaired) >= size_weighted_mean_na(cover) - 1e-12
    assert all(step.gain > 0 for step in steps)
    assert repaired.n_communities == cover.n_communities - len(steps)
    assert output_bytes(result) == output_bytes(reference_repair(cover, tg, min_overlap))
