"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import settings

from dyncomm import Cover, TemporalNode, build_temporal_graph

# Property tests draw the same examples on every run and have no time limit,
# so the suite's verdict never depends on the run or on the machine's speed.
settings.register_profile("dyncomm", deadline=None, derandomize=True)
settings.load_profile("dyncomm")


def cover_of(groups):
    """The cover with ``groups[i]``'s temporal nodes in community i."""
    assignment = {}
    for cid, group in enumerate(groups):
        for node in group:
            assignment[node] = cid
    return Cover(assignment=assignment, n_communities=len(groups))


def barbell_graph():
    """Two unit triangles joined by one bridge edge (7 edges total)."""
    edges = [
        ("a1", "a2"),
        ("a2", "a3"),
        ("a1", "a3"),
        ("b1", "b2"),
        ("b2", "b3"),
        ("b1", "b3"),
        ("a1", "b1"),
    ]
    return build_temporal_graph([((u, 0), (v, 0)) for u, v in edges])


def two_pairs_graph():
    """Two disconnected unit edges: a-b and c-d."""
    return build_temporal_graph([(("a", 1), ("b", 1)), (("c", 1), ("d", 1))])


def triangle_sides():
    """Node groups of the barbell's two triangles, as temporal nodes."""
    left = {TemporalNode(x, 0) for x in ("a1", "a2", "a3")}
    right = {TemporalNode(x, 0) for x in ("b1", "b2", "b3")}
    return left, right


def random_raw_links(rng: random.Random, n_cells: int, n_links: int, t_span: int = 4):
    """Random permissive raw links over up to n_cells temporal cells."""
    labels = [chr(ord("a") + i % 26) + str(i // 26) for i in range(n_cells)]
    cells = [(labels[i], rng.randrange(t_span)) for i in range(n_cells)]
    return [
        (cells[rng.randrange(n_cells)], cells[rng.randrange(n_cells)])
        for _ in range(n_links)
    ], cells


def pair_xor_dissimilarity(a, b) -> float:
    """Quadratic pair-scan oracle for the dissimilarity metric."""
    nodes = sorted(a)
    disagreements = 0
    for i, j in combinations(nodes, 2):
        if (a[i] == a[j]) != (b[i] == b[j]):
            disagreements += 1
    n = len(nodes)
    return disagreements / (n * (n - 1) // 2)
