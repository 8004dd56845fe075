from __future__ import annotations

import io
import random
import tempfile
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dyncomm import (
    GeneratorConfig,
    LinkParseError,
    LinkValidationError,
    TemporalGraph,
    TemporalNode,
    build_temporal_graph,
    coarsen_time,
    generate,
    parse_link_file,
    write_links,
)
from dyncomm.cli import _load_graph
from dyncomm.temporal_graph import _decimal, _link_stream, _read_table, _sum_in_order

from conftest import random_raw_links


def test_parse_empty_stream():
    assert parse_link_file([]) == []


def test_parse_two_links_preserves_order_and_duplicates():
    raw = parse_link_file(["A 2 B 1", "A 3 B 1"])
    assert raw == [(("A", 2), ("B", 1)), (("A", 3), ("B", 1))]
    dup = parse_link_file(["A 2 B 1", "A 2 B 1"])
    assert dup == [(("A", 2), ("B", 1))] * 2


def test_parse_skips_comments_and_blank_lines():
    raw = parse_link_file(["# header", "", "  ", "  # indented", "\t", "\u2003", "A 2 B 1"])
    assert raw == [(("A", 2), ("B", 1))]


def test_parse_strict_rejects_target_newer_than_source():
    with pytest.raises(LinkValidationError, match="line 1"):
        parse_link_file(["A 1 B 2"])
    assert parse_link_file(["A 1 B 2"], permissive=True) == [(("A", 1), ("B", 2))]
    # keyword-only, so that a truthy positional string cannot turn the rule off
    with pytest.raises(TypeError):
        parse_link_file(["A 1 B 2"], "strict_citation")


def test_parse_malformed_lines_report_line_number():
    with pytest.raises(LinkParseError, match="line 2"):
        parse_link_file(["A 1 B 1", "A 1 B"])
    with pytest.raises(LinkParseError, match="line 1"):
        parse_link_file(["A x B 1"])
    with pytest.raises(LinkParseError, match="non-negative"):
        parse_link_file(["A -1 B -2"])


def test_parse_holds_each_endpoint_once():
    lines = ["A 2 B 1", "A 2 B 1", "B 1 A 2", "C 5 A 3", "A 3 B 0", "C 4 C 4"]

    def held_once(raw):
        endpoints = [end for link in raw for end in link]
        return len({id(end) for end in endpoints}) == len(set(endpoints))

    raw = parse_link_file(lines, permissive=True)
    assert raw == [
        (("A", 2), ("B", 1)), (("A", 2), ("B", 1)), (("B", 1), ("A", 2)),
        (("C", 5), ("A", 3)), (("A", 3), ("B", 0)), (("C", 4), ("C", 4)),
    ]
    assert held_once(raw)
    binned = list(_link_stream(lines, True, 2))
    assert binned == [((src, ts // 2), (dst, td // 2)) for (src, ts), (dst, td) in raw]
    with pytest.raises(LinkParseError, match="line 3"):
        parse_link_file(["A 2 B 1", "A 2 B 1", "A 2 B"])


def test_build_counts_nodes_links_and_weight():
    tg = build_temporal_graph([(("A", 2), ("B", 1)), (("A", 3), ("B", 1))])
    assert set(tg.nodes) == {
        TemporalNode("A", 2),
        TemporalNode("A", 3),
        TemporalNode("B", 1),
    }
    assert len(tg.links) == 2
    assert tg.total_weight == 2


def test_build_aggregates_duplicate_links_into_weight():
    tg = build_temporal_graph([(("A", 2), ("B", 1))] * 2)
    assert len(tg.nodes) == 2
    assert len(tg.links) == 1
    assert tg.links[0][2] == 2
    assert tg.total_weight == 2


def test_build_four_node_citation_toy():
    # Four physical nodes with timestamped citations: one temporal node per
    # (letter, time) pair, one link per input row.
    rows = [
        (("A", 3), ("B", 1)),
        (("B", 2), ("C", 1)),
        (("C", 3), ("D", 2)),
        (("D", 4), ("A", 3)),
        (("A", 4), ("C", 1)),
    ]
    tg = build_temporal_graph(rows)
    assert len(tg.nodes) == len({(u, t) for row in rows for (u, t) in row})
    assert len(tg.links) == len(rows)


def test_coarsen_identity_at_k_one():
    tg = build_temporal_graph([(("A", 2), ("B", 1)), (("A", 3), ("B", 1))])
    assert coarsen_time(tg, 1) == tg


def test_coarsen_merges_colliding_years():
    tg = build_temporal_graph([(("A", 1981), ("A", 1980))])
    merged = coarsen_time(tg, 2)
    assert set(merged.nodes) == {TemporalNode("A", 990)}
    assert merged.links[0][0] == merged.links[0][1]
    assert merged.total_weight == 1


def test_coarsen_collapses_opposed_links_onto_one_pair():
    # Permissive data: both links land on ((A,0),(B,0)) under k=4.
    tg = build_temporal_graph([(("A", 3), ("B", 2)), (("A", 2), ("B", 3))])
    merged = coarsen_time(tg, 4)
    assert set(merged.nodes) == {TemporalNode("A", 0), TemporalNode("B", 0)}
    assert len(merged.links) == 1
    assert merged.links[0][2] == 2


def reference_coarsen(tg: TemporalGraph, k: int) -> TemporalGraph:
    """Coarsening by expanding every link into its raw copies and rebuilding."""
    if k == 1:
        return tg
    raw = []
    for src, dst, w in tg.links:
        raw.extend([((src.node, src.t // k), (dst.node, dst.t // k))] * w)
    endpoint_nodes = {tn for src, dst, _ in tg.links for tn in (src, dst)}
    isolated = [(tn.node, tn.t // k) for tn in tg.nodes if tn not in endpoint_nodes]
    return build_temporal_graph(raw, isolated_nodes=isolated)


_cells = st.tuples(st.sampled_from("abcd"), st.integers(0, 12))


@settings(max_examples=300)
@given(st.lists(st.tuples(_cells, _cells), max_size=25), st.lists(_cells, max_size=6), st.integers(1, 5))
def test_coarsen_matches_expand_and_rebuild(raw, isolated, k):
    tg = build_temporal_graph(raw, isolated_nodes=isolated)
    merged, expected = coarsen_time(tg, k), reference_coarsen(tg, k)
    assert merged.nodes == expected.nodes
    assert merged.links == expected.links
    assert merged.total_weight == expected.total_weight == len(raw)


@settings(max_examples=300)
@given(st.lists(st.tuples(_cells, _cells), max_size=25), st.lists(_cells, max_size=6), st.integers(1, 5))
def test_build_from_binned_links_matches_coarsen_time(raw, isolated, k):
    binned = [((src, ts // k), (dst, td // k)) for (src, ts), (dst, td) in raw]
    built = build_temporal_graph(binned, isolated_nodes=[(label, t // k) for label, t in isolated])
    expected = coarsen_time(build_temporal_graph(raw, isolated_nodes=isolated), k)
    assert built.nodes == expected.nodes
    assert (built.sources, built.targets) == (expected.sources, expected.targets)
    assert built.links == expected.links
    assert built.total_weight == expected.total_weight == len(raw)


def counter_build(raw, isolated=()):
    """The graph as a `Counter` of the raw pairs and `dict.fromkeys` of their
    ends built it: ``(nodes, links)`` as plain tuples, both in first-appearance order."""
    counts = Counter(raw)
    nodes = dict.fromkeys(chain.from_iterable(counts))
    nodes.update(dict.fromkeys(tuple(cell) for cell in isolated))
    return list(nodes), [(src, dst, w) for (src, dst), w in counts.items()]


def as_plain(tg: TemporalGraph):
    """``(nodes, links)`` of ``tg`` as plain tuples, in the graph's order."""
    return [tuple(tn) for tn in tg.nodes], [(tuple(src), tuple(dst), w) for src, dst, w in tg.links]


@settings(max_examples=200)
@given(st.lists(st.tuples(_cells, _cells), max_size=40), st.lists(_cells, max_size=6), st.integers(1, 5))
def test_every_build_keeps_the_counter_builds_order(raw, isolated, k):
    # Order matters beyond equality: HI sums its squares in link order.
    binned = [((src, ts // k), (dst, td // k)) for (src, ts), (dst, td) in raw]
    binned_isolated = [(label, t // k) for label, t in isolated]
    assert as_plain(build_temporal_graph(raw, isolated_nodes=isolated)) == counter_build(raw, isolated)
    coarse = coarsen_time(build_temporal_graph(raw, isolated_nodes=isolated), k)
    assert as_plain(coarse) == counter_build(binned, binned_isolated)
    buffer = io.StringIO()
    write_links(raw, buffer)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "links.txt"
        path.write_text(buffer.getvalue(), encoding="utf-8")
        assert as_plain(_load_graph(str(path), True, k)) == counter_build(binned)


@settings(max_examples=200)
@given(st.lists(st.tuples(_cells, _cells), max_size=40), st.lists(_cells, max_size=6), st.integers(1, 5))
def test_the_graph_holds_each_raw_link_in_input_order(raw, isolated, k):
    # One link per raw link, repeats kept: the arrays are the numbered input.
    binned = [((src, ts // k), (dst, td // k)) for (src, ts), (dst, td) in raw]
    tg = build_temporal_graph(raw, isolated_nodes=isolated)
    for graph, links in ((tg, raw), (coarsen_time(tg, k), binned)):
        nodes = [tuple(tn) for tn in graph.nodes]
        assert [(nodes[i], nodes[j]) for i, j in zip(graph.sources, graph.targets)] == links
        assert graph.total_weight == len(links)


def test_streamed_coarse_load_equals_coarsen_time_array_for_array(tmp_path):
    path = tmp_path / "links.txt"
    write_links(generate(GeneratorConfig(n_c=4, m=8, t_max=30, w=10, d=3, p=0.8, seed=7))[0], path)
    fine = _load_graph(str(path), False, 1)
    for k in (1, 3, 10):
        loaded, coarsened = _load_graph(str(path), False, k), coarsen_time(fine, k)
        assert loaded.nodes == coarsened.nodes
        for name in ("sources", "targets"):
            a, b = getattr(loaded, name), getattr(coarsened, name)
            assert (a.typecode, a) == (b.typecode, b), name


def test_link_endpoints_are_the_graph_node_objects():
    rng = random.Random(406)
    for trial in range(10):
        raw, _ = random_raw_links(rng, n_cells=rng.randint(2, 12), n_links=rng.randint(1, 40), t_span=9)
        tg = build_temporal_graph(raw, isolated_nodes=[("iso", 7), ["iso", 8]])
        for graph in (tg, coarsen_time(tg, 2), coarsen_time(tg, 3)):
            node_ids = {id(tn) for tn in graph.nodes}
            assert len(node_ids) == len(graph.nodes)
            assert all(type(tn) is TemporalNode for tn in graph.nodes)
            assert all(id(src) in node_ids and id(dst) in node_ids for src, dst, _ in graph.links)


def test_coarsen_rejects_zero():
    tg = build_temporal_graph([(("A", 1), ("B", 1))])
    with pytest.raises(ValueError):
        coarsen_time(tg, 0)


@pytest.mark.parametrize("k", [2.5, 2.0])
def test_coarsen_rejects_a_k_that_is_not_an_integer(k):
    # A float k would bin to float times, which `write_cover` writes and `read_cover` rejects.
    tg = build_temporal_graph([(("A", 3), ("B", 1))])
    with pytest.raises(ValueError, match="coarsening factor k must be an integer"):
        coarsen_time(tg, k)


def test_build_rejects_a_raw_link_that_is_not_a_pair_of_cells():
    with pytest.raises(ValueError):
        build_temporal_graph([(("A", 2), ("B", 1), ("C", 0))])
    with pytest.raises(ValueError):
        build_temporal_graph([(("A", 2),)])
    with pytest.raises(TypeError):
        build_temporal_graph([(("A", 2, 0), ("B", 1))])


def test_isolated_nodes_only_when_declared():
    tg = build_temporal_graph([(("A", 1), ("B", 1))], isolated_nodes=[("C", 5)])
    assert TemporalNode("C", 5) in tg.nodes
    assert all(TemporalNode("C", 5) not in link[:2] for link in tg.links)


def test_round_trip_and_counting_invariants():
    rng = random.Random(404)
    for trial in range(30):
        raw, _ = random_raw_links(rng, n_cells=rng.randint(2, 12), n_links=rng.randint(1, 40))
        tg = build_temporal_graph(raw)
        assert tg.total_weight == len(raw)
        assert len(tg.nodes) <= 2 * len(raw)
        buffer = io.StringIO()
        write_links(raw, buffer)
        reparsed = parse_link_file(buffer.getvalue().splitlines(), permissive=True)
        assert build_temporal_graph(reparsed) == tg


def test_coarsening_never_changes_physical_projection():
    rng = random.Random(405)
    for trial in range(20):
        raw, _ = random_raw_links(rng, n_cells=rng.randint(2, 10), n_links=rng.randint(1, 30), t_span=9)
        tg = build_temporal_graph(raw)

        def physical(graph):
            """Link weight per (source label, target label), and the label set."""
            weights = Counter()
            for src, dst, w in graph.links:
                weights[src.node, dst.node] += w
            return weights, {tn.node for tn in graph.nodes}

        before = physical(tg)
        assert sum(before[0].values()) == len(raw)
        for k in (1, 2, 3, 5):
            assert physical(coarsen_time(tg, k)) == before


@pytest.mark.parametrize("label", ["#a", "", "a b", "a\tb", " a"])
def test_write_links_rejects_labels_that_would_not_read_back(label):
    links = [(("ok", 2), ("ok", 1)), ((label, 2), ("ok", 1))]
    buffer = io.StringIO()
    with pytest.raises(LinkValidationError, match="would not read back"):
        write_links(links, buffer)
    assert buffer.getvalue() == ""
    with pytest.raises(LinkValidationError):
        write_links([(("ok", 2), (label, 1))], buffer)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.text(max_size=4), st.integers(0, 9)),
            st.tuples(st.text(max_size=4), st.integers(0, 9)),
        ),
        max_size=6,
    )
)
def test_written_links_read_back_or_are_rejected(links):
    buffer = io.StringIO()
    try:
        write_links(links, buffer)
    except LinkValidationError:
        return
    assert parse_link_file(buffer.getvalue().splitlines(), permissive=True) == links


_labels = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5).filter(
    lambda label: label.split() == [label] and not label.startswith("#")
)
_stamped = st.tuples(_labels, st.integers(0, 10**18))


@settings(max_examples=200)
@given(st.lists(st.tuples(_stamped, _stamped), max_size=8))
def test_links_round_trip_through_the_link_format(links):
    # Any label `write_links` accepts and any non-negative time, however large.
    buffer = io.StringIO()
    write_links(links, buffer)
    assert parse_link_file(io.StringIO(buffer.getvalue(), newline=""), permissive=True) == links


def _lax_forms(n):
    """Spellings of ``n`` that `int` reads but the package never writes."""
    digits = str(n)
    return [
        f"+{digits}",
        f" {digits}",
        f"{digits}_0",
        "".join(chr(0x0660 + int(d)) for d in digits),  # Arabic-Indic digits
        "".join(chr(0xFF10 + int(d)) for d in digits),  # fullwidth digits
    ]


@settings(max_examples=100)
@given(st.integers(0, 10**6))
def test_numbers_read_only_in_plain_ascii_digits(n):
    assert _decimal(str(n)) == n
    if n:
        assert _decimal(f"-{n}") == -n
    for text in _lax_forms(n) + ["-0" * (n == 0)]:
        if text:
            int(text)  # Python reads every one of them
            with pytest.raises(ValueError, match="not an integer in plain ASCII digits"):
                _decimal(text)
    for text in _lax_forms(n)[::2]:  # the forms without a space, which splits a link line
        with pytest.raises(LinkParseError, match="^line 1: times must be integers$"):
            parse_link_file([f"a {text} b 0"], permissive=True)


def test_float_sums_round_once_per_addition_left_to_right():
    # A compensated sum, as the built-in `sum` is from Python 3.12 on, gives 1.0 and 1.0.
    assert _sum_in_order([1e16, 1.0, -1e16]) == 0.0
    assert _sum_in_order(0.1 for _ in range(10)) == 0.9999999999999999
    assert _sum_in_order([]) == 0


def test_link_times_longer_than_int_reads_fail_on_their_line():
    with pytest.raises(LinkParseError, match=r"^line 2: Exceeds the limit \(4300 digits\)"):
        parse_link_file(["a 1 b 0", f"a {'1' * 5000} b 0"])
    with pytest.raises(LinkParseError, match=r"^line 1: Exceeds the limit \(4300 digits\)"):
        list(_link_stream([f"a 9 b {'1' * 5000}"], True, 10))


def test_read_table_skips_blank_rows():
    rows = []
    _read_table(io.StringIO("a,b\n1,2\n\n3,4\n"), "test", ["a", "b"], rows.append)
    assert rows == [["1", "2"], ["3", "4"]]
    with pytest.raises(ValueError, match="^line 3: expected 2 fields, got 1"):
        _read_table(io.StringIO("a,b\n\n1\n"), "test", ["a", "b"], rows.append)


def test_link_times_that_int_would_rewrite_fail_on_their_line():
    # With int(), these two lines parsed as a 3 -> b 10 and b 2 -> a 0.
    for line in ["a ٣ b 1_0", "b +2 a -0"]:
        with pytest.raises(LinkParseError, match="^line 2: times must be integers$"):
            parse_link_file(["a 1 b 0", line], permissive=True)
    with pytest.raises(LinkParseError, match="^line 1: times must be non-negative$"):
        parse_link_file(["a 1 b -1"])
