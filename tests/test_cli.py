from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings, strategies as st

from dyncomm import (
    ConfigError,
    GeneratorConfig,
    ModularityView,
    build_temporal_graph,
    coarsen_time,
    community_reports,
    generate,
    louvain,
    node_reports,
    parse_link_file,
    write_community_csv,
    write_cover,
    write_links,
    write_node_csv,
)
from dyncomm.cli import _load_graph, main, render_profile_svg
from dyncomm.metrics import COMMUNITY_HEADER, CommunityReport

BASE_CONFIG = {"n_c": 4, "m": 5, "t_max": 20, "w": 10, "d": 3, "p": 1.0, "seed": 13}


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, **overrides}))
    return path


def read_csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_generate_writes_links_and_assignment(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "links.txt"
    assert main(["generate", str(config), str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1200
    assignment = (tmp_path / "links.txt.assignment").read_text().strip().split("\n")
    assert len(assignment) == 20


def test_generate_rejects_bad_probability(tmp_path, capsys):
    config = write_config(tmp_path, p=1.5)
    assert main(["generate", str(config), str(tmp_path / "x.txt")]) == 1
    assert "config error" in capsys.readouterr().err


def test_generate_missing_config_file(tmp_path):
    assert main(["generate", str(tmp_path / "nope.json"), str(tmp_path / "x.txt")]) == 2


def test_detect_finds_planted_communities(tmp_path):
    config = write_config(tmp_path, d=4)
    links = tmp_path / "links.txt"
    cover = tmp_path / "cover.csv"
    assert main(["generate", str(config), str(links)]) == 0
    assert main(["detect", str(links), str(cover), "--seed", "5"]) == 0
    rows = read_csv_rows(cover)
    assert {row["community"] for row in rows} == {"0", "1", "2", "3"}


def test_detect_seed_defaults_to_42(tmp_path):
    links = tmp_path / "links.txt"
    assert main(["generate", str(write_config(tmp_path, p=0.85)), str(links)]) == 0
    covers = {}
    for name, seed in [("default", ()), ("42", ("--seed", "42")), ("43", ("--seed", "43"))]:
        assert main(["detect", str(links), str(tmp_path / f"{name}.csv"), *seed]) == 0
        covers[name] = (tmp_path / f"{name}.csv").read_bytes()
    assert covers["default"] == covers["42"]
    assert covers["43"] != covers["42"]  # the seed moves this graph's cover


def test_detect_gn_guard_on_large_graphs(tmp_path, capsys):
    # 40 nodes over 20 timesteps -> well above the 500-temporal-node cap
    big_config = write_config(tmp_path, n_c=4, m=10, t_max=20, w=10, d=2.5)
    big_links = tmp_path / "big.txt"
    main(["generate", str(big_config), str(big_links)])
    code = main(["detect", str(big_links), str(tmp_path / "c.csv"), "--algo", "gn"])
    assert code == 2
    assert "louvain" in capsys.readouterr().err


def test_detect_with_coarsening_runs_end_to_end(tmp_path):
    config = write_config(tmp_path)
    links = tmp_path / "links.txt"
    cover = tmp_path / "cover.csv"
    main(["generate", str(config), str(links)])
    assert main(["detect", str(links), str(cover), "--coarsen", "2"]) == 0
    rows = read_csv_rows(cover)
    assert max(int(row["timestep"]) for row in rows) <= 10


def test_coarsened_commands_match_library_coarsen_time(tmp_path):
    config = write_config(tmp_path, p=0.85)
    links = tmp_path / "links.txt"
    assert main(["generate", str(config), str(links)]) == 0
    cli, lib = tmp_path / "cli", tmp_path / "lib"
    lib.mkdir()
    assert main(["detect", str(links), str(cli / "cover.csv"), "--coarsen", "3", "--seed", "4"]) == 0
    assert main(["metrics", str(links), str(cli / "cover.csv"), "--coarsen", "3",
                 "--community-out", str(cli / "comm.csv"), "--node-out", str(cli / "nodes.csv")]) == 0
    tg = coarsen_time(build_temporal_graph(parse_link_file(links)), 3)
    cover = louvain(ModularityView.from_temporal_graph(tg), seed=4)
    write_cover(cover, lib / "cover.csv")
    write_community_csv(community_reports(cover, tg), lib / "comm.csv")
    write_node_csv(node_reports(cover, tg), lib / "nodes.csv")
    for name in ("cover.csv", "comm.csv", "nodes.csv"):
        assert (cli / name).read_bytes() == (lib / name).read_bytes(), name


def traced_ingest(tmp_path, k):
    """Traced bytes of `_load_graph` at ``k`` and of the view built from its graph.

    Returns ``(graph, load peak, graph + view, view-build peak, view)``, the
    bytes each counted from the bytes traced before the load.
    """
    links = tmp_path / "links.txt"
    config = GeneratorConfig(n_c=10, m=20, t_max=20, w=10, d=3, p=0.85, seed=5)
    write_links(generate(config)[0], links)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tg = _load_graph(str(links), False, k)
        graph, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        view = ModularityView.from_temporal_graph(tg)
        both, view_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert view.nodes is tg.nodes
    return graph - base, load_peak - base, both - base, view_peak - base, view


@pytest.mark.parametrize("k", [1, 5])
def test_ingest_peak_stays_near_the_graph_it_keeps(tmp_path, k):
    # Each distinct (label, bin) is held once while the links stream in, so
    # the peak follows the vertices, not every line's strings and tuples.
    graph, peak, _, _, _ = traced_ingest(tmp_path, k)
    assert peak <= 2.5 * graph


@pytest.mark.parametrize("k", [1, 5])
def test_view_build_peak_stays_near_graph_plus_view(tmp_path, k):
    # The fold counts each row's half-edges before it places them, so it
    # holds no per-row or per-pair objects beside the flat rows.
    _, _, both, peak, _ = traced_ingest(tmp_path, k)
    assert peak <= 1.2 * both


@pytest.mark.parametrize("k", [1, 5])
def test_view_holds_its_adjacency_in_flat_arrays(tmp_path, k):
    # Flat rows take 12 bytes per half-edge and 8 per node; rows of
    # (neighbour, weight) tuples took about 90 bytes per half-edge.
    view = traced_ingest(tmp_path, k)[4]
    half_edges = sum(len(row) for row in view.adj)
    assert view.offsets[-1] == len(view.targets) == len(view.weights) == half_edges > 0
    held = sum(sys.getsizeof(part) for part in (view.offsets, view.targets, view.weights))
    assert held <= 16 * half_edges + 16 * view.n_nodes


def test_louvain_peak_stays_below_the_graph(tmp_path):
    # Louvain reads the view's rows in place, with no sorted copy of them
    # per level and no per-pair objects.
    graph, _, _, _, view = traced_ingest(tmp_path, 1)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        louvain(view, seed=42)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.55 * graph


def test_detect_strict_mode_rejects_future_targets(tmp_path, capsys):
    links = tmp_path / "links.txt"
    links.write_text("A 1 B 2\n")
    assert main(["detect", str(links), str(tmp_path / "c.csv")]) == 2
    assert main(["detect", str(links), str(tmp_path / "c.csv"), "--permissive"]) == 0


def test_coarsening_validates_fine_times(tmp_path, capsys):
    # Both times fall in bin 0, but the target is newer than the source.
    links = tmp_path / "links.txt"
    links.write_text("A 5 B 6\n")
    out = tmp_path / "c.csv"
    assert main(["detect", str(links), str(out), "--coarsen", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: target newer than source")
    assert not out.exists()
    assert main(["detect", str(links), str(out), "--coarsen", "10", "--permissive"]) == 0


@pytest.mark.parametrize("command", ["detect", "metrics", "repair"])
def test_bad_last_link_line_fails_before_any_output(tmp_path, capsys, command):
    # 1500 good lines put the bad one past the decoder's first 8 KiB chunk.
    links = tmp_path / "links.txt"
    links.write_text("a 2 b 1\n" * 1500 + "a 2 b\n")
    cover = tmp_path / "cover.csv"
    cover.write_text("node,timestep,community\na,2,0\nb,1,0\n")
    out = tmp_path / "out.csv"
    args = {
        "detect": ["detect", str(links), str(out)],
        "metrics": ["metrics", str(links), str(cover), "--community-out", str(out)],
        "repair": ["repair", str(links), str(cover), str(out)],
    }[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == "error: line 1501: expected 4 whitespace-separated fields, got 3\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cover.csv", "links.txt"]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "out, links, code", [("c.csv", "a 2 b 1\n", 0), ("links.txt", "a 2 b 1\n", 1), ("c.csv", "a 2 b\n", 2)]
)
def test_main_pauses_gc_and_restores_the_callers_setting(
    tmp_path, monkeypatch, capsys, enabled, out, links, code
):
    import dyncomm.cli

    during = []
    outputs = dyncomm.cli._outputs

    def spy(*args):
        during.append(gc.isenabled())
        return outputs(*args)

    monkeypatch.setattr(dyncomm.cli, "_outputs", spy)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "links.txt").write_text(links)
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        assert main(["detect", "links.txt", out]) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert during == [False]


def test_metrics_matches_hand_computed_fixture(tmp_path):
    links = tmp_path / "links.txt"
    links.write_text(
        "\n".join(
            [
                # community 0: two nodes, a cites itself once and b twice
                "a 2 a 1",
                "a 2 b 1",
                "a 3 b 2",
                "b 3 b 2",
                # community 1: single recurring node
                "z 2 z 1",
                "z 3 z 2",
            ]
        )
        + "\n"
    )
    cover = tmp_path / "cover.csv"
    cover.write_text(
        "node,timestep,community\n"
        "a,1,0\na,2,0\na,3,0\nb,1,0\nb,2,0\nb,3,0\n"
        "z,1,1\nz,2,1\nz,3,1\n"
    )
    community_out = tmp_path / "comm.csv"
    node_out = tmp_path / "nodes.csv"
    assert (
        main(
            [
                "metrics",
                str(links),
                str(cover),
                "--community-out",
                str(community_out),
                "--node-out",
                str(node_out),
            ]
        )
        == 0
    )
    by_id = {row["community"]: row for row in read_csv_rows(community_out)}
    c0 = by_id["0"]
    assert (c0["z"], c0["temporal_size"], c0["internal_links"]) == ("2", "6", "4")
    assert float(c0["NA"]) == pytest.approx(1 - 2 / 6)
    assert float(c0["SC"]) == pytest.approx(2 / 4)
    # out-weights a: 3, b: 1 -> p = (0.75, 0.25)
    expected_hi = (2 * (1 / (2 * (0.75**2 + 0.25**2))) - 1) / 1
    assert float(c0["HI"]) == pytest.approx(expected_hi)
    c1 = by_id["1"]
    assert (c1["z"], c1["SC"], c1["HI"]) == ("1", "1.0", "1.0")

    nodes = {row["node"]: row for row in read_csv_rows(node_out)}
    assert nodes["a"]["lifetime"] == "3"
    assert nodes["a"]["membership"] == "1"
    assert float(nodes["a"]["CM"]) == pytest.approx(1 / 3)
    assert nodes["a"]["CT"] == "0.0"


def test_metrics_detects_cover_mismatch(tmp_path, capsys):
    links = tmp_path / "links.txt"
    links.write_text("a 2 b 1\n")
    cover = tmp_path / "cover.csv"
    cover.write_text("node,timestep,community\na,2,0\nb,1,0\nghost,9,0\n")
    assert main(["metrics", str(links), str(cover)]) == 2
    assert "ghost" in capsys.readouterr().err


def test_metrics_redensifies_gappy_ids_with_warning(tmp_path, capsys):
    links = tmp_path / "links.txt"
    links.write_text("a 2 b 1\n")
    cover = tmp_path / "cover.csv"
    cover.write_text("node,timestep,community\na,2,3\nb,1,7\n")
    assert main(["metrics", str(links), str(cover)]) == 0
    captured = capsys.readouterr()
    assert "re-densified" in captured.err
    assert "community,z,temporal_size,NA,SC,HI,internal_links" in captured.out


def test_metrics_redensifies_negative_ids_without_gaps(tmp_path, capsys):
    # Ids -1,0 have no gap, yet they are not 0..k-1 either.
    links = tmp_path / "links.txt"
    links.write_text("a 2 b 1\n")
    cover = tmp_path / "cover.csv"
    cover.write_text("node,timestep,community\na,2,-1\nb,1,0\n")
    assert main(["metrics", str(links), str(cover), "--community-out", str(tmp_path / "c.csv")]) == 0
    err = capsys.readouterr().err
    assert f"community ids in {cover} were not 0..k-1; re-densified to 0..1" in err
    assert [row["community"] for row in read_csv_rows(tmp_path / "c.csv")] == ["0", "1"]


def test_metrics_stdout_contains_both_tables(tmp_path, capsys):
    links = tmp_path / "links.txt"
    links.write_text("a 2 a 1\n")
    cover = tmp_path / "cover.csv"
    cover.write_text("node,timestep,community\na,1,0\na,2,0\n")
    assert main(["metrics", str(links), str(cover)]) == 0
    out = capsys.readouterr().out
    assert "community,z," in out and "node,lifetime," in out


@pytest.mark.parametrize("given", ["--community-out", "--node-out"])
def test_metrics_writes_a_table_without_a_path_to_stdout(tmp_path, capsys, given):
    links = tmp_path / "links.txt"
    links.write_text("a 2 a 1\nb 2 a 2\n")
    cover = tmp_path / "cover.csv"
    cover.write_text("node,timestep,community\na,1,0\na,2,0\nb,2,0\n")
    both = tmp_path / "c.csv", tmp_path / "n.csv"
    args = ["metrics", str(links), str(cover)]
    assert main(args + ["--community-out", str(both[0]), "--node-out", str(both[1])]) == 0
    texts = dict(zip(["--community-out", "--node-out"], (path.read_text() for path in both)))
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert main(args + [given, str(out)]) == 0
    (other,) = set(texts) - {given}
    assert out.read_text() == texts[given]
    assert capsys.readouterr().out == texts[other]


def circles(svg: str) -> list[tuple[float, float, float]]:
    return [
        (float(m.group(1)), float(m.group(2)), float(m.group(3)))
        for m in re.finditer(r'<circle cx="([\d.]+)" cy="([\d.]+)" r="([\d.]+)"', svg)
    ]


def test_profile_places_single_community(tmp_path):
    communities = tmp_path / "comm.csv"
    communities.write_text(
        "community,z,temporal_size,NA,SC,HI,internal_links\n0,1,10,0.9,1.0,1.0,9\n"
    )
    out = tmp_path / "profile.svg"
    assert main(["profile", str(communities), str(out)]) == 0
    svg = out.read_text()
    points = circles(svg)
    assert len(points) == 1
    cx, cy, r = points[0]
    assert cx > 520 * 0.7    # high NA: right side
    assert cy < 520 * 0.3    # high SC: top
    assert r > 3.0


def test_profile_empty_input_still_draws_axes(tmp_path):
    communities = tmp_path / "comm.csv"
    communities.write_text("community,z,temporal_size,NA,SC,HI,internal_links\n")
    out = tmp_path / "profile.svg"
    assert main(["profile", str(communities), str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert circles(svg) == []
    assert svg.count("<line") >= 2


def test_profile_radius_monotone_in_z():
    reports = [
        CommunityReport(community=i, z=z, temporal_size=z, na=0.5, sc=0.5, hi=1.0, internal_links=0)
        for i, z in enumerate([1, 5, 50])
    ]
    radii = [r for _, _, r in circles(render_profile_svg(reports))]
    assert radii == sorted(radii)
    assert len(set(radii)) == 3


SVG = "{http://www.w3.org/2000/svg}"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.builds(
            CommunityReport,
            community=st.integers(0, 10**6),
            z=st.integers(1, 10**4),
            temporal_size=st.integers(1, 10**4),
            na=st.floats(0, 1),
            sc=st.floats(0, 1),
            hi=st.floats(0, 1),
            internal_links=st.integers(0, 10**4),
        ),
        max_size=40,
    )
)
def test_profile_geometry(reports):
    # The golden digest pins one plot; this pins where any report is drawn.
    root = ElementTree.fromstring(render_profile_svg(reports))
    drawn = root.findall(f"{SVG}circle")
    assert len(drawn) == len(reports)
    for circle, r in zip(drawn, reports):
        assert circle.find(f"{SVG}title").text == f"community {r.community}: z={r.z}"
        assert float(circle.get("cx")) == pytest.approx(60 + r.na * 400, abs=1e-9)
        assert float(circle.get("cy")) == pytest.approx(460 - r.sc * 400, abs=1e-9)
        assert float(circle.get("r")) == pytest.approx(3 + 3 * math.log1p(r.z))
    labels = [t.text for t in root.findall(f"{SVG}text")]
    assert sorted(labels) == sorted(["0", "0.25", "0.5", "0.75", "1"] * 2 + ["NA", "SC"])


def test_profile_shifts_right_with_p(tmp_path):
    # p=1 cloud should sit at higher NA than p=0.5
    means = {}
    for p in (0.5, 1.0):
        config = write_config(tmp_path, p=p, seed=3)
        links = tmp_path / f"links{p}.txt"
        cover = tmp_path / f"cover{p}.csv"
        comm = tmp_path / f"comm{p}.csv"
        svg = tmp_path / f"profile{p}.svg"
        assert main(["generate", str(config), str(links)]) == 0
        assert main(["detect", str(links), str(cover)]) == 0
        assert main(["metrics", str(links), str(cover), "--community-out", str(comm),
                     "--node-out", str(tmp_path / "n.csv")]) == 0
        assert main(["profile", str(comm), str(svg)]) == 0
        points = circles(svg.read_text())
        means[p] = sum(cx for cx, _, _ in points) / len(points)
    assert means[1.0] > means[0.5]


def test_sweep_summary_trends(tmp_path):
    config = write_config(tmp_path)
    outdir = tmp_path / "sweep"
    assert (
        main(
            [
                "sweep",
                str(config),
                str(outdir),
                "--param",
                "p",
                "--values",
                "0.5,0.85,1.0",
                "--seeds",
                "0,1",
            ]
        )
        == 0
    )
    rows = read_csv_rows(outdir / "summary.csv")
    assert len(rows) == 6
    mean_d = {}
    for value in ("0.5", "0.85", "1.0"):
        cells = [float(r["D"]) for r in rows if r["value"] == value]
        mean_d[value] = sum(cells) / len(cells)
    assert mean_d["0.5"] > mean_d["0.85"] > mean_d["1.0"]
    assert (outdir / "links_p0.5_s0.txt").exists()
    assert (outdir / "cover_p1_s1.csv").exists()


def test_sweep_over_degree_shows_fragmentation(tmp_path):
    config = write_config(tmp_path, p=1.0)
    outdir = tmp_path / "dsweep"
    assert (
        main(
            ["sweep", str(config), str(outdir), "--param", "d",
             "--values", "2,4", "--seeds", "0"]
        )
        == 0
    )
    rows = {row["value"]: row for row in read_csv_rows(outdir / "summary.csv")}
    assert int(rows["4.0"]["communities"]) == 4
    assert int(rows["2.0"]["communities"]) > 4


def test_sweep_rejects_empty_values(tmp_path, capsys):
    config = write_config(tmp_path)
    assert (
        main(
            ["sweep", str(config), str(tmp_path / "out"), "--param", "p",
             "--values", "", "--seeds", "1"]
        )
        == 1
    )
    assert (
        main(
            ["sweep", str(config), str(tmp_path / "out"), "--param", "p",
             "--values", "0.5", "--seeds", ","]
        )
        == 1
    )


def test_sweep_parallel_jobs_match_serial(tmp_path):
    config = write_config(tmp_path)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = ["--param", "p", "--values", "0.85,1.0", "--seeds", "0,1"]
    assert main(["sweep", str(config), str(serial)] + args) == 0
    assert main(["sweep", str(config), str(parallel), "--jobs", "2"] + args) == 0
    assert (serial / "summary.csv").read_bytes() == (parallel / "summary.csv").read_bytes()
    for name in ("links_p0.85_s0.txt", "cover_p1_s1.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_pipeline_composes_quickly(tmp_path):
    import time

    start = time.perf_counter()
    config = write_config(tmp_path)
    links = tmp_path / "links.txt"
    cover = tmp_path / "cover.csv"
    comm = tmp_path / "comm.csv"
    assert main(["generate", str(config), str(links)]) == 0
    assert main(["detect", str(links), str(cover)]) == 0
    assert main(["metrics", str(links), str(cover), "--community-out", str(comm),
                 "--node-out", str(tmp_path / "nodes.csv")]) == 0
    assert main(["profile", str(comm), str(tmp_path / "profile.svg")]) == 0
    assert time.perf_counter() - start < 10.0


def test_repair_merges_via_files(tmp_path):
    links = tmp_path / "links.txt"
    links.write_text(
        "A 2 A 1\nA 3 A 2\nA 4 A 3\nA 5 A 4\nA 6 A 5\nB 5 A 5\n"
    )
    cover = tmp_path / "cover.csv"
    cover.write_text(
        "node,timestep,community\n"
        "A,1,0\nA,2,0\nA,3,0\n"
        "A,4,1\nA,5,1\nA,6,1\nB,5,1\n"
    )
    out = tmp_path / "repaired.csv"
    trace = tmp_path / "trace.csv"
    assert main(["repair", str(links), str(cover), str(out), "--trace", str(trace)]) == 0
    assert {row["community"] for row in read_csv_rows(out)} == {"0"}
    trace_rows = read_csv_rows(trace)
    assert len(trace_rows) == 1
    assert float(trace_rows[0]["merged_NA"]) == pytest.approx(5 / 7)


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["detect"])  # missing required positionals
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize(
    "values, seeds",
    [("0.1234561,0.1234564", "1"), ("0.5,0.5", "1"), ("0.5", "3,3")],
)
def test_sweep_rejects_cells_that_share_a_file_tag(tmp_path, capsys, values, seeds):
    config = write_config(tmp_path)
    outdir = tmp_path / "out"
    args = ["sweep", str(config), str(outdir), "--param", "p", "--values", values, "--seeds", seeds]
    assert main(args) == 1
    err = capsys.readouterr().err
    # The first two cells that share a tag name one links file.
    links = re.escape(str(outdir / "links_p"))
    assert re.search(rf"^usage error: output ({links}\S+) and output \1 name the same file$", err, re.M)
    assert "Traceback" not in err
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["metrics", "repair"])
@pytest.mark.parametrize(
    "rows, line",
    [("a,2,0\nb,x,0\n", 3), ("a,2,0\nb,1,zero\n", 3), ("a,2\n", 2), ("a,2,0\na,2,1\n", 3)],
)
def test_bad_cover_rows_name_their_line(tmp_path, capsys, command, rows, line):
    links = tmp_path / "links.txt"
    links.write_text("a 2 b 1\n")
    cover = tmp_path / "cover.csv"
    cover.write_text("node,timestep,community\n" + rows)
    args = [command, str(links), str(cover)]
    if command == "repair":
        args.append(str(tmp_path / "repaired.csv"))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert "Traceback" not in err


def test_repair_names_the_disagreeing_temporal_node(tmp_path, capsys):
    links = tmp_path / "links.txt"
    links.write_text("a 2 b 1\n")
    cover = tmp_path / "cover.csv"
    cover.write_text("node,timestep,community\na,2,0\n")
    out = tmp_path / "repaired.csv"
    assert main(["repair", str(links), str(cover), str(out)]) == 2
    err = capsys.readouterr().err
    assert "disagree on temporal node (b,1)" in err
    assert "Traceback" not in err
    assert not out.exists()
    cover.write_text("node,timestep,community\na,2,0\nb,1,0\nghost,9,0\n")
    assert main(["repair", str(links), str(cover), str(out)]) == 2
    assert "disagree on temporal node (ghost,9)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, line, message",
    [
        ("0,1,2\n", 2, "expected 7 fields"),
        ("0,1,1,0.0,0.0,1.0,0\n1,2,3,x,0,0,0\n", 3, "could not convert"),
        ("0,1,1,0.0,0.0,1.0,0,9\n", 2, "expected 7 fields"),
        ("0,1,2,nan,inf,0,0\n", 2, "NA must be finite, got nan"),
        ("0,1,1,0.0,0.0,1.0,0\n0,1,2,0.5,inf,0,0\n", 3, "SC must be finite, got inf"),
        ("0,1,2,0.5,0.5,-inf,0\n", 2, "HI must be finite, got -inf"),
        ("0,-5,2,0.5,0.5,0.5,1\n", 2, "z must be at least 1, got -5"),
        ("0,1,1,0.0,0.0,1.0,0\n1,0,2,0.5,0.5,0.5,1\n", 3, "z must be at least 1, got 0"),
        ("0,1,2,7.5,-3,0.5,1\n", 2, "NA must lie in [0, 1], got 7.5"),
        ("0,1,2,0.5,-3,0.5,1\n", 2, "SC must lie in [0, 1], got -3.0"),
        ("0,1,1,0.0,0.0,1.0,0\n0,1,1,0.0,0.0,1.0,0\n", 3, "community 0 appears more than once"),
    ],
    ids=[
        "short-row", "not-a-float", "extra-field", "na-nan", "sc-inf", "hi-minus-inf",
        "z-negative", "z-zero", "na-above-1", "sc-negative", "duplicate-id",
    ],
)
def test_bad_community_rows_name_their_line(tmp_path, capsys, rows, line, message):
    communities = tmp_path / "communities.csv"
    communities.write_text("community,z,temporal_size,NA,SC,HI,internal_links\n" + rows)
    out = tmp_path / "profile.svg"
    assert main(["profile", str(communities), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, sweep, message",
    [
        ({"d": float("inf")}, None, "d must be finite, got inf"),
        ({"n_c": 2.7}, None, "n_c must be an integer, got 2.7"),
        ({"seed": True}, None, "seed must be a number, got True"),
        ({}, ("d", "inf"), "d must be finite, got inf"),
        ({}, ("d", "nan"), "d must be finite, got nan"),
        ({}, ("p", "0.5,1.5"), "p must lie in [0, 1], got 1.5"),
        ({"t_mx": 50, "colour": "red"}, None, "unknown config keys: ['colour', 't_mx']"),
        ({"t_mx": 50, "colour": "red"}, ("p", "0.5"), "unknown config keys: ['colour', 't_mx']"),
    ],
    ids=[
        "json-d-inf", "json-n_c-2.7", "json-seed-true", "sweep-d-inf", "sweep-d-nan", "sweep-p-1.5",
        "json-unknown-keys", "sweep-unknown-keys",
    ],
)
def test_invalid_config_values_are_config_errors(tmp_path, capsys, overrides, sweep, message):
    config = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    if sweep is None:
        args = ["generate", str(config), str(out / "links.txt")]
    else:
        param, values = sweep
        args = ["sweep", str(config), str(out), "--param", param, "--values", values, "--seeds", "1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, code, written",
    [
        (["generate", "config.json", "out/links.txt", "--assignment", "new/a.txt"], 0,
         ["new/a.txt", "out/links.txt"]),
        (["generate", "config.json", "x.txt", "--assignment", "x.txt"], 1, []),
        (["repair", "data.txt", "cover.csv", "r.csv", "--trace", "r.csv"], 1, []),
        (["metrics", "data.txt", "cover.csv", "--community-out", "m.csv", "--node-out", "m.csv"], 1, []),
        (["repair", "data.txt", "cover.csv", "r.csv", "--trace", "nodir/t.csv"], 0,
         ["nodir/t.csv", "r.csv"]),
        (["metrics", "data.txt", "cover.csv", "--community-out", "c.csv", "--node-out", "nodir2/n.csv"], 0,
         ["c.csv", "nodir2/n.csv"]),
        (["generate", "config.json", "config.json"], 1, []),
        (["generate", "config.json", "x.txt", "--assignment", "./config.json"], 1, []),
        (["detect", "data.txt", "data.txt"], 1, []),
        (["metrics", "data.txt", "cover.csv", "--node-out", "data.txt"], 1, []),
        (["metrics", "data.txt", "cover.csv", "--community-out", "sub/../cover.csv"], 1, []),
        (["repair", "data.txt", "cover.csv", "cover.csv"], 1, []),
        (["repair", "data.txt", "cover.csv", "r.csv", "--trace", "data.txt"], 1, []),
        (["profile", "comm.csv", "comm.csv"], 1, []),
    ],
    ids=[
        "generate-new-dirs", "generate-same-file", "repair-same-file", "metrics-same-file",
        "repair-new-dir", "metrics-new-dir", "generate-config", "generate-assignment-config",
        "detect-links", "metrics-links", "metrics-cover", "repair-in-place", "repair-trace-links",
        "profile-communities",
    ],
)
def test_output_paths_are_checked_before_writing(tmp_path, monkeypatch, capsys, args, code, written):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    (tmp_path / "data.txt").write_text("a 2 b 1\n")
    (tmp_path / "cover.csv").write_text("node,timestep,community\na,2,0\nb,1,0\n")
    (tmp_path / "comm.csv").write_text("community,z,temporal_size,NA,SC,HI,internal_links\n")
    inputs = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(args) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("usage error: ") and "name the same file" in err
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert [f for f in files if f not in inputs] == written
    assert all((tmp_path / f).stat().st_size > 0 for f in written)
    assert {name: (tmp_path / name).read_bytes() for name in inputs} == inputs


@pytest.mark.parametrize(
    "args, directory",
    [
        (["metrics", "data.txt", "cover.csv", "--community-out", "comm.csv", "--node-out", "adir"], "adir"),
        (["repair", "data.txt", "cover.csv", "keep.csv", "--trace", "adir"], "adir"),
        (["generate", "config.json", "x.txt", "--assignment", "adir"], "adir"),
        (["sweep", "config.json", "out", "--param", "p", "--values", "0.5", "--seeds", "1"],
         "out/summary.csv"),
    ],
    ids=["metrics-node-out", "repair-trace", "generate-assignment", "sweep-summary"],
)
def test_an_output_that_is_a_directory_writes_nothing(tmp_path, monkeypatch, capsys, args, directory):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    (tmp_path / "data.txt").write_text("a 2 b 1\n")
    (tmp_path / "cover.csv").write_text("node,timestep,community\na,2,0\nb,1,0\n")
    (tmp_path / "keep.csv").write_text("old bytes\n")
    (tmp_path / directory).mkdir(parents=True)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: output {directory} is a directory\n"
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "args, files",
    [
        (["detect", "e.txt", "nd/sub/c.csv"], {"e.txt": "# no links\n"}),
        (["detect", "bad.txt", "nd2/c.csv"], {"bad.txt": "a 2 b 1\na 2 b\n"}),
        (["metrics", "data.txt", "part.csv", "--community-out", "new/c.csv"], {}),
        (["repair", "data.txt", "part.csv", "new/r.csv"], {}),
        (["profile", "comm.csv", "new/p.svg"], {"comm.csv": "community,z\n"}),
    ],
    ids=["detect-edgeless", "detect-bad-line", "metrics-missing-node", "repair-missing-node",
         "profile-bad-row"],
)
def test_a_failed_command_creates_no_directory(tmp_path, monkeypatch, capsys, args, files):
    # A file's missing parent directories are made only when the file is written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.txt").write_text("a 2 b 1\n")
    (tmp_path / "part.csv").write_text("node,timestep,community\na,2,0\n")
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    before = set(tmp_path.rglob("*"))
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("algo", ["louvain", "gn"])
def test_detect_writes_rows_in_graph_order(tmp_path, algo):
    # Components {a,b,e} and {c,d}: breadth-first order a,b,e,c,d is not graph order a,b,c,d,e.
    links = tmp_path / "links.txt"
    links.write_text("a 1 b 1\nc 1 d 1\na 1 e 1\n")
    out = tmp_path / "cover.csv"
    assert main(["detect", str(links), str(out), "--algo", algo]) == 0
    rows = [(row["node"], int(row["timestep"])) for row in read_csv_rows(out)]
    assert rows == list(build_temporal_graph(parse_link_file(links)).nodes)


@pytest.mark.parametrize("name", ["links_p0.5_s1.txt", "assignment_p0.5_s1.txt", "cover_p0.5_s1.csv"])
def test_sweep_never_writes_over_its_config(tmp_path, capsys, name):
    outdir = tmp_path / "out"
    outdir.mkdir()
    config = write_config(tmp_path).rename(outdir / name)
    before = config.read_bytes()
    args = ["sweep", str(config), str(outdir), "--param", "p", "--values", "0.5", "--seeds", "1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "name the same file" in err
    assert "Traceback" not in err
    assert config.read_bytes() == before
    assert [p.name for p in outdir.iterdir()] == [name]


@pytest.mark.parametrize("bad_file", ["links", "cover", "config"])
def test_undecodable_byte_names_its_line(tmp_path, capsys, bad_file):
    # 1500 lines put the bad byte past the decoder's first 8 KiB chunk.
    links = tmp_path / "links.txt"
    cover = tmp_path / "cover.csv"
    links.write_text("a 2 b 1\n")
    cover.write_text("node,timestep,community\na,2,0\nb,1,0\n")
    if bad_file == "links":
        links.write_bytes(b"a 2 b 1\n" * 1500 + b"a 2 \xff 1\n")
        args, line = ["detect", str(links), str(tmp_path / "out.csv")], 1501
    elif bad_file == "cover":
        rows = b"".join(b"n%d,1,0\n" % i for i in range(1500))
        cover.write_bytes(b"node,timestep,community\n" + rows + b"\xff,1,0\n")
        args, line = ["metrics", str(links), str(cover)], 1502
    else:
        config = write_config(tmp_path)
        config.write_bytes(config.read_bytes().replace(b", ", b",\n").replace(b'"seed"', b'"s\xffd"'))
        args, line = ["generate", str(config), str(tmp_path / "out" / "links.txt")], 7
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"error: line {line}: not UTF-8 text\n"
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out").exists()


def test_sweep_pool_never_outnumbers_its_cells(tmp_path, monkeypatch):
    # A stand-in pool: it records its size and runs the cells in this process,
    # so no --jobs value here starts a real worker.
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = write_config(tmp_path)
    cells = ["--param", "p", "--values", "0.85,1.0", "--seeds", "0"]
    runs = {"serial": [], "jobs5000": ["--jobs", "5000"], "jobs2": ["--jobs", "2"]}
    for name, jobs in runs.items():
        assert main(["sweep", str(config), str(tmp_path / name)] + cells + jobs) == 0
    assert sizes == [2, 2]
    for name in ("jobs5000", "jobs2"):
        files = sorted(p.name for p in (tmp_path / name).iterdir())
        assert files == sorted(p.name for p in (tmp_path / "serial").iterdir())
        for file in files:
            assert (tmp_path / name / file).read_bytes() == (tmp_path / "serial" / file).read_bytes()
    one_cell = ["--param", "p", "--values", "1.0", "--seeds", "0", "--jobs", "5000"]
    assert main(["sweep", str(config), str(tmp_path / "one")] + one_cell) == 0
    assert sizes == [2, 2]  # one cell runs without a pool


# Every error `main` can reach, at least one case per raise site: exit code,
# message prefix and no traceback.  argparse reports its own errors (exit 1,
# after a usage line).  Raise sites that no command input can reach are left
# out: `write_links` (generated labels read back), `read_assignment` (no command
# reads one), `cell_config`'s parameter check (argparse's --param choices come
# first), `dissimilarity`'s size checks (a generated graph has at least two
# temporal nodes), `repair`'s and `coarsen_time`'s factor checks (argparse
# takes positive integers only) and the TemporalGraph and Cover constructors'
# checks (always built consistent).  The two `disagree` rows reach
# `Cover.membership`, the one place a cover is checked against its graph.
# Each row's id is fixed, so that editing a message keeps the row's test id:
# the first 71 keep the ids pytest once derived from all their arguments.
LINKS = "a 2 b 1\n"
COVER = "node,timestep,community\na,2,0\nb,1,0\n"
COMMUNITIES = "community,z,temporal_size,NA,SC,HI,internal_links\n"
USAGE, CONFIG, DATA = "usage: ", "config error: ", "error: "
SWEEP = ["sweep", "config.json", "out", "--param", "p"]


def cfg(**overrides):
    """A ``bad.json`` that overrides keys of the valid base config."""
    return {"bad.json": json.dumps({**BASE_CONFIG, **overrides})}


@pytest.mark.parametrize(
    "argv, files, code, prefix, message",
    [
        # argparse
        pytest.param(["detect"], {}, 1, USAGE, "the following arguments are required: links, out",
            id="argv0-files0-1-usage: -the following arguments are required: links, out"),
        pytest.param(["frobnicate"], {}, 1, USAGE, "invalid choice: 'frobnicate'",
            id="argv1-files1-1-usage: -invalid choice: 'frobnicate'"),
        pytest.param(["detect", "links.txt", "c.csv", "--coarsen", "0"], {}, 1, USAGE,
            "argument --coarsen: must be a positive integer",
            id="argv2-files2-1-usage: -argument --coarsen: must be a positive integer"),
        pytest.param(["detect", "links.txt", "c.csv", "--seed", "x"], {}, 1, USAGE, "invalid int value: 'x'",
            id="argv3-files3-1-usage: -invalid int value: 'x'"),
        pytest.param(SWEEP[:4] + ["w", "--values", "1", "--seeds", "1"], {}, 1, USAGE, "invalid choice: 'w'",
            id="argv4-files4-1-usage: -invalid choice: 'w'"),
        pytest.param(SWEEP + ["--values", "1", "--seeds", "1", "--jobs", "0"], {}, 1, USAGE,
            "argument --jobs: must be a positive integer",
            id="argv5-files5-1-usage: -argument --jobs: must be a positive integer"),
        # `_outputs`
        pytest.param(["detect", "links.txt", "links.txt"], {}, 1, "usage error: ", "name the same file",
            id="argv6-files6-1-usage error: -name the same file"),
        pytest.param(["repair", "links.txt", "cover.csv", "r.csv", "--trace", "r.csv"], {}, 1, "usage error: ",
            "output r.csv and output r.csv name the same file",
            id="argv7-files7-1-usage error: -output r.csv and output r.csv name the same file"),
        # generator config, through generate and sweep
        pytest.param(["generate", "bad.json", "x.txt"], {"bad.json": "{"}, 1, CONFIG, "invalid config JSON",
            id="argv8-files8-1-config error: -invalid config JSON"),
        pytest.param(["generate", "bad.json", "x.txt"], {"bad.json": "[1]"}, 1, CONFIG, "must be an object",
            id="argv9-files9-1-config error: -must be an object"),
        pytest.param(["generate", "bad.json", "x.txt"], {"bad.json": '{"n_c": 2}'}, 1, CONFIG, "missing config keys",
            id="argv10-files10-1-config error: -missing config keys"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(colour=1), 1, CONFIG, "unknown config keys: ['colour']",
            id="argv11-files11-1-config error: -unknown config keys: ['colour']"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(seed=True), 1, CONFIG, "seed must be a number",
            id="argv12-files12-1-config error: -seed must be a number"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(m=2.5), 1, CONFIG, "m must be an integer, got 2.5",
            id="argv13-files13-1-config error: -m must be an integer, got 2.5"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(n_c="two"), 1, CONFIG, "non-numeric config value",
            id="argv14-files14-1-config error: -non-numeric config value"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(seed=None), 1, CONFIG, "non-numeric config value",
            id="argv15-files15-1-config error: -non-numeric config value"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(n_c=0), 1, CONFIG, "n_c and m must be positive",
            id="argv16-files16-1-config error: -n_c and m must be positive"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(t_max=0), 1, CONFIG, "t_max must be positive",
            id="argv17-files17-1-config error: -t_max must be positive"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(w=0), 1, CONFIG, "window w must be positive",
            id="argv18-files18-1-config error: -window w must be positive"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(p=-0.1), 1, CONFIG, "p must lie in [0, 1], got -0.1",
            id="argv19-files19-1-config error: -p must lie in [0, 1], got -0.1"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(d=-1), 1, CONFIG, "d must be positive",
            id="argv20-files20-1-config error: -d must be positive"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(d=float("inf")), 1, CONFIG, "d must be finite, got inf",
            id="argv21-files21-1-config error: -d must be finite, got inf"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(d=0.01), 1, CONFIG, "d*n must be a positive integer",
            id="argv22-files22-1-config error: -d*n must be a positive integer"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(m=1, p=0.5, d=1), 1, CONFIG,
            "p > 0 requires communities of at least 2 members",
            id="argv23-files23-1-config error: -p > 0 requires communities of at least 2 members"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(n_c=1, p=0.5), 1, CONFIG,
            "p < 1 requires at least 2 communities",
            id="argv24-files24-1-config error: -p < 1 requires at least 2 communities"),
        pytest.param(SWEEP + ["--values", "0.5,x", "--seeds", "1"], {}, 1, CONFIG, "--values takes floats",
            id="argv25-files25-1-config error: ---values takes floats"),
        pytest.param(SWEEP + ["--values", "0.5", "--seeds", "1.5"], {}, 1, CONFIG, "--seeds integers",
            id="argv26-files26-1-config error: ---seeds integers"),
        pytest.param(SWEEP + ["--values", ",", "--seeds", "1"], {}, 1, CONFIG, "--values must list at least one",
            id="argv27-files27-1-config error: ---values must list at least one"),
        pytest.param(SWEEP + ["--values", "0.5", "--seeds", ""], {}, 1, CONFIG, "--seeds must list at least one",
            id="argv28-files28-1-config error: ---seeds must list at least one"),
        pytest.param(SWEEP + ["--values", "0.5,0.50", "--seeds", "1"], {}, 1, "usage error: ",
            "output out/links_p0.5_s1.txt and output out/links_p0.5_s1.txt name the same file",
            id="argv29-files29-1-usage error: -output out/links_p0.5_s1.txt and output out/links_p0.5_s1.txt name the same file"),
        pytest.param(SWEEP + ["--values", "0.5,-0.5", "--seeds", "1"], {}, 1, CONFIG, "p must lie in [0, 1]",
            id="argv30-files30-1-config error: -p must lie in [0, 1]"),
        pytest.param(["sweep", "bad.json", "out", "--param", "d", "--values", "2", "--seeds", "1"], cfg(w=0), 1,
            CONFIG, "window w must be positive",
            id="argv31-files31-1-config error: -window w must be positive"),
        # files that cannot be read or written
        pytest.param(["detect", "nope.txt", "c.csv"], {}, 2, DATA, "No such file or directory",
            id="argv32-files32-2-error: -No such file or directory"),
        pytest.param(["detect", "links.txt", "links.txt/c.csv"], {}, 2, DATA, "File exists",
            id="argv33-files33-2-error: -File exists"),
        pytest.param(["detect", "bad.txt", "c.csv"], {"bad.txt": b"a 2 \xff 1\n"}, 2, DATA, "line 1: not UTF-8 text",
            id="argv34-files34-2-error: -line 1: not UTF-8 text"),
        # link files, through every command that reads one
        pytest.param(["detect", "bad.txt", "c.csv"], {"bad.txt": "a 2 b 1\na 2 b\n"}, 2, DATA,
            "line 2: expected 4 whitespace-separated fields, got 3",
            id="argv35-files35-2-error: -line 2: expected 4 whitespace-separated fields, got 3"),
        pytest.param(["metrics", "bad.txt", "cover.csv"], {"bad.txt": "a 2 b x\n"}, 2, DATA,
            "line 1: times must be integers",
            id="argv36-files36-2-error: -line 1: times must be integers"),
        pytest.param(["repair", "bad.txt", "cover.csv", "r.csv"], {"bad.txt": "a 2 b -1\n"}, 2, DATA,
            "line 1: times must be non-negative",
            id="argv37-files37-2-error: -line 1: times must be non-negative"),
        pytest.param(["detect", "bad.txt", "c.csv"], {"bad.txt": "a 1 b 2\n"}, 2, DATA,
            "line 1: target newer than source",
            id="argv38-files38-2-error: -line 1: target newer than source"),
        # detection
        pytest.param(["detect", "bad.txt", "c.csv"], {"bad.txt": "# no links\n"}, 2, DATA,
            "louvain undefined: graph has no edges",
            id="argv39-files39-2-error: -louvain undefined: graph has no edges"),
        pytest.param(["detect", "bad.txt", "c.csv", "--algo", "gn"], {"bad.txt": ""}, 2, DATA,
            "girvan-newman undefined: graph has no edges",
            id="argv40-files40-2-error: -girvan-newman undefined: graph has no edges"),
        pytest.param(["detect", "big.txt", "c.csv", "--algo", "gn"],
            {"big.txt": "".join(f"n{i} 1 n{i + 1} 1\n" for i in range(500))}, 2, DATA,
            "501 nodes exceeds the Girvan-Newman limit of 500",
            id="argv41-files41-2-error: -501 nodes exceeds the Girvan-Newman limit of 500"),
        # cover CSVs, through metrics and repair
        pytest.param(["metrics", "links.txt", "bad.csv"], {"bad.csv": "node,t,community\n"}, 2, DATA,
            "line 1: expected cover header",
            id="argv42-files42-2-error: -line 1: expected cover header"),
        pytest.param(["repair", "links.txt", "bad.csv", "r.csv"], {"bad.csv": COVER + "c,1\n"}, 2, DATA,
            "line 4: expected 3 fields, got 2",
            id="argv43-files43-2-error: -line 4: expected 3 fields, got 2"),
        pytest.param(["metrics", "links.txt", "bad.csv"], {"bad.csv": COVER + "c,x,0\n"}, 2, DATA,
            "line 4: invalid literal for int()",
            id="argv44-files44-2-error: -line 4: invalid literal for int()"),
        pytest.param(["repair", "links.txt", "bad.csv", "r.csv"], {"bad.csv": COVER + "a,2,1\n"}, 2, DATA,
            "line 4: duplicate cover row for (a,2)",
            id="argv45-files45-2-error: -line 4: duplicate cover row for (a,2)"),
        pytest.param(["metrics", "links.txt", "bad.csv"], {"bad.csv": COVER[:-6]}, 2, DATA,
            "cover and link data disagree on temporal node (b,1)",
            id="argv46-files46-2-error: -cover and link data disagree on temporal node (b,1)"),
        pytest.param(["repair", "links.txt", "bad.csv", "r.csv"], {"bad.csv": COVER + "c,1,0\n"}, 2, DATA,
            "cover and link data disagree on temporal node (c,1)",
            id="argv47-files47-2-error: -cover and link data disagree on temporal node (c,1)"),
        # community CSVs, through profile
        pytest.param(["profile", "bad.csv", "p.svg"], {"bad.csv": "community,z\n"}, 2, DATA,
            "line 1: expected community header",
            id="argv48-files48-2-error: -line 1: expected community header"),
        pytest.param(["profile", "bad.csv", "p.svg"], {"bad.csv": COMMUNITIES + "0,1,1,0,0,1\n"}, 2, DATA,
            "line 2: expected 7 fields, got 6",
            id="argv49-files49-2-error: -line 2: expected 7 fields, got 6"),
        pytest.param(["profile", "bad.csv", "p.svg"], {"bad.csv": COMMUNITIES + "0,1,1,x,0,1,0\n"}, 2, DATA,
            "line 2: could not convert string to float",
            id="argv50-files50-2-error: -line 2: could not convert string to float"),
        pytest.param(["profile", "bad.csv", "p.svg"], {"bad.csv": COMMUNITIES + "0,1,1,0,nan,1,0\n"}, 2, DATA,
            "line 2: SC must be finite, got nan",
            id="argv51-files51-2-error: -line 2: SC must be finite, got nan"),
        pytest.param(["profile", "missing.csv", "p.svg"], {}, 2, DATA, "No such file or directory",
            id="argv52-files52-2-error: -No such file or directory"),
        # the link-file flags, which metrics and repair share with detect
        pytest.param(["metrics", "links.txt", "cover.csv", "--coarsen", "0"], {}, 1, USAGE,
            "argument --coarsen: must be a positive integer",
            id="argv53-files53-1-usage: -argument --coarsen: must be a positive integer"),
        pytest.param(["repair", "links.txt", "cover.csv", "r.csv", "--coarsen", "0"], {}, 1, USAGE,
            "argument --coarsen: must be a positive integer",
            id="argv54-files54-1-usage: -argument --coarsen: must be a positive integer"),
        # `_outputs`: an output that is a directory
        pytest.param(["detect", "links.txt", "."], {}, 1, "usage error: ", "output . is a directory",
            id="argv55-files55-1-usage error: -output . is a directory"),
        # `_positive_int`: a value that is not an integer at all
        pytest.param(["detect", "links.txt", "c.csv", "--coarsen", "1.5"], {}, 1, USAGE,
            "argument --coarsen: must be a positive integer",
            id="argv56-files56-1-usage: -argument --coarsen: must be a positive integer"),
        pytest.param(SWEEP + ["--values", "1", "--seeds", "1", "--jobs", "x"], {}, 1, USAGE,
            "argument --jobs: must be a positive integer",
            id="argv57-files57-1-usage: -argument --jobs: must be a positive integer"),
        pytest.param(["repair", "links.txt", "cover.csv", "r.csv", "--min-overlap", "x"], {}, 1, USAGE,
            "argument --min-overlap: must be a positive integer",
            id="argv58-files58-1-usage: -argument --min-overlap: must be a positive integer"),
        # `_decimal`: numbers that int() reads but the package never writes
        pytest.param(["detect", "bad.txt", "c.csv", "--permissive"], {"bad.txt": "a \u0663 b 1_0\nb +2 a -0\n"}, 2,
            DATA, "line 1: times must be integers",
            id="argv59-files59-2-error: -line 1: times must be integers"),
        pytest.param(["detect", "bad.txt", "c.csv", "--permissive"], {"bad.txt": "a 2 b 1\nb +2 a -0\n"}, 2, DATA,
            "line 2: times must be integers",
            id="argv60-files60-2-error: -line 2: times must be integers"),
        pytest.param(["metrics", "links.txt", "bad.csv"], {"bad.csv": COVER.replace("b,1,", "b,+1,")}, 2, DATA,
            "line 3: '+1' is not an integer in plain ASCII digits",
            id="argv61-files61-2-error: -line 3: '+1' is not an integer in plain ASCII digits"),
        pytest.param(["repair", "links.txt", "bad.csv", "r.csv"], {"bad.csv": COVER.replace("a,2,0", "a,2,1_0")}, 2, DATA,
            "line 2: '1_0' is not an integer in plain ASCII digits",
            id="argv62-files62-2-error: -line 2: '1_0' is not an integer in plain ASCII digits"),
        pytest.param(["profile", "bad.csv", "p.svg"], {"bad.csv": COMMUNITIES + "0,\uff11,1,0,0,1,0\n"}, 2, DATA,
            "line 2: '\uff11' is not an integer in plain ASCII digits",
            id="argv63-files63-2-error: -line 2: '\uff11' is not an integer in plain ASCII digits"),
        # numbers longer than int() reads
        pytest.param(["detect", "bad.txt", "c.csv"], {"bad.txt": f"a 2 b 1\na {'1' * 5000} b 1\n"}, 2, DATA,
            "line 2: Exceeds the limit (4300 digits)",
            id="argv64-files64-2-error: -line 2: Exceeds the limit (4300 digits)"),
        pytest.param(["generate", "bad.json", "x.txt"], {"bad.json": '{"n_c": ' + "1" * 5000 + "}"}, 1, CONFIG,
            "invalid config JSON: Exceeds the limit (4300 digits)",
            id="argv65-files65-1-config error: -invalid config JSON: Exceeds the limit (4300 digits)"),
        # the integer flags, read by `_decimal`
        pytest.param(["detect", "links.txt", "c.csv", "--seed", "+2"], {}, 1, USAGE,
            "argument --seed: invalid int value: '+2'",
            id="argv66-files66-1-usage: -argument --seed: invalid int value: '+2'"),
        pytest.param(SWEEP + ["--values", "0.5", "--seeds", "1_0"], {}, 1, CONFIG, "--seeds integers",
            id="argv67-files67-1-config error: ---seeds integers"),
        pytest.param(["detect", "links.txt", "c.csv", "--coarsen", "\u0663"], {}, 1, USAGE,
            "argument --coarsen: must be a positive integer",
            id="argv68-files68-1-usage: -argument --coarsen: must be a positive integer"),
        pytest.param(SWEEP + ["--values", "1", "--seeds", "1", "--jobs", "+2"], {}, 1, USAGE,
            "argument --jobs: must be a positive integer",
            id="argv69-files69-1-usage: -argument --jobs: must be a positive integer"),
        pytest.param(["repair", "links.txt", "cover.csv", "r.csv", "--min-overlap", "1_0"], {}, 1, USAGE,
            "argument --min-overlap: must be a positive integer",
            id="argv70-files70-1-usage: -argument --min-overlap: must be a positive integer"),
        # config values that are not JSON numbers, or overflow a float
        pytest.param(["generate", "bad.json", "x.txt"], cfg(n_c="\u0663"), 1, CONFIG,
            "non-numeric config value: n_c must be a number, got '\u0663'", id="config-n_c-arabic-digit"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(m="1_0"), 1, CONFIG,
            "non-numeric config value: m must be a number, got '1_0'", id="config-m-underscore"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(t_max=" 5 "), 1, CONFIG,
            "non-numeric config value: t_max must be a number", id="config-t_max-spaces"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(w="+3"), 1, CONFIG,
            "non-numeric config value: w must be a number", id="config-w-plus"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(d="\uff12"), 1, CONFIG,
            "non-numeric config value: d must be a number", id="config-d-full-width"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(p="0.5"), 1, CONFIG,
            "non-numeric config value: p must be a number, got '0.5'", id="config-p-string"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(d=10**400), 1, CONFIG,
            "config value out of range: int too large to convert to float", id="config-d-401-digits"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(p=-(10**400)), 1, CONFIG,
            "config value out of range: int too large to convert to float", id="config-p-401-digits"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(n_c=10**400), 1, CONFIG,
            "d*n must be a positive integer link count per timestep, got inf", id="config-n_c-401-digits"),
        pytest.param(["sweep", "bad.json", "out", "--param", "d", "--values", "2", "--seeds", "1"], cfg(seed="1_0"),
            1, CONFIG, "non-numeric config value: seed must be a number", id="sweep-config-seed-underscore"),
        # `--values` items that float() reads but the package never writes
        pytest.param(SWEEP[:4] + ["d", "--values", "\u0662,1_0", "--seeds", "1"], {}, 1, CONFIG,
            "--values takes floats and --seeds integers", id="sweep-values-lax-digits"),
        pytest.param(SWEEP + ["--values", "+0.5", "--seeds", "1"], {}, 1, CONFIG, "--values takes floats",
            id="sweep-values-plus"),
        pytest.param(SWEEP + ["--values", "0.5, \uff10.5", "--seeds", "1"], {}, 1, CONFIG, "--values takes floats",
            id="sweep-values-full-width"),
        # NA, SC and HI in forms that float() reads but the package never writes
        pytest.param(["profile", "bad.csv", "p.svg"], {"bad.csv": COMMUNITIES + "0,2,3,\u0660.5,0,1,0\n"}, 2, DATA,
            "line 2: '\u0660.5' is not a number in plain ASCII", id="profile-na-arabic-digit"),
        pytest.param(["profile", "bad.csv", "p.svg"], {"bad.csv": COMMUNITIES + "0,2,3,0.5,+0.5,1,0\n"}, 2, DATA,
            "line 2: '+0.5' is not a number in plain ASCII", id="profile-sc-plus"),
        pytest.param(["profile", "bad.csv", "p.svg"],
            {"bad.csv": COMMUNITIES + "0,2,3,0.5,0.5,1.0,0\n1,2,3,0.5,0.5,1_0,0\n"}, 2, DATA,
            "line 3: '1_0' is not a number in plain ASCII", id="profile-hi-underscore"),
        # configs that would make more links than `MAX_LINKS`
        pytest.param(["generate", "bad.json", "x.txt"], cfg(m=1e300), 1, CONFIG,
            "the config makes d*n*t_max = about 10**302 links, more than the 5000000 allowed", id="config-m-1e300"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(t_max=10**400), 1, CONFIG,
            "the config makes d*n*t_max = about 10**401 links, more than the 5000000 allowed",
            id="config-t_max-401-digits"),
        pytest.param(["generate", "bad.json", "x.txt"], cfg(t_max=83334), 1, CONFIG,
            "the config makes d*n*t_max = 5000040 links, more than the 5000000 allowed", id="config-just-above-cap"),
        pytest.param(SWEEP[:4] + ["d", "--values", "2,1e9", "--seeds", "1"], {}, 1, CONFIG,
            "links, more than the 5000000 allowed", id="sweep-cell-above-cap"),
        # a key given twice would otherwise take its last value
        pytest.param(["generate", "bad.json", "x.txt"], {"bad.json": json.dumps(BASE_CONFIG)[:-1] + ', "seed": 7}'},
            1, CONFIG, "duplicate config key: 'seed'", id="config-duplicate-key"),
    ],
)
def test_every_reachable_error_exits_cleanly(tmp_path, monkeypatch, capsys, argv, files, code, prefix, message):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    (tmp_path / "links.txt").write_text(LINKS)
    (tmp_path / "cover.csv").write_text(COVER)
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    try:
        exit_code = main(argv)
    except SystemExit as exc:
        exit_code = exc.code
    err = capsys.readouterr().err
    assert exit_code == code
    assert err.startswith(prefix)
    assert message in err
    assert "Traceback" not in err


# The fuzz below writes files of mostly plain rows, with now and then an
# odd one: labels a writer would refuse, the number forms `_decimal` rejects,
# numbers longer than int() reads, and blank or short rows.
_FUZZ_ODD = ["+2", " 2", "1_0", "-0", "\u0663", "\uff11", "1" * 5000, "-" + "9" * 5000, "2.0", "nan",
             "x", "", "#c", "\xe9", "a b", ",", '"', "\ufeffd"]
_plain = st.integers(0, 3).map(str)
_label = st.sampled_from("abc")
_ratio = st.one_of(*[st.sampled_from(["0", "0.5", "1", "1e-05"])] * 3, st.sampled_from(["+0.5", "\u0660.5", "1_0", " 1"]))
_odd_row = st.lists(st.one_of(_plain, st.sampled_from(_FUZZ_ODD)), max_size=8)
_FUZZ_COMMANDS = {
    "detect": ["detect", "links.txt", "out.csv"],
    "detect-gn": ["detect", "links.txt", "out.csv", "--algo", "gn"],
    "metrics": ["metrics", "links.txt", "cover.csv", "--community-out", "c.csv", "--node-out", "n.csv"],
    "repair": ["repair", "links.txt", "cover.csv", "out.csv"],
    "profile": ["profile", "communities.csv", "out.svg"],
}


def _fuzz_rows(*fields):
    """Rows of ``fields``, three in four of them; the others odd in any way."""
    plain = st.tuples(*fields).map(list)
    return st.lists(st.one_of(plain, plain, plain, _odd_row), max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(sorted(_FUZZ_COMMANDS)),
    flags=st.lists(st.sampled_from(["--permissive", "--coarsen"]), unique=True),
    coarsen=st.one_of(st.sampled_from(["1", "2"]), st.sampled_from(_FUZZ_ODD)),
    links=_fuzz_rows(_label, _plain, _label, st.sampled_from("01")),
    cover=_fuzz_rows(_label, _plain, _plain),
    communities=_fuzz_rows(_plain, st.sampled_from("12"), _plain, _ratio, _ratio, _ratio, _plain),
    cover_of_links=st.booleans(),
    headers=st.sampled_from([1, 1, 1, 0]),
)
def test_every_command_exits_cleanly_on_any_input(
    command, flags, coarsen, links, cover, communities, cover_of_links, headers
):
    if cover_of_links:  # one row per endpoint of the four-field link rows, so that some covers fit
        ends = dict.fromkeys(tuple(row[i : i + 2]) for row in links if len(row) == 4 for i in (0, 2))
        cover = [[label, t, str(k % 2)] for k, (label, t) in enumerate(ends)] + cover
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        argv = [str(folder / arg) if "." in arg else arg for arg in _FUZZ_COMMANDS[command]]
        if command != "profile":
            for flag in flags:
                argv += [flag, coarsen] if flag == "--coarsen" else [flag]
        (folder / "links.txt").write_text("".join(" ".join(row) + "\n" for row in links), encoding="utf-8")
        for name, header, rows in [
            ("cover.csv", "node,timestep,community", cover),
            ("communities.csv", ",".join(COMMUNITY_HEADER), communities),
        ]:
            text = (header + "\n") * headers + "".join(",".join(row) + "\n" for row in rows)
            (folder / name).write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                assert exc.code == 1
                code = 1
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# Generator configs for the fuzz below: plain numbers, but for at most one
# key, which is missing or holds a value that is no JSON number, a float
# where an integer goes, or a huge number.  A config that would make more
# than `MAX_LINKS` links is a config error, so a huge t_max or m ends at once.
_CONFIG_PLAIN = {
    "n_c": st.integers(2, 3),
    "m": st.integers(2, 4),
    "t_max": st.integers(1, 4),
    "w": st.integers(1, 3),
    "d": st.sampled_from([1, 2, 1.0]),
    "p": st.sampled_from([0, 0.5, 1.0]),
    "seed": st.integers(0, 2**70),
}
_config_odd = st.sampled_from(
    ["3", "1_0", " 5 ", "+3", "\u0663", "\uff12", "nan", True, False, None, [1], {}, 2.5, -1, 0,
     float("nan"), float("inf")]
)
_config_huge = st.sampled_from([10**400, -(10**400), 1e300])
_MISSING = object()


@st.composite
def _config_texts(draw):
    config = {key: draw(plain) for key, plain in _CONFIG_PLAIN.items()}
    key = draw(st.one_of(st.none(), st.sampled_from(list(config))))
    if key is not None:
        config[key] = draw(st.one_of(_config_odd, st.just(_MISSING), _config_huge))
        if config[key] is _MISSING:
            del config[key]
    if draw(st.integers(0, 9)) == 0:
        config["colour"] = 1
    return json.dumps(config)


def _sweep_list(plain, odd):
    """One to three items, comma-joined, most of them plain."""
    items = st.one_of(*[st.sampled_from(plain)] * 3, st.sampled_from(odd))
    return st.lists(items, min_size=1, max_size=3).map(",".join)


@settings(max_examples=150, deadline=None)
@given(
    config=st.one_of(_config_texts(), st.sampled_from(["{", "[1]", "", '{"n_c": ' + "1" * 5000 + "}"])),
    sweep=st.booleans(),
    param=st.sampled_from(["p", "d"]),
    values=_sweep_list(["0.5", "1", " 0.75 "],
                       ["inf", "nan", "-1", "2", "1e400", "+1", "1_0", "\u0662", "\uff11", "x", ""]),
    seeds=_sweep_list(["1", "2", " 3"], ["+2", "1_0", "\u0663", "x", ""]),
)
def test_generate_and_sweep_exit_cleanly_on_any_config(config, sweep, param, values, seeds):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "config.json").write_text(config, encoding="utf-8")
        if sweep:
            argv = ["sweep", str(folder / "config.json"), str(folder / "out"), "--param", param,
                    "--values", values, "--seeds", seeds]
        else:
            argv = ["generate", str(folder / "config.json"), str(folder / "links.txt")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                assert exc.code == 1
                code = 1
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    mapping=st.fixed_dictionaries(
        {key: st.one_of(plain, _config_odd, _config_huge) for key, plain in _CONFIG_PLAIN.items()}
    )
)
def test_the_constructor_checks_a_config_as_its_json_file_does(mapping):
    def outcome(make):
        try:
            return make()
        except ConfigError as exc:
            return str(exc)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(mapping), encoding="utf-8")
        from_file = outcome(lambda: GeneratorConfig.from_json_file(path))
    assert outcome(lambda: GeneratorConfig(**mapping)) == from_file
