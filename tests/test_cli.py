from __future__ import annotations

import csv
import json
import re

import pytest

from dyncomm import (
    ModularityView,
    build_temporal_graph,
    coarsen_time,
    community_reports,
    louvain,
    node_reports,
    parse_link_file,
    write_community_csv,
    write_cover,
    write_node_csv,
)
from dyncomm.cli import main, render_profile_svg
from dyncomm.metrics import CommunityReport

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


def test_detect_strict_mode_rejects_future_targets(tmp_path, capsys):
    links = tmp_path / "links.txt"
    links.write_text("A 1 B 2\n")
    assert main(["detect", str(links), str(tmp_path / "c.csv")]) == 2
    assert main(["detect", str(links), str(tmp_path / "c.csv"), "--permissive"]) == 0


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


def test_metrics_stdout_contains_both_tables(tmp_path, capsys):
    links = tmp_path / "links.txt"
    links.write_text("a 2 a 1\n")
    cover = tmp_path / "cover.csv"
    cover.write_text("node,timestep,community\na,1,0\na,2,0\n")
    assert main(["metrics", str(links), str(cover)]) == 0
    out = capsys.readouterr().out
    assert "community,z," in out and "node,lifetime," in out


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
    assert "config error" in err and "would both write files tagged" in err
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
    ],
    ids=["short-row", "not-a-float", "extra-field", "na-nan", "sc-inf", "hi-minus-inf"],
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
