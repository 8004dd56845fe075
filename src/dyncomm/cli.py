"""Command-line pipeline: generate, detect, metrics, profile, sweep, repair.

Every command is deterministic given its flags; seeds default to a fixed
constant, never the clock.  Exit codes: 0 success, 1 usage/config error,
2 data/validation error.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Each command imports the generator, metrics and repair modules itself, when
# it runs, so that a command loads only what it uses.  The package loads the
# two modules below in any case.
from .detection import (
    Cover,
    ModularityView,
    girvan_newman,
    louvain,
    read_cover,
    write_cover,
)
from .temporal_graph import (
    SWEEPABLE_PARAMETERS,
    ConfigError,
    TemporalGraph,
    _decimal,
    _link_stream,
    _opened,
    _real,
    _sum_in_order,
    _write_table,
    build_temporal_graph,
    write_links,
)

if TYPE_CHECKING:
    from .generator import GeneratorConfig
    from .metrics import CommunityReport

DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

SUMMARY_HEADER = ["value", "seed", "communities", "D", "mean_NA", "mean_SC", "mean_HI", "mean_z"]

# Profile: a square PROFILE_SIZE px wide; disk radius r_min + k * log(1 + z), monotone in z.
PROFILE_SIZE = 520
PROFILE_R_MIN = 3.0
PROFILE_R_SCALE = 3.0


class _UsageError(Exception):
    """Command-line arguments that cannot be carried out as given."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _integer(text: str) -> int:
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = _decimal(text)
    except ValueError:
        value = 0  # rejected below, in the same words
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _outputs(inputs: list[str], *paths: str | Path) -> list[Path]:
    """The command's output paths, checked before anything is written.

    An output that is a directory, or names an input or another output, is
    a usage error.  A missing parent directory is made only when its file is written.
    """
    outputs = [Path(p) for p in paths]
    seen = {Path(p).resolve(): f"input {p}" for p in inputs}
    for path in outputs:
        if path.is_dir():
            raise _UsageError(f"output {path} is a directory")
        key = path.resolve()
        if key in seen:
            raise _UsageError(f"{seen[key]} and output {path} name the same file")
        seen[key] = f"output {path}"
    return outputs


def _load_graph(path: str, permissive: bool, coarsen: int) -> TemporalGraph:
    """Build the graph at ``coarsen`` from the link file, streamed line by line.

    Each line is validated at its fine times and binned as it is read, so
    neither the raw-link list nor the fine graph is ever made; the result
    equals `coarsen_time` of the fine graph.  The build runs inside the
    ``with`` so that a byte that is not UTF-8 still names its line.
    """
    with _opened(path) as handle:
        return build_temporal_graph(_link_stream(handle, permissive, coarsen))


def render_profile_svg(reports: list[CommunityReport]) -> str:
    """Scatter of communities at (NA, SC) with log-scaled disk radii."""
    size = PROFILE_SIZE
    margin = 60.0
    plot = size - 2 * margin

    def sx(na: float) -> float:
        return margin + na * plot

    def sy(sc: float) -> float:
        return size - margin - sc * plot

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{size - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{size - margin}" '
        f'stroke="black"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = sx(tick)
        y = sy(tick)
        parts.append(
            f'<line x1="{x}" y1="{size - margin}" x2="{x}" y2="{size - margin + 5}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{x}" y="{size - margin + 18}" font-size="10" '
            f'text-anchor="middle">{tick:g}</text>'
        )
        parts.append(
            f'<line x1="{margin - 5}" y1="{y}" x2="{margin}" y2="{y}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{y + 3}" font-size="10" '
            f'text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{size / 2}" y="{size - 20}" font-size="12" '
        f'text-anchor="middle">NA</text>'
    )
    parts.append(
        f'<text x="18" y="{size / 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 18 {size / 2})">SC</text>'
    )
    for r in reports:
        radius = PROFILE_R_MIN + PROFILE_R_SCALE * math.log1p(r.z)
        parts.append(
            f'<circle cx="{sx(r.na)}" cy="{sy(r.sc)}" r="{radius}" '
            f'fill="gray" fill-opacity="0.5" stroke="black">'
            f"<title>community {r.community}: z={r.z}</title></circle>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_generate(args: argparse.Namespace) -> int:
    from .generator import GeneratorConfig, generate, write_assignment

    config = GeneratorConfig.from_json_file(args.config)
    out_links, assignment_path = _outputs(
        [args.config], args.out, args.assignment or f"{Path(args.out)}.assignment"
    )
    links, assignment = generate(config)
    write_links(links, out_links)
    write_assignment(assignment, assignment_path)
    print(f"wrote {len(links)} links to {out_links} (assignment: {assignment_path})")
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    (out,) = _outputs([args.link_file], args.out)
    # No name holds the graph, so its links are freed before detection runs.
    view = ModularityView.from_temporal_graph(
        _load_graph(args.link_file, args.permissive, args.coarsen)
    )
    if args.algo == "louvain":
        cover = louvain(view, seed=args.seed)
    else:
        cover = girvan_newman(view)
    write_cover(cover, out)
    print(f"wrote cover with {cover.n_communities} communities to {out}")
    return EXIT_OK


def _read_cover_checked(path: str) -> Cover:
    """Read a cover CSV, warning on stderr if its community ids had gaps."""
    cover, had_gaps = read_cover(path)
    if had_gaps:
        print(
            f"warning: community ids in {path} had gaps; re-densified to 0..{cover.n_communities - 1}",
            file=sys.stderr,
        )
    return cover


def cmd_metrics(args: argparse.Namespace) -> int:
    from .metrics import community_reports, node_reports, write_community_csv, write_node_csv

    _outputs([args.link_file, args.cover], *filter(None, (args.community_out, args.node_out)))
    tg = _load_graph(args.link_file, args.permissive, args.coarsen)
    cover = _read_cover_checked(args.cover)
    communities = community_reports(cover, tg)
    nodes = node_reports(cover, tg)
    # A table whose path is not given goes to stdout, a blank line between two there.
    write_community_csv(communities, args.community_out or sys.stdout)
    if not args.community_out and not args.node_out:
        sys.stdout.write("\n")
    write_node_csv(nodes, args.node_out or sys.stdout)
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    from .metrics import read_community_csv

    (out,) = _outputs([args.communities], args.out)
    reports = read_community_csv(args.communities)
    with _opened(out, "w") as handle:
        handle.write(render_profile_svg(reports))
    print(f"wrote profile of {len(reports)} communities to {out}")
    return EXIT_OK


def _sweep_cell_job(payload: tuple[GeneratorConfig, float, int, list[Path]]) -> tuple:
    from .generator import generate, write_assignment
    from .metrics import community_reports, dissimilarity

    config, value, seed, (links_path, assignment_path, cover_path) = payload
    links, assignment = generate(config)
    write_links(links, links_path)
    write_assignment(assignment, assignment_path)
    tg = build_temporal_graph(links)
    cover = louvain(ModularityView.from_temporal_graph(tg), seed=config.seed)
    write_cover(cover, cover_path)
    d = dissimilarity(cover.assignment, {tn: assignment[tn.node] for tn in tg.nodes})
    reports = community_reports(cover, tg)
    k = len(reports)
    return (
        value,
        seed,
        cover.n_communities,
        d,
        _sum_in_order(r.na for r in reports) / k,
        _sum_in_order(r.sc for r in reports) / k,
        _sum_in_order(r.hi for r in reports) / k,
        sum(r.z for r in reports) / k,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    from .generator import GeneratorConfig, cell_config

    base = GeneratorConfig.from_json_file(args.config)
    try:
        values = [_real(v.strip()) for v in args.values.split(",") if v.strip()]
        seeds = [_decimal(s.strip()) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ConfigError("--values takes floats and --seeds integers, comma-separated") from None
    if not values:
        raise ConfigError("--values must list at least one value")
    if not seeds:
        raise ConfigError("--seeds must list at least one seed")
    outdir = Path(args.outdir)
    # Every cell is built, and checked, before anything is written.  Two cells
    # with one tag name one links file, which `_outputs` rejects.
    jobs = []
    for value in values:
        for seed in seeds:
            tag = f"{args.param}{value:g}_s{seed}"
            names = (f"links_{tag}.txt", f"assignment_{tag}.txt", f"cover_{tag}.csv")
            config = cell_config(base, args.param, value, seed)
            jobs.append((config, value, seed, [outdir / name for name in names]))
    cell_paths = [path for *_, paths in jobs for path in paths]
    *_, summary = _outputs([args.config], *cell_paths, outdir / "summary.csv")
    # The pool starts all its workers at once, so it never asks for more than there are cells.
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell_job, jobs))
    else:
        rows = [_sweep_cell_job(job) for job in jobs]
    _write_table(summary, SUMMARY_HEADER, rows)
    print(f"wrote {len(rows)} sweep cells to {outdir} (summary.csv)")
    return EXIT_OK


def cmd_repair(args: argparse.Namespace) -> int:
    from .repair import repair, write_trace

    out, trace_path = _outputs(
        [args.link_file, args.cover], args.out, args.trace or f"{Path(args.out)}.trace.csv"
    )
    tg = _load_graph(args.link_file, args.permissive, args.coarsen)
    cover = _read_cover_checked(args.cover)
    repaired, steps = repair(cover, tg, min_overlap=args.min_overlap)
    write_cover(repaired, out)
    write_trace(steps, trace_path)
    print(
        f"merged {len(steps)} community pairs; wrote cover to {out} and trace to {trace_path}"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dyncomm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # The link-file input of detect, metrics and repair.
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("link_file", metavar="links", help="input link file")
    graph.add_argument("--coarsen", type=_positive_int, default=1, metavar="K")
    graph.add_argument("--permissive", action="store_true", help="allow target times newer than source")

    p_gen = sub.add_parser("generate", help="generate a planted-community dataset")
    p_gen.add_argument("config", help="generator config JSON")
    p_gen.add_argument("out", help="output link file")
    p_gen.add_argument("--assignment", help="planted assignment sidecar (default: <out>.assignment)")
    p_gen.set_defaults(func=cmd_generate)

    p_det = sub.add_parser("detect", parents=[graph], help="detect temporal communities")
    p_det.add_argument("out", help="output cover CSV")
    p_det.add_argument("--seed", type=_integer, default=DEFAULT_SEED)
    p_det.add_argument("--algo", choices=("louvain", "gn"), default="louvain")
    p_det.set_defaults(func=cmd_detect)

    p_met = sub.add_parser("metrics", parents=[graph], help="compute community and node metrics")
    p_met.add_argument("cover", help="cover CSV from detect")
    p_met.add_argument("--community-out", help="community metrics CSV (default: stdout)")
    p_met.add_argument("--node-out", help="node metrics CSV (default: stdout)")
    p_met.set_defaults(func=cmd_metrics)

    p_pro = sub.add_parser("profile", help="render the NA/SC community profile SVG")
    p_pro.add_argument("communities", help="community metrics CSV")
    p_pro.add_argument("out", help="output SVG path")
    p_pro.set_defaults(func=cmd_profile)

    p_swp = sub.add_parser("sweep", help="run a parameter sweep with detection and metrics")
    p_swp.add_argument("config", help="base generator config JSON")
    p_swp.add_argument("outdir", help="output directory")
    p_swp.add_argument("--param", choices=SWEEPABLE_PARAMETERS, required=True)
    p_swp.add_argument("--values", required=True, help="comma-separated parameter values")
    p_swp.add_argument("--seeds", required=True, help="comma-separated seeds")
    p_swp.add_argument("--jobs", type=_positive_int, default=1)
    p_swp.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("repair", parents=[graph], help="merge communities by NA optimization")
    p_rep.add_argument("cover", help="cover CSV to repair")
    p_rep.add_argument("out", help="repaired cover CSV")
    p_rep.add_argument("--trace", help="merge trace CSV (default: <out>.trace.csv)")
    p_rep.add_argument("--min-overlap", type=_positive_int, default=1)
    p_rep.set_defaults(func=cmd_repair)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The pipeline's records form no reference cycles, so a cyclic collection
    # frees nothing while it walks every live tuple; sweep workers fork from
    # here and inherit the pause.  The caller's setting comes back in `finally`.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
