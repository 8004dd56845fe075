"""Workloads of the dyncomm benchmark: generated inputs, CLI commands, output checks.

One client runs each workload's commands back to back (a closed loop).  Set-up
makes every input from the workload seed; the program only ever sees files.
The orchestrator (``run.py``) imports this module without importing dyncomm,
so every function here that needs the library imports it when called.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

# Generator settings.  detect_planted runs on nine datasets made from the
# workload seed: one planted graph's Louvain work varies by about a fifth
# from seed to seed, and summing over datasets steadies a run.
DETECT_CONFIG = dict(n_c=20, m=25, t_max=10, w=10, d=3, p=0.85)
DETECT_DATASETS = 9
COARSEN_CONFIG = dict(n_c=25, m=40, t_max=40, w=10, d=2, p=0.85)
COARSEN_DATASETS = 1
COARSEN_K = 10
REPAIR_CONFIG = dict(n_c=20, m=25, t_max=16, w=10, d=3, p=0.85)
REPAIR_DATASETS = 1
# Share of physical nodes that the snapshot cover places, at every timestep,
# in one wrong planted community, as a per-snapshot detector does with nodes
# whose links are ambiguous.  Without it repair rebuilds the planted cover
# exactly and D is always 0.  (Misplacing temporal nodes independently would
# instead make repair merge every community into one.)
SNAPSHOT_MISPLACED = 0.05
SWEEP_BASE = dict(n_c=8, m=10, t_max=20, w=10, d=3, p=0.85)
SWEEP_VALUES = (0.5, 0.7, 0.85, 0.95, 1.0)
SWEEP_SEEDS = 8
DETECT_SEED = "42"
# Headers of the CSV outputs, as the file formats define them.
COMMUNITY_HEADER = ["community", "z", "temporal_size", "NA", "SC", "HI", "internal_links"]
NODE_HEADER = ["node", "lifetime", "membership", "CM", "CT"]
TRACE_HEADER = ["step", "community_a", "community_b", "merged_NA", "gain"]
SUMMARY_HEADER = ["value", "seed", "communities", "D", "mean_NA", "mean_SC", "mean_HI", "mean_z"]


def derive_seed(seed: int, *parts: object) -> int:
    """Stable 32-bit seed for one input of a workload run."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sweep_jobs(nproc: int) -> int:
    return max(1, min(2, nproc))


@dataclass(frozen=True)
class Command:
    """One CLI call.  ``key`` names the operation within a pass."""

    key: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # primary outputs, relative to the work directory


def _links_count(config: dict) -> int:
    return round(config["d"] * config["n_c"] * config["m"]) * config["t_max"]


class Workload:
    name = ""
    predicted_dominant = ""  # span name, or module prefix ending in "."

    def datasets(self, seed: int) -> list[tuple[str, dict]]:
        """(directory, generator config with seed) for each planted dataset."""
        return []

    def raw_links(self, seed: int) -> int:
        return sum(_links_count(cfg) for _, cfg in self.datasets(seed))

    def setup(self, workdir: Path, seed: int) -> None:
        from dyncomm.generator import GeneratorConfig, generate, write_assignment
        from dyncomm.temporal_graph import write_links

        for name, cfg in self.datasets(seed):
            links, planted = generate(GeneratorConfig(**cfg))
            folder = workdir / name
            folder.mkdir(parents=True, exist_ok=True)
            write_links(links, folder / "links.txt")
            write_assignment(planted, folder / "links.txt.assignment")
            self.setup_extra(folder, cfg, links, planted)

    def setup_extra(self, folder: Path, cfg: dict, links: list, planted: dict) -> None:
        pass

    def commands(self, seed: int, nproc: int, traced: bool) -> list[Command]:
        raise NotImplementedError

    def check(self, workdir: Path, seed: int) -> dict:
        """Check the outputs of one pass and measure their quality.

        Returns ``{"failures": {key: [reason, ...]}, "quality": {...},
        "sizes": {...}}``.  A check that raises counts as a failure of the
        operation it checks.
        """
        raise NotImplementedError


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _graph(links: Path, coarsen: int = 1):
    from dyncomm.temporal_graph import build_temporal_graph, coarsen_time, parse_link_file

    tg = build_temporal_graph(parse_link_file(links))
    return coarsen_time(tg, coarsen) if coarsen > 1 else tg


def _planted(tg, assignment_path: Path) -> dict:
    from dyncomm.generator import read_assignment

    planted = read_assignment(assignment_path)
    return {tn: planted[tn.node] for tn in tg.nodes}


def check_cover(tg, cover_path: Path):
    """Read a cover and require it to cover exactly the graph's temporal nodes."""
    from dyncomm.detection import read_cover

    cover, _ = read_cover(cover_path)
    nodes = set(tg.nodes)
    covered = set(cover.assignment)
    _require(
        covered == nodes,
        f"{cover_path.name} misses {len(nodes - covered)} and adds "
        f"{len(covered - nodes)} temporal nodes",
    )
    return cover


def cover_quality(tg, cover, planted: dict, detected: bool) -> dict:
    """Q, D and mean NA of a cover; a detected cover must beat all-singletons Q."""
    from dyncomm.detection import Cover, ModularityView, modularity
    from dyncomm.metrics import community_reports, dissimilarity

    view = ModularityView.from_temporal_graph(tg)
    q = modularity(view, cover)
    if detected:
        singletons = Cover({tn: i for i, tn in enumerate(tg.nodes)}, len(tg.nodes))
        q0 = modularity(view, singletons)
        _require(q >= q0, f"Q {q!r} is below the all-singletons Q {q0!r}")
    reports = community_reports(cover, tg)
    return {
        "modularity_q": q,
        "dissimilarity_d": dissimilarity(cover.assignment, planted),
        "mean_na": sum(r.na for r in reports) / len(reports),  # as the CLI's sweep sums it
        "communities": cover.n_communities,
        "temporal_nodes": len(tg.nodes),
    }


def _csv_rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    _require(bool(rows) and rows[0] == header, f"{path.name} has header {rows[:1]}")
    return rows[1:]


def _mean_quality(parts: list[dict]) -> dict:
    keys = ("modularity_q", "dissimilarity_d", "mean_na")
    return {k: statistics.fmean(p[k] for p in parts) for k in keys}


def _run_checks(checks: list[tuple[str, object]]) -> tuple[dict, list]:
    """Run (key, thunk) checks; a check that fails or raises fails its key."""
    failures: dict[str, list[str]] = {}
    results = []
    for key, thunk in checks:
        try:
            results.append(thunk())
        except Exception as exc:  # any crash of a check is a failed operation
            failures.setdefault(key, []).append(f"{type(exc).__name__}: {exc}")
    return failures, results


# ---------------------------------------------------------------- workloads


class DetectPlanted(Workload):
    name = "detect_planted"
    predicted_dominant = "detection.louvain"

    def datasets(self, seed):
        return [
            (f"d{i}", {**DETECT_CONFIG, "seed": derive_seed(seed, self.name, i)})
            for i in range(DETECT_DATASETS)
        ]

    def commands(self, seed, nproc, traced):
        return [
            Command(f"detect#{i}", ("detect", f"{d}/links.txt", f"{d}/cover.csv", "--seed", DETECT_SEED),
                    (f"{d}/cover.csv",))
            for i, (d, _) in enumerate(self.datasets(seed))
        ]

    def check(self, workdir, seed):
        def one(d):
            tg = _graph(workdir / d / "links.txt")
            cover = check_cover(tg, workdir / d / "cover.csv")
            return cover_quality(tg, cover, _planted(tg, workdir / d / "links.txt.assignment"), True)

        failures, parts = _run_checks(
            [(f"detect#{i}", lambda d=d: one(d)) for i, (d, _) in enumerate(self.datasets(seed))]
        )
        return _summary(failures, parts)


class CoarsenIngest(Workload):
    name = "coarsen_ingest"
    predicted_dominant = "temporal_graph."

    def datasets(self, seed):
        return [
            (f"c{i}", {**COARSEN_CONFIG, "seed": derive_seed(seed, self.name, i)})
            for i in range(COARSEN_DATASETS)
        ]

    def commands(self, seed, nproc, traced):
        k = str(COARSEN_K)
        cmds = []
        for i, (d, _) in enumerate(self.datasets(seed)):
            cmds.append(Command(f"detect#{i}", ("detect", f"{d}/links.txt", f"{d}/cover.csv", "--coarsen", k),
                                (f"{d}/cover.csv",)))
            cmds.append(Command(
                f"metrics#{i}",
                ("metrics", f"{d}/links.txt", f"{d}/cover.csv", "--coarsen", k,
                 "--community-out", f"{d}/comm.csv", "--node-out", f"{d}/nodes.csv"),
                (f"{d}/comm.csv", f"{d}/nodes.csv"),
            ))
        return cmds

    def check(self, workdir, seed):
        graphs: dict[str, tuple] = {}

        def detect(d):
            tg = _graph(workdir / d / "links.txt", COARSEN_K)
            cover = check_cover(tg, workdir / d / "cover.csv")
            graphs[d] = (tg, cover)
            return cover_quality(tg, cover, _planted(tg, workdir / d / "links.txt.assignment"), True)

        def metrics(d):
            from dyncomm.metrics import community_reports, node_reports

            _require(d in graphs, "no valid cover to check the metrics against")
            tg, cover = graphs[d]
            comm = _csv_rows(workdir / d / "comm.csv", COMMUNITY_HEADER)
            nodes = _csv_rows(workdir / d / "nodes.csv", NODE_HEADER)
            expected = community_reports(cover, tg)
            _require([r[3] for r in comm] == [repr(r.na) for r in expected],
                     "comm.csv NA column differs from the library's community reports")
            _require(len(nodes) == len(node_reports(cover, tg)), "nodes.csv row count differs")

        checks = []
        for i, (d, _) in enumerate(self.datasets(seed)):
            checks.append((f"detect#{i}", lambda d=d: detect(d)))
            checks.append((f"metrics#{i}", lambda d=d: metrics(d)))
        failures, parts = _run_checks(checks)
        return _summary(failures, [p for p in parts if p])


class RepairSnapshots(Workload):
    name = "repair_snapshots"
    predicted_dominant = "repair.repair"

    def datasets(self, seed):
        return [
            (f"r{i}", {**REPAIR_CONFIG, "seed": derive_seed(seed, self.name, i)})
            for i in range(REPAIR_DATASETS)
        ]

    def setup_extra(self, folder, cfg, links, planted):
        """Write the snapshot cover: each planted community sliced per timestep."""
        from dyncomm.detection import Cover, write_cover
        from dyncomm.temporal_graph import TemporalNode

        rng = random.Random(cfg["seed"])
        labels = sorted(planted, key=int)
        community = dict(planted)
        for label in rng.sample(labels, round(SNAPSHOT_MISPLACED * len(labels))):
            community[label] = (planted[label] + 1 + rng.randrange(cfg["n_c"] - 1)) % cfg["n_c"]
        slices = {}
        for src, dst in links:
            for label, t in (src, dst):
                slices.setdefault(TemporalNode(label, t), community[label] * cfg["t_max"] + t)
        write_cover(Cover.from_assignment(slices), folder / "snapshots.csv")

    def commands(self, seed, nproc, traced):
        cmds = []
        for i, (d, _) in enumerate(self.datasets(seed)):
            cmds.append(Command(
                f"metrics#{i}",
                ("metrics", f"{d}/links.txt", f"{d}/snapshots.csv",
                 "--community-out", f"{d}/comm.csv", "--node-out", f"{d}/nodes.csv"),
                (f"{d}/comm.csv", f"{d}/nodes.csv"),
            ))
            cmds.append(Command(f"profile#{i}", ("profile", f"{d}/comm.csv", f"{d}/profile.svg"),
                                (f"{d}/profile.svg",)))
            cmds.append(Command(
                f"repair#{i}", ("repair", f"{d}/links.txt", f"{d}/snapshots.csv", f"{d}/repaired.csv"),
                (f"{d}/repaired.csv", f"{d}/repaired.csv.trace.csv"),
            ))
        return cmds

    def check(self, workdir, seed):
        state: dict[str, dict] = {}

        def metrics(d):
            tg = _graph(workdir / d / "links.txt")
            snapshot = check_cover(tg, workdir / d / "snapshots.csv")
            rows = _csv_rows(workdir / d / "comm.csv", COMMUNITY_HEADER)
            _require(len(rows) == snapshot.n_communities, "comm.csv row count differs from the cover")
            state[d] = {"tg": tg, "k_in": snapshot.n_communities,
                        "na_in": statistics.fmean(float(r[3]) for r in rows)}

        def profile(d):
            _require(d in state, "no community CSV to check the profile against")
            svg = (workdir / d / "profile.svg").read_text(encoding="utf-8")
            _require(svg.startswith("<svg") and svg.rstrip().endswith("</svg>"), "profile.svg is not an SVG")
            _require(svg.count("<circle") == state[d]["k_in"], "profile.svg disk count differs")

        def repair(d):
            _require(d in state, "no input cover to check the repair against")
            tg, k_in = state[d]["tg"], state[d]["k_in"]
            repaired = check_cover(tg, workdir / d / "repaired.csv")
            trace = _csv_rows(workdir / d / "repaired.csv.trace.csv",
                              TRACE_HEADER)
            _require(all(float(r[4]) > 0 for r in trace), "a merge trace gain is not positive")
            _require(repaired.n_communities == k_in - len(trace),
                     f"communities_out {repaired.n_communities} != {k_in} - {len(trace)} merges")
            quality = cover_quality(tg, repaired, _planted(tg, workdir / d / "links.txt.assignment"), False)
            _require(quality["mean_na"] >= state[d]["na_in"],
                     f"repaired mean NA {quality['mean_na']!r} < input {state[d]['na_in']!r}")
            return quality

        checks = []
        for i, (d, _) in enumerate(self.datasets(seed)):
            checks += [(f"metrics#{i}", lambda d=d: metrics(d)),
                       (f"profile#{i}", lambda d=d: profile(d)),
                       (f"repair#{i}", lambda d=d: repair(d))]
        failures, parts = _run_checks(checks)
        return _summary(failures, [p for p in parts if p])


class SweepGrid(Workload):
    name = "sweep_grid"
    predicted_dominant = "detection.louvain"

    def seeds(self, seed: int) -> list[int]:
        return [derive_seed(seed, self.name, i) for i in range(SWEEP_SEEDS)]

    def raw_links(self, seed):
        return _links_count(SWEEP_BASE) * len(SWEEP_VALUES) * SWEEP_SEEDS

    def setup(self, workdir, seed):
        (workdir / "sweep").mkdir(parents=True, exist_ok=True)
        base = {**SWEEP_BASE, "seed": derive_seed(seed, self.name)}
        (workdir / "sweep" / "base.json").write_text(json.dumps(base) + "\n", encoding="utf-8")

    def commands(self, seed, nproc, traced):
        jobs = 1 if traced else sweep_jobs(nproc)
        argv = ("sweep", "sweep/base.json", "sweep/out", "--param", "p",
                "--values", ",".join(map(str, SWEEP_VALUES)),
                "--seeds", ",".join(map(str, self.seeds(seed))), "--jobs", str(jobs))
        return [Command("sweep#0", argv, ("sweep/out/summary.csv", "sweep/out/"))]

    def check(self, workdir, seed):
        from dyncomm.metrics import dissimilarity

        out = workdir / "sweep" / "out"

        def sweep():
            rows = _csv_rows(out / "summary.csv",
                             SUMMARY_HEADER)
            _require(len(rows) == len(SWEEP_VALUES) * SWEEP_SEEDS, f"summary.csv has {len(rows)} rows")
            parts = []
            for value, cell_seed, *_ in rows:
                tag = f"p{float(value):g}_s{cell_seed}"
                tg = _graph(out / f"links_{tag}.txt")
                cover = check_cover(tg, out / f"cover_{tag}.csv")
                parts.append(cover_quality(tg, cover, _planted(tg, out / f"assignment_{tag}.txt"), True))
            _require([r[3] for r in rows] == [repr(p["dissimilarity_d"]) for p in parts],
                     "summary.csv D column differs from D recomputed from the cell files")
            _require([r[4] for r in rows] == [repr(p["mean_na"]) for p in parts],
                     "summary.csv mean_NA column differs from the cell covers")
            return parts

        failures, results = _run_checks([("sweep#0", sweep)])
        return _summary(failures, results[0] if results else [])


def _summary(failures: dict, parts: list[dict]) -> dict:
    quality = _mean_quality(parts) if parts else {}
    sizes = {
        "temporal_nodes": sum(p["temporal_nodes"] for p in parts),
        "communities": sum(p["communities"] for p in parts),
    }
    return {"failures": failures, "quality": quality, "sizes": sizes}


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (DetectPlanted(), CoarsenIngest(), RepairSnapshots(), SweepGrid())
}


# ---------------------------------------------------------------- self-test

TINY_CONFIG = dict(n_c=4, m=5, t_max=6, w=3, d=3, p=0.9)


class SelfTestDetect(DetectPlanted):
    """detect_planted on one tiny graph; the self-test corrupts its output cover."""

    name = "self_test_detect"

    def datasets(self, seed):
        return [("d0", {**TINY_CONFIG, "seed": derive_seed(seed, self.name)})]


class SelfTestRepair(RepairSnapshots):
    """repair_snapshots on one tiny graph whose snapshot cover misses a temporal node."""

    name = "self_test_repair"

    def datasets(self, seed):
        return [("r0", {**TINY_CONFIG, "seed": derive_seed(seed, self.name)})]

    def setup_extra(self, folder, cfg, links, planted):
        super().setup_extra(folder, cfg, links, planted)
        cover = folder / "snapshots.csv"
        rows = cover.read_text(encoding="utf-8").splitlines(keepends=True)
        cover.write_text("".join(rows[:-1]), encoding="utf-8")


SELF_TESTS: dict[str, Workload] = {w.name: w for w in (SelfTestDetect(), SelfTestRepair())}


def workload_named(name: str) -> Workload:
    return WORKLOADS.get(name) or SELF_TESTS[name]
