"""dyncomm benchmark: drive the ``dyncomm`` CLI the way a researcher does.

Usage, from the root of a dyncomm checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a workload's commands back to back (a closed loop), each
command in a fresh interpreter, exactly like the ``dyncomm`` console script.
Set-up makes the inputs from ``--seed``.  With ``--trace 0`` the run repeats
untraced passes over the commands for about ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json`` (medians over passes).  With
``--trace 1`` it repeats rounds of one untraced and one traced pass and
reports the per-layer metrics: self times of the spans around every call
into a dyncomm layer, work counts, and the tracing overhead.

Every pass's outputs are checked: the first pass's in full (cover against the
temporal node set, Q against all-singletons, repair trace, sweep summary), the
later passes' by sha256 against the first.  Output digests are also kept per
source tree and seed under ``.bench_work/`` and compared across runs.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it state the
machine, the input sizes, the error rate and, when traced, where the time went.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import ALLOC_SPANS, CELL_SPAN, self_times
from workloads import WORKLOADS, Command, Workload, sweep_jobs

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_work"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # every child is killed once the run has lasted this long
LAUNCH = "import sys; from dyncomm.cli import main; sys.exit(main())"  # the console script
TRACEBACK = "Traceback (most recent call last)"
EARLIER = "differs from an earlier run of the same code and seed"


@dataclass
class Outcome:
    code: int
    wall: float
    maxrss_mb: float
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def op(self, key: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.append(f"{key}: {'; '.join(reasons)}")


class Runner:
    """Starts the run's processes one at a time and reaps each with its rusage."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    def run(self, argv: list[str], t0: float | None = None) -> Outcome:
        out_path, err_path = self.workdir / ".stdout", self.workdir / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter() if t0 is None else t0
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(max(0.0, self.deadline - time.perf_counter()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def clear_outputs(self, command: Command) -> None:
        """Remove a command's outputs, so that stale files never pass a check."""
        for output in command.outputs:
            path = self.workdir / output
            if output.endswith("/"):
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)

    def cli(self, command: Command) -> Outcome:
        self.clear_outputs(command)
        return self.run([sys.executable, "-c", LAUNCH, *command.argv])

    def child(self, request: dict, t0: float | None = None) -> Outcome:
        return self.run([sys.executable, str(BENCH / "child.py"), json.dumps(request)], t0)

    def child_json(self, request: dict) -> dict:
        outcome = self.child(request)
        if outcome.code != 0:
            raise RuntimeError(f"{request['mode']} failed ({outcome.code}): {outcome.stderr[-2000:]}")
        return json.loads(outcome.stdout)


def digest(path: Path) -> str:
    """sha256 of a file, or of every file in a directory, by name."""
    sha = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        if path.is_dir():
            sha.update(f.relative_to(path).as_posix().encode() + b"\0")
        with open(f, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                sha.update(block)
    return sha.hexdigest()


def source_digest() -> str:
    """Digest of the program's source and of the workload definitions."""
    sha = hashlib.sha256()
    for f in sorted((SRC / "dyncomm").rglob("*.py")) + [BENCH / "workloads.py"]:
        sha.update(f.name.encode() + b"\0" + f.read_bytes())
    return sha.hexdigest()[:16]


class OutputLedger:
    """Checks every pass's outputs against the first checked pass of the run,
    and against earlier runs of the same source tree and seed."""

    def __init__(self, runner: Runner, workload: Workload, seed: int):
        self.runner, self.workload, self.seed = runner, workload, seed
        self.reference: dict[str, str] = {}
        self.check: dict | None = None
        self.store = STATE / "output_hashes.json"
        self.key = f"{source_digest()}/{workload.name}/seed{seed}"

    def hashes(self, command: Command) -> dict[str, str]:
        found = {}
        for output in command.outputs:
            path = self.runner.workdir / output
            found[output] = digest(path) if path.exists() else "missing"
        return found

    def pass_done(self, commands: list[Command], outcomes: dict[str, Outcome], tally: Tally) -> None:
        if self.check is None:
            self.check = self.runner.child_json({"mode": "check", "workload": self.workload.name, "seed": self.seed})
            self.reference = self._remember({o: h for c in commands for o, h in self.hashes(c).items()})
        for command in commands:
            outcome = outcomes[command.key]
            reasons = []
            if outcome.code != 0:
                reasons.append(f"exit code {outcome.code}")
            if TRACEBACK in outcome.stderr:
                reasons.append("traceback on stderr")
            reasons += self.check["failures"].get(command.key, [])
            for output, sha in self.hashes(command).items():
                expected = self.reference.get(output, "")
                if expected.startswith(EARLIER):
                    reasons.append(f"{output} {expected}")
                elif sha != expected:
                    reasons.append(f"{output} differs from the checked output of this run")
            tally.op(command.key, reasons)

    def _remember(self, hashes: dict[str, str]) -> dict[str, str]:
        """Record this run's digests; a digest that differs from an earlier run
        of the same code and seed is replaced by a marker that fails the check."""
        try:
            known = json.loads(self.store.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            known = {}
        earlier = known.get(self.key, {})
        result = {}
        for output, sha in hashes.items():
            if output in earlier and earlier[output] != sha:
                result[output] = f"{EARLIER} ({earlier[output][:12]}, now {sha[:12]})"
            else:
                result[output] = sha
        known[self.key] = {**hashes, **earlier}
        tmp = self.store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.store)
        return result


def run_pass(runner: Runner, commands: list[Command]) -> tuple[float, float, dict[str, Outcome]]:
    """One untraced pass: (wall seconds, peak RSS MB, outcome per command)."""
    outcomes = {c.key: runner.cli(c) for c in commands}
    wall = sum(o.wall for o in outcomes.values())
    return wall, max(o.maxrss_mb for o in outcomes.values()), outcomes


def keep_going(runner: Runner, rounds: list[float], seconds: float) -> bool:
    """Start another pass only if a typical one still fits in the budget."""
    return sum(rounds) + statistics.median(rounds) <= seconds and time.perf_counter() < runner.deadline


def timed_run(runner: Runner, workload: Workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setups = []  # wall time of each set-up process, interpreter start included
    for _ in range(SETUP_REPEATS):
        outcome = runner.child({"mode": "setup", "workload": workload.name, "seed": seed})
        if outcome.code != 0:
            raise RuntimeError(f"set-up failed ({outcome.code}): {outcome.stderr[-2000:]}")
        setups.append(outcome.wall)
    commands = workload.commands(seed, os.cpu_count() or 1, traced=False)
    ledger = OutputLedger(runner, workload, seed)
    passes, rss = [], []
    per_command: dict[str, list[float]] = {c.key: [] for c in commands}
    while not passes or keep_going(runner, passes, seconds):
        wall, peak, outcomes = run_pass(runner, commands)
        ledger.pass_done(commands, outcomes, tally)
        passes.append(wall)
        rss.append(peak)
        for key, outcome in outcomes.items():
            per_command[key].append(outcome.wall)
    # Each command's median over passes, summed: a slow spell of the machine
    # that hits part of one pass moves no command's median.
    wall = sum(statistics.median(walls) for walls in per_command.values())
    quality = ledger.check["quality"]
    metrics = {
        "wall_s": wall,
        "links_per_s": workload.raw_links(seed) / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
        "modularity_q": quality.get("modularity_q", 0.0),
        "dissimilarity_d": quality.get("dissimilarity_d", 0.0),
        "mean_na": quality.get("mean_na", 0.0),
    }
    facts = {"passes": len(passes), "pass_walls_s": passes, "setups_s": setups, "sizes": ledger.check["sizes"],
             "sha256": ledger.reference}
    return metrics, facts


# ---------------------------------------------------------------- traced run

SELF_SPANS = (
    "temporal_graph.parse_link_file", "temporal_graph.build_temporal_graph", "temporal_graph.coarsen_time",
    "temporal_graph.write_links", "generator.generate", "generator.write_assignment",
    "detection.ModularityView", "detection.louvain", "repair.repair", "metrics.community_reports",
    "metrics.node_reports", "metrics.dissimilarity", "metrics.read_community_csv", "detection.write_cover",
    "detection.read_cover", "repair.write_trace", "cli.render_profile_svg",
)
SPAN_GROUPS = {"metrics.write_csv": ("metrics.write_community_csv", "metrics.write_node_csv")}
COUNTS = (
    "temporal_graph.raw_links", "temporal_graph.nodes", "temporal_graph.links", "temporal_graph.coarsened_nodes",
    "detection.view_edges", "detection.louvain.communities",
    "repair.merges", "repair.communities_in", "repair.communities_out",
)
ROOT_SPANS = ("cli.import", "cli.main")  # the rest of a traced command is layer work


class TraceLog:
    """Every span of a traced run, from all its processes, on one timeline."""

    def __init__(self):
        self.spans: list[list] = []

    def add(self, rows: list[list]) -> None:
        offset = len(self.spans)
        self.spans += [[n, s, e, p + offset if p >= 0 else -1, op] for n, s, e, p, op in rows]

    def write(self, path: Path, workload: str, seed: int) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start_s", "end_s", "parent", "op"]
        path.write_text(json.dumps({"workload": workload, "seed": seed, "fields": fields, "spans": self.spans}),
                        encoding="utf-8")


def _traced(runner: Runner, request: dict, log: TraceLog, totals: dict) -> tuple[Outcome, dict]:
    """Run one traced request; add its spans' self times to ``totals``."""
    spans_file = runner.workdir / ".spans.json"
    spans_file.unlink(missing_ok=True)
    t0 = time.perf_counter()
    outcome = runner.child({**request, "t0": t0, "spans": str(spans_file)}, t0=t0)
    dump = {"spans": [], "counts": {}, "alloc_peak": {}}
    if spans_file.exists():
        dump = json.loads(spans_file.read_text(encoding="utf-8"))
    log.add(dump["spans"])
    for row, own in zip(dump["spans"], self_times(dump["spans"])):
        totals[row[0]] = totals.get(row[0], 0.0) + own
    return outcome, dump


def trace_pass(runner: Runner, commands: list[Command], label: str, log: TraceLog, alloc: bool = False) -> dict:
    """Every command once under the tracer, serially, in the CLI's order."""
    result = {"self": {}, "counts": {}, "alloc": {}, "wall": 0.0, "cells": [], "outcomes": {}}
    for command in commands:
        runner.clear_outputs(command)
        request = {"mode": "trace", "op": f"{label}:{command.key}", "alloc": alloc, "argv": list(command.argv)}
        outcome, dump = _traced(runner, request, log, result["self"])
        result["outcomes"][command.key] = outcome
        result["wall"] += outcome.wall
        result["cells"] += [end - start for name, start, end, _, _ in dump["spans"] if name == CELL_SPAN]
        for name, value in dump["counts"].items():
            result["counts"][name] = result["counts"].get(name, 0) + value
        for name, value in dump["alloc_peak"].items():
            result["alloc"][name] = max(value, result["alloc"].get(name, 0))
    return result


def traced_run(runner: Runner, workload: Workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    nproc = os.cpu_count() or 1
    commands = workload.commands(seed, nproc, traced=True)
    parallel = workload.commands(seed, nproc, traced=False)
    parallel = parallel if parallel != commands else None
    ledger = OutputLedger(runner, workload, seed)
    log = TraceLog()
    rounds: list[dict] = []
    spent: list[float] = []
    alloc: dict = {}
    last: dict = {}
    while not rounds or keep_going(runner, spent, seconds):
        began = time.perf_counter()
        label = f"r{len(rounds)}"
        setup_self: dict = {}
        outcome, _ = _traced(runner, {"mode": "trace", "op": f"{label}:setup", "alloc": False,
                                      "setup": {"workload": workload.name, "seed": seed}}, log, setup_self)
        if outcome.code != 0:
            raise RuntimeError(f"traced set-up failed: {outcome.stderr[-2000:]}")
        untraced_wall, _, outcomes = run_pass(runner, commands)
        ledger.pass_done(commands, outcomes, tally)
        parallel_wall = 0.0
        if parallel:
            parallel_wall, _, outcomes = run_pass(runner, parallel)
            ledger.pass_done(parallel, outcomes, tally)
        if not rounds:
            # Allocation peaks in a pass of their own: tracemalloc slows the spans it watches.
            memory = trace_pass(runner, commands, f"{label}.alloc", log, alloc=True)
            ledger.pass_done(commands, memory["outcomes"], tally)
            alloc = memory["alloc"]
        traced = trace_pass(runner, commands, label, log)
        ledger.pass_done(commands, traced["outcomes"], tally)
        rounds.append(layer_values(nproc, traced, setup_self, alloc, untraced_wall, parallel_wall))
        spent.append(time.perf_counter() - began)
        last = traced
    log.write(STATE / "traces" / f"{workload.name}-seed{seed}.json", workload.name, seed)
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    facts = {"rounds": len(rounds), "sizes": ledger.check["sizes"], "sha256": ledger.reference,
             "where": where_time_went(workload, last)}
    return values, facts


def layer_values(nproc, traced, setup_self, alloc, untraced_wall, parallel_wall) -> dict:
    """The per-layer metrics of one traced round."""
    own = dict(traced["self"])
    for name, value in setup_self.items():
        own[name] = own.get(name, 0.0) + value
    values = {f"{name}.self_s": own.get(name, 0.0) for name in SELF_SPANS}
    for group, members in SPAN_GROUPS.items():
        values[f"{group}.self_s"] = sum(own.get(name, 0.0) for name in members)
    for name in ALLOC_SPANS:
        values[f"{name}.alloc_peak_mb"] = alloc.get(name, 0) / 2**20
    for name in COUNTS:
        values[name] = traced["counts"].get(name, 0)
    import_s = traced["self"].get("cli.import", 0.0)
    layers = sum(v for name, v in traced["self"].items() if name not in ROOT_SPANS)
    values["cli.import_s"] = import_s
    values["cli.other_s"] = traced["wall"] - import_s - layers
    cells = traced["cells"]
    values["cli.sweep.cells"] = len(cells)
    values["cli.sweep.cell_s.p50"] = statistics.median(cells) if cells else 0.0
    values["cli.sweep.cell_s.p75"] = statistics.quantiles(cells, n=4)[2] if len(cells) > 1 else 0.0
    values["cli.sweep.pool_overhead_s"] = parallel_wall - sum(cells) / sweep_jobs(nproc) if cells else 0.0
    values["trace.wall_s"] = traced["wall"]
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced["wall"] - untraced_wall
    return values


def where_time_went(workload: Workload, traced: dict) -> list[str]:
    """Accounting of the traced wall time, and the dominant layer against the prediction."""
    wall = traced["wall"]
    own = {n: v for n, v in traced["self"].items() if n not in ROOT_SPANS}
    import_s = traced["self"].get("cli.import", 0.0)
    other = wall - import_s - sum(own.values())
    lines = [f"traced wall {wall:.3f} s = layer self times {sum(own.values()):.3f} s + cli.import {import_s:.3f} s"
             f" + cli.other {other:.3f} s ({'ok' if other >= 0 else 'NEGATIVE: spans overlap'})"]
    top = sorted(own.items(), key=lambda kv: -kv[1])[:5]
    lines.append("top spans: " + ", ".join(f"{n} {v:.3f} s ({v / wall:.0%})" for n, v in top))
    modules: dict[str, float] = {}
    for name, value in own.items():
        modules[name.split(".")[0] + "."] = modules.get(name.split(".")[0] + ".", 0.0) + value
    predicted = workload.predicted_dominant
    found = max(modules, key=modules.get) if predicted.endswith(".") else (top[0][0] if top else "")
    verdict = "as predicted" if found == predicted else "NOT as predicted"
    lines.append(f"dominant: {found} (predicted {predicted}): {verdict}")
    return lines


# ---------------------------------------------------------------- entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dyncomm" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from the root of a dyncomm checkout ({SRC / 'dyncomm'} and {spec_path} "
              "must exist)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    workdir = STATE / f"run-{workload.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        runner = Runner(workdir, started)
        run = traced_run if args.trace else timed_run
        values, facts = run(runner, workload, args.seed, args.seconds, tally)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    sizes = facts.pop("sizes")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"sweep_jobs={sweep_jobs(os.cpu_count() or 1)} run_s={time.perf_counter() - started:.1f}")
    print(f"inputs: workload={workload.name} seed={args.seed} raw_links={workload.raw_links(args.seed)} "
          f"temporal_nodes={sizes.get('temporal_nodes')} communities={sizes.get('communities')}")
    for line in facts.pop("where", []):
        print(line)
    print("run: " + json.dumps(facts))
    print(f"error_rate: {tally.failed / max(1, tally.attempted):.4f} "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for reason in tally.reasons[:20]:
        print(f"failed: {reason}")
    for m in wanted:
        print(f"metric: {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
