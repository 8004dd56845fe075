"""Self-test of the benchmark's failure accounting.

Usage, from the root of a dyncomm checkout:

    python3 perfbench/selftest.py

Two corrupted covers, each missing one temporal node, must each count as a
failed operation (error rate above 0) rather than crash the benchmark or
pass:

* an output cover: ``detect`` runs on a tiny planted graph, one row of its
  cover is then deleted, and the benchmark's own output check must flag it;
* an input cover: the snapshot cover that ``metrics`` and ``repair`` read
  misses one row, so the commands fail and the run must count them.

Exits 0 when both are reported as failures, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

import run
from workloads import SELF_TESTS


def corrupted_output(runner: run.Runner) -> run.Tally:
    workload = SELF_TESTS["self_test_detect"]
    tally = run.Tally()
    runner.child({"mode": "setup", "workload": workload.name, "seed": 1})
    commands = workload.commands(1, 1, traced=False)
    _, _, outcomes = run.run_pass(runner, commands)
    cover = runner.workdir / commands[0].outputs[0]
    rows = cover.read_text(encoding="utf-8").splitlines(keepends=True)
    cover.write_text("".join(rows[:-1]), encoding="utf-8")
    ledger = run.OutputLedger(runner, workload, 1)
    ledger.store = runner.workdir / "hashes.json"  # keep the corrupted digests out of the real ledger
    ledger.pass_done(commands, outcomes, tally)
    return tally


def corrupted_input(runner: run.Runner) -> run.Tally:
    tally = run.Tally()
    run.timed_run(runner, SELF_TESTS["self_test_repair"], 1, 0.1, tally)
    return tally


def main() -> int:
    if not (run.SRC / "dyncomm" / "cli.py").is_file():
        print(f"error: run from the root of a dyncomm checkout ({run.SRC / 'dyncomm'} must exist)",
              file=sys.stderr)
        return 2
    ok = True
    for name, case in (("output cover", corrupted_output), ("input cover", corrupted_input)):
        workdir = run.STATE / f"selftest-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            tally = case(run.Runner(workdir, time.perf_counter()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        detected = tally.failed > 0
        ok &= detected
        print(f"{name} missing one temporal node: error_rate "
              f"{tally.failed / max(1, tally.attempted):.2f} ({tally.failed} of {tally.attempted} failed): "
              f"{'reported' if detected else 'NOT REPORTED'}")
        for reason in tally.reasons:
            print(f"  {reason}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
