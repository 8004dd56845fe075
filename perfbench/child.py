"""Work the benchmark runs in processes of its own: set-up, output checks, traced calls.

``run.py`` starts ``python3 perfbench/child.py '<json request>'`` in the run's
work directory, with dyncomm's ``src`` directory on ``PYTHONPATH``.  Keeping
this work out of the orchestrator keeps the orchestrator small, so the peak
RSS that the commands' processes report is their own: Linux carries a
parent's peak RSS into a child across fork and exec.

Requests:
  {"mode": "setup", "workload": W, "seed": N}   writes the workload's inputs
  {"mode": "check", "workload": W, "seed": N}   prints the workload's check result
  {"mode": "trace", "t0": T, "op": OP, "alloc": BOOL, "spans": FILE,
   and either "argv": [...] (one CLI command) or "setup": {"workload": W, "seed": N}}
A traced request writes its spans to FILE and exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    request = json.loads(sys.argv[1])
    if request["mode"] == "trace":
        return trace(request)
    from workloads import workload_named

    workload = workload_named(request["workload"])
    if request["mode"] == "setup":
        workload.setup(Path("."), request["seed"])
    else:
        print(json.dumps(workload.check(Path("."), request["seed"])))
    return 0


def trace(request: dict) -> int:
    import dyncomm.cli
    from spans import Tracer

    imported = time.perf_counter()
    tracer = Tracer(request["op"], alloc=request["alloc"])
    code = 0
    try:
        if "argv" in request:
            # Interpreter start-up and package import, from the parent's spawn time.
            tracer.add("cli.import", request["t0"], imported)
            tracer.install()
            code = dyncomm.cli.main(request["argv"])
        else:
            from workloads import workload_named

            tracer.install()
            setup = request["setup"]
            tracer.call("setup", workload_named(setup["workload"]).setup, (Path("."), setup["seed"]), {})
    finally:
        with open(request["spans"], "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
