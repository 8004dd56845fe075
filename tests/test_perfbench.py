"""The benchmark harness still runs against the library.

perfbench imports `parse_link_file`, `build_temporal_graph`, `read_cover`
and other library names, so a library change that breaks the harness
fails here rather than only when the benchmark runs.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith("self-test passed\n")
    # The self-test also passes when the harness's own check raises (say, an
    # ImportError), so each corrupted cover must fail for the reason planted.
    assert "detect#0: CheckFailed: cover.csv misses 1 and adds 0 temporal nodes\n" in result.stdout
    assert "metrics#0: exit code 2; CheckFailed: snapshots.csv misses 1 and adds 0 temporal nodes\n" in result.stdout
