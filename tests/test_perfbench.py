"""The benchmark harness still runs against the library.

perfbench imports `parse_link_file`, `build_temporal_graph`, `read_cover`
and other library names, so a library change that breaks the harness
fails here rather than only when the benchmark runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
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


def test_traced_detect_counts_view_edges(tmp_path):
    # A traced run wraps the library's public calls and counts the view's
    # edges from `ModularityView.adj`, so a change to the view's layout that
    # breaks `--trace 1` fails here.
    lines = ["a 1 b 1", "b 1 a 1", "b 1 a 1", "c 2 a 1", "c 2 b 1", "c 2 c 2", "d 2 c 2", "a 2 a 1"]
    (tmp_path / "links.txt").write_text("\n".join(lines) + "\n")
    links = [((src, ts), (dst, td)) for src, ts, dst, td in map(str.split, lines)]
    pairs = {frozenset(link) for link in links if link[0] != link[1]}
    loops = {src for src, dst in links if src == dst}
    spans = tmp_path / "spans.json"
    request = {"mode": "trace", "t0": time.perf_counter(), "op": "test", "alloc": True,
               "spans": str(spans), "argv": ["detect", "links.txt", "cover.csv"]}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(request)],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    dump = json.loads(spans.read_text())
    assert dump["counts"]["detection.view_edges"] == len(pairs) + len(loops) == 6
    assert "detection.ModularityView" in [span[0] for span in dump["spans"]]
    assert dump["alloc_peak"]["detection.ModularityView"] > 0
    assert (tmp_path / "cover.csv").exists()
