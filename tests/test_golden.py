"""Golden digests: the CLI's output bytes for one small fixed pipeline.

Every output file of a short generate → detect → metrics → repair → sweep
run is hashed and compared with digests recorded from a known-good build.
A speed-up in ingest, Louvain, metrics or repair must leave all of them
unchanged. If a change alters output on purpose, rerun this test, check
the new bytes by hand, and update `GOLDEN` in the same commit.
"""

from __future__ import annotations

import hashlib
import json

from dyncomm.cli import main

CONFIG = {"n_c": 3, "m": 5, "t_max": 12, "w": 4, "d": 2, "p": 0.85, "seed": 11}

GOLDEN = {
    "communities_k1.csv": "75fa0e5ddddc1f1f998395939c12d1be83f7eda11c9ef87cce9216c5796cbad0",
    "communities_k3.csv": "5c5307faa6928fa36db5d57502fa85940d387c6187d93a045f9ed888bea6fbd6",
    "gn_k1.csv": "15f6f94a3449d84515b75e973c88f8d42efa9b903a215fbd4f089f85fddaa6b7",
    "links.txt": "5bc9e3b5e2ad38fb804b1900fe73c149c8bdc131991a4a0afa360b26fbda020f",
    "links.txt.assignment": "67b690b881c3042819ee108e4d625d836ce58db359c25e3060d03e358b36d09d",
    "louvain_k1.csv": "333df1f0e4d56e796ed5529a5079782b34b491103c0dffd3e159458f11d6a111",
    "louvain_k3.csv": "0198e9bccc96a3507f1aef6475f8ed35638cef2792b695828d5744f4939fec38",
    "nodes_k1.csv": "6622c945fee1850f6bb9bc1d29b39416ef2f9cad1ec6b7062d0023c503090764",
    "nodes_k3.csv": "27b9a6d5703fe7126a19357b78108f55fd6cf7e3464f5791472b537dc8963e61",
    "repaired.csv": "c565e26e1e2129341efe8512e7d98b6881410d6b87fd9027d4f2a1298a039014",
    "sweep/assignment_p0.5_s1.txt": "67b690b881c3042819ee108e4d625d836ce58db359c25e3060d03e358b36d09d",
    "sweep/assignment_p0.5_s2.txt": "67b690b881c3042819ee108e4d625d836ce58db359c25e3060d03e358b36d09d",
    "sweep/assignment_p0.9_s1.txt": "67b690b881c3042819ee108e4d625d836ce58db359c25e3060d03e358b36d09d",
    "sweep/assignment_p0.9_s2.txt": "67b690b881c3042819ee108e4d625d836ce58db359c25e3060d03e358b36d09d",
    "sweep/cover_p0.5_s1.csv": "c7116b0b872caa751cce973e36e9233f78ed45567e91a1a00b04470e1c22872a",
    "sweep/cover_p0.5_s2.csv": "27caa8cad89a46a164a6141dabc4f6567526967f3e68934d2cbf84222badfd5c",
    "sweep/cover_p0.9_s1.csv": "37b828b5e3b8daec09c71ee413812e555b62722f7eaf5a84a2d927c50ebff3cc",
    "sweep/cover_p0.9_s2.csv": "ad80d9a69a1daed9c9f233bf9b5b8be726c6bd1dfa815eee275a0e9353599085",
    "sweep/links_p0.5_s1.txt": "a8120e9ee17b54c4cba4307851b7b8efbc3b5b9eb258b7053c33659add447066",
    "sweep/links_p0.5_s2.txt": "b5c903d32d91942e97376a06a85488414fb8848badf1aa02ef14b6ade43c3815",
    "sweep/links_p0.9_s1.txt": "578fa22a694b5df1c67c95cffd7df968f3a54de2cd89dfec03af004fe342dd40",
    "sweep/links_p0.9_s2.txt": "4ab82b32b6f1f932fa252e28c4e1235022d6e22a84068713fc5835aac836a3f5",
    "sweep/summary.csv": "0e5642b47293770a6ca7fcc369938a206c93f93ed93a7dbaad8b78d9416a68b5",
    "trace.csv": "f2eaf7b2fe74a41016645f4371573a08c36162d5b020db09228e9db9116875f9",
}


def run_pipeline(root) -> dict[str, str]:
    """Run the fixed pipeline under ``root``; map each output's name to its sha256."""
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = root / "out"
    links = out / "links.txt"

    def run(*args) -> None:
        assert main([str(a) for a in args]) == 0, args

    run("generate", config, links)
    run("detect", links, out / "louvain_k1.csv", "--seed", 7)
    run("detect", links, out / "louvain_k3.csv", "--seed", 7, "--coarsen", 3)
    run("detect", links, out / "gn_k1.csv", "--algo", "gn")
    run("metrics", links, out / "louvain_k1.csv",
        "--community-out", out / "communities_k1.csv", "--node-out", out / "nodes_k1.csv")
    run("metrics", links, out / "louvain_k3.csv", "--coarsen", 3,
        "--community-out", out / "communities_k3.csv", "--node-out", out / "nodes_k3.csv")
    run("repair", links, out / "louvain_k1.csv", out / "repaired.csv",
        "--min-overlap", 1, "--trace", out / "trace.csv")
    run("sweep", config, out / "sweep", "--param", "p", "--values", "0.5,0.9",
        "--seeds", "1,2", "--jobs", 1)
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_pipeline_outputs_match_golden_digests(tmp_path, capsys):
    assert run_pipeline(tmp_path) == GOLDEN
