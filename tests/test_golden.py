"""Golden digests: the CLI's output bytes for one small fixed pipeline.

Every output file of a short generate → detect → metrics → profile → repair
→ sweep run is hashed and compared with digests recorded from a known-good build.
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
    "communities_k1.csv": "32a57a01485d4383ef75ca1ced57ac34e049923968aef110bfcddfb889bb807b",
    "communities_k3.csv": "820b8df32caaa90bd8dfc95cce377334da8e35a4effc7c24a42c03efc8922da3",
    "gn_k1.csv": "1510196a6c99667c5a4e2b09352481a1777972d76eccf2f5202ace4e1eda7c86",
    "links.txt": "5bc9e3b5e2ad38fb804b1900fe73c149c8bdc131991a4a0afa360b26fbda020f",
    "links.txt.assignment": "67b690b881c3042819ee108e4d625d836ce58db359c25e3060d03e358b36d09d",
    "louvain_k1.csv": "2262bd0727119c134ea90af8b8b435221a2231beb871a9eeea26f2803036c68c",
    "louvain_k3.csv": "3c83f352bf6078a2964e0b3119ebb08576eb379f31a4dfe8d82e7553c166e31c",
    "nodes_k1.csv": "64843fc17047868bfb7690610a7edead3d5b007cb2b0f7e05a8332cc1d1ff0f5",
    "nodes_k3.csv": "2c864b80bbcfff8c1d53d9ce5b55c6b583c5f4989246f442e5f3e0ba0632b6de",
    "profile_k1.svg": "40bcd8557b2c5f4ac85b93dfa4997934e851979cc318c33dc825a4fe9f612976",
    "repaired.csv": "c565e26e1e2129341efe8512e7d98b6881410d6b87fd9027d4f2a1298a039014",
    "sweep/assignment_p0.5_s1.txt": "67b690b881c3042819ee108e4d625d836ce58db359c25e3060d03e358b36d09d",
    "sweep/assignment_p0.5_s2.txt": "67b690b881c3042819ee108e4d625d836ce58db359c25e3060d03e358b36d09d",
    "sweep/assignment_p0.9_s1.txt": "67b690b881c3042819ee108e4d625d836ce58db359c25e3060d03e358b36d09d",
    "sweep/assignment_p0.9_s2.txt": "67b690b881c3042819ee108e4d625d836ce58db359c25e3060d03e358b36d09d",
    "sweep/cover_p0.5_s1.csv": "750d99fc6c2f7ca8213c5d10f495ed3181609f625e5832e55d6e5f3dc6efcdc1",
    "sweep/cover_p0.5_s2.csv": "c7362e90ddbdf4bd1bee0e07d8600438b49aeb2d1e360e64e8ebc6256b8d14a0",
    "sweep/cover_p0.9_s1.csv": "0557edb4ecbab0b54a58358591d0a54eeed1ad1f556882ade6aaaeabeedb0575",
    "sweep/cover_p0.9_s2.csv": "2a669c224257f9b686141f086c4ef1c3f3d382f077f9a23d9f1aa95914a90e3e",
    "sweep/links_p0.5_s1.txt": "a8120e9ee17b54c4cba4307851b7b8efbc3b5b9eb258b7053c33659add447066",
    "sweep/links_p0.5_s2.txt": "b5c903d32d91942e97376a06a85488414fb8848badf1aa02ef14b6ade43c3815",
    "sweep/links_p0.9_s1.txt": "578fa22a694b5df1c67c95cffd7df968f3a54de2cd89dfec03af004fe342dd40",
    "sweep/links_p0.9_s2.txt": "4ab82b32b6f1f932fa252e28c4e1235022d6e22a84068713fc5835aac836a3f5",
    "sweep/summary.csv": "c4885390b4c8c6a96bc5a705a19b056ba44f72ee6bbec476f4141a546d1f3d2a",
    "trace.csv": "711bf36b4e91bf998626ef7d7af7ae0c81d82d7e8816120327ac4a93d7e33790",
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
    run("profile", out / "communities_k1.csv", out / "profile_k1.svg")
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
