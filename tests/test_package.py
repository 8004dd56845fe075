"""The package surface: what each command loads, the public names, the records.

The start-up tests run in a fresh interpreter each, because the test process
has long since imported every module.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import dyncomm
from dyncomm import (
    CommunityReport,
    Cover,
    GeneratorConfig,
    MergeStep,
    ModularityView,
    NodeReport,
    TemporalNode,
    build_temporal_graph,
)

SRC = Path(dyncomm.__file__).resolve().parents[1]

# Loaded neither by `import dyncomm.cli` nor by a command that does not use
# them: the generator and the metrics serve some commands only, `hashlib`
# only sweeps, the process pool only `sweep --jobs`, and the records are
# named tuples, not dataclasses.
NOT_AT_START = {
    "concurrent.futures",
    "dataclasses",
    "inspect",
    "hashlib",
    "dyncomm.generator",
    "dyncomm.metrics",
}


def fresh_python(code: str, cwd: Path | None = None) -> str:
    """Run ``code`` in a new interpreter that imports dyncomm from this tree; return its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def modules_after(code: str, cwd: Path | None = None) -> set[str]:
    out = fresh_python(code + "\nimport sys\nprint('--modules--', *sys.modules, sep='\\n')", cwd)
    return set(out.split("--modules--\n", 1)[1].split())


def test_import_cli_loads_no_module_a_command_may_not_need():
    loaded = modules_after("import dyncomm.cli")
    assert "dyncomm.cli" in loaded
    assert loaded & NOT_AT_START == set()


@pytest.mark.parametrize(
    "argv, uses",
    [
        (["detect", "links.txt", "cover.csv"], set()),
        (["repair", "links.txt", "cover.csv", "repaired.csv"], set()),
        (["metrics", "links.txt", "cover.csv", "--community-out", "comm.csv"], {"dyncomm.metrics"}),
        (["profile", "comm.csv", "profile.svg"], {"dyncomm.metrics"}),
        (["generate", "config.json", "out.txt"], {"dyncomm.generator"}),
    ],
    ids=["detect", "repair", "metrics", "profile", "generate"],
)
def test_a_command_loads_only_the_modules_it_uses(tmp_path, argv, uses):
    (tmp_path / "links.txt").write_text("a 2 b 1\nb 3 a 2\nc 3 a 1\n")
    (tmp_path / "cover.csv").write_text("node,timestep,community\na,2,0\nb,1,0\nb,3,1\nc,3,1\na,1,1\n")
    (tmp_path / "comm.csv").write_text("community,z,temporal_size,NA,SC,HI,internal_links\n")
    config = {"n_c": 2, "m": 2, "t_max": 2, "w": 1, "d": 1, "p": 0.5, "seed": 0}
    (tmp_path / "config.json").write_text(json.dumps(config))
    loaded = modules_after(f"from dyncomm.cli import main\nassert main({argv!r}) == 0", tmp_path)
    assert loaded & NOT_AT_START == uses


def test_public_names_import_from_a_fresh_interpreter():
    fresh_python(
        "import dyncomm\n"
        "for name in dyncomm.__all__:\n"
        "    exec(f'from dyncomm import {name}')\n"
        "assert set(dyncomm.__all__) <= set(dir(dyncomm))\n"
        "import dyncomm.repair\n"
        "from dyncomm import repair\n"
        "assert callable(repair) and repair is dyncomm.repair and repair.__name__ == 'repair'\n"
    )


def test_dir_lists_every_public_name_without_loading_its_module():
    # In-process too, so that a line tracer sees `__dir__` run.
    assert set(dyncomm.__all__) <= set(dir(dyncomm))
    loaded = modules_after("import dyncomm\nassert set(dyncomm.__all__) <= set(dir(dyncomm))")
    assert loaded & {"dyncomm.generator", "dyncomm.metrics"} == set()


def test_readme_library_example_runs(tmp_path):
    # The README's one Python block, so that a name it uses cannot vanish unnoticed.
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    fresh_python(block, tmp_path)


def test_readme_cli_example_runs(tmp_path, monkeypatch):
    # The README's CLI block, in order, on its own generator config, so that a
    # documented command or flag cannot vanish unnoticed.
    from dyncomm.cli import main

    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    (config,) = [text for lang, text in blocks if lang == "json"]
    (cli,) = [text for lang, text in blocks if not lang and "dyncomm generate" in text]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(config)
    lines = [line for line in cli.splitlines() if line.startswith("dyncomm ")]
    assert len(lines) == 6
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line


def test_every_file_is_opened_in_one_place():
    # `temporal_graph._opened` makes an output's parent directories, and is
    # where a publish step for outputs belongs; no other code opens a file.
    openers = {"open", "write_text", "write_bytes", "read_text", "read_bytes"}
    inside, outside = [], []
    for path in sorted((SRC / "dyncomm").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_opened":
                assert path.name == "temporal_graph.py"
                allowed = {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute) and node.func.attr in openers
            ):
                (inside if id(node) in allowed else outside).append(f"{path.name}:{node.lineno}")
    assert inside  # the guard sees the opener itself
    assert outside == []


def test_the_pipeline_reads_links_from_the_graphs_arrays():
    # `TemporalGraph.links` counts the raw pairs and builds one tuple per distinct
    # link at each access; no module reads it, so the pipeline holds no per-link objects.
    properties, reads = [], []
    for path in sorted((SRC / "dyncomm").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "TemporalGraph":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "links":
                        properties.append(path.name)
                        allowed = {id(sub) for sub in ast.walk(item)}
        reads += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "links" and id(node) not in allowed
        ]
    assert properties == ["temporal_graph.py"]  # the guard sees the property itself
    assert reads == []


def test_only_the_build_makes_a_temporal_graph():
    # `build_temporal_graph` numbers the vertices; a second constructor call
    # would be a second vertex table to keep in step.
    inside, outside = [], []
    for path in sorted((SRC / "dyncomm").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "build_temporal_graph":
                allowed = {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "TemporalGraph":
                (inside if id(node) in allowed else outside).append(f"{path.name}:{node.lineno}")
    assert inside  # the guard sees the build's own call
    assert outside == []


def test_every_module_level_import_is_used():
    # No linter runs on this tree, so this keeps a deletion from leaving a dead import behind.
    unused = []
    for path in sorted((SRC / "dyncomm").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            named.add("repair")  # re-exported: bound here for `from dyncomm import repair`
        statements = list(tree.body)
        for node in statements:
            if isinstance(node, ast.If):  # `if TYPE_CHECKING:` blocks are module level too
                statements += node.body + node.orelse
            elif isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in named:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def test_every_module_level_private_name_is_used():
    # Keeps a simplification from leaving a private helper, class or constant behind.
    defined, loaded = [], set()
    for path in sorted((SRC / "dyncomm").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [sub.id for target in targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Name)]
            else:
                continue
            defined += [
                (path.name, node.lineno, name)
                for name in names
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    assert defined  # the guard sees the private names
    assert [f"{file}:{line} {name}" for file, line, name in defined if name not in loaded] == []


def test_a_private_name_its_module_never_uses_serves_two_others():
    # A private name that only one other module imports belongs in that module.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "dyncomm").glob("*.py"))
    }
    importers: dict[tuple[str, str], set[str]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        importers.setdefault((node.module, alias.name), set()).add(module)
    assert importers  # the guard sees the private imports
    misplaced = [
        f"{home}.{name} is used only in {', '.join(sorted(users))}"
        for (home, name), users in sorted(importers.items())
        if len(users) < 2
        and not any(
            isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            for node in ast.walk(trees[home])
        )
    ]
    assert misplaced == []


def test_each_export_names_the_module_that_defines_it():
    # A name that another module re-imports would resolve through a wrong entry too.
    for name, module in dyncomm._EXPORTS.items():
        value = getattr(dyncomm, name)
        if callable(value):
            assert value.__module__ == f"dyncomm.{module}", name


def test_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        dyncomm.frobnicate


def _records():
    tn = TemporalNode("a", 1)
    tg = build_temporal_graph([(("a", 1), ("b", 1))])
    return {
        "Cover": Cover({tn: 0}, 1),
        "TemporalGraph": tg,
        "GeneratorConfig": GeneratorConfig(n_c=2, m=2, t_max=1, w=1, d=1, p=0.5, seed=0),
        "ModularityView": ModularityView.from_temporal_graph(tg),
        "CommunityReport": CommunityReport(0, 1, 1, 0.0, 0.0, 1.0, 0),
        "NodeReport": NodeReport("a", 1, 1, 1.0, 0.0),
        "MergeStep": MergeStep(1, 0, 1, 0.5, 0.5),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_reject_attribute_assignment(name):
    record = _records()[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_replace_validates_like_the_constructor():
    records = _records()
    with pytest.raises(ValueError, match="contiguous"):
        records["Cover"]._replace(n_communities=2)
    no_links = array("i")
    assert records["TemporalGraph"]._replace(sources=no_links, targets=no_links).total_weight == 0
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
        records["GeneratorConfig"]._replace(p=1.5)
    assert records["GeneratorConfig"]._replace(p=1.0).p == 1.0
