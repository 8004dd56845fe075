from __future__ import annotations

import io
import json

import pytest

from dyncomm import (
    ConfigError,
    GeneratorConfig,
    LinkValidationError,
    cell_config,
    generate,
    read_assignment,
    write_assignment,
)
from dyncomm.generator import cell_seed, planted_assignment

BASE = dict(n_c=4, m=5, t_max=20, w=10, d=3, p=1.0, seed=20)


def config(**overrides) -> GeneratorConfig:
    return GeneratorConfig(**{**BASE, **overrides})


def test_base_config_link_count_and_pure_intra():
    links, assignment = generate(config(p=1.0))
    assert len(links) == 1200
    assert all(assignment[u] == assignment[v] for (u, _), (v, _) in links)


def test_exact_links_per_timestep():
    links, _ = generate(config(seed=3))
    per_step = {}
    for (_, t), _ in links:
        per_step[t] = per_step.get(t, 0) + 1
    assert per_step == {t: 60 for t in range(1, 21)}


def test_window_bounds_and_no_instant_self_link():
    links, _ = generate(config(p=0.7, seed=4))
    for (u, t), (v, t2) in links:
        assert max(1, t - 10) <= t2 <= t
        assert t2 >= 1
        assert (u, t) != (v, t2)


def test_intra_fraction_tracks_p():
    total = intra = 0
    for seed in range(10):
        links, assignment = generate(config(p=0.85, seed=seed))
        for (u, _), (v, _) in links:
            total += 1
            intra += assignment[u] == assignment[v]
    assert total >= 10_000
    assert abs(intra / total - 0.85) <= 0.03


def test_generate_is_deterministic():
    assert generate(config()) == generate(config())


def test_planted_assignment_blocks():
    assignment = planted_assignment(config())
    counts = {}
    for community in assignment.values():
        counts[community] = counts.get(community, 0) + 1
    assert counts == {c: 5 for c in range(4)}
    assert assignment["0"] == 0 and assignment["19"] == 3


def test_fractional_d_must_give_integer_link_count():
    ok = config(d=0.7)  # 0.7 * 20 = 14 links per step
    assert ok.links_per_step == 14
    with pytest.raises(ConfigError, match="d\\*n"):
        config(d=0.33)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(p=1.5),
        dict(p=-0.1),
        dict(t_max=0),
        dict(w=0),
        dict(d=0),
        dict(n_c=0),
        dict(m=1),  # p > 0 with single-member communities
        dict(n_c=1, m=20, p=0.5),  # inter branch has no target
        dict(n_c=2.5, m=2),  # n = 5 would pass the link-count check
        dict(t_max=True),
        dict(p=True),
        dict(m="4"),
    ],
)
def test_invalid_configs_rejected(overrides):
    with pytest.raises(ConfigError):
        config(**overrides)


def test_single_community_allowed_when_fully_intra():
    cfg = config(n_c=1, m=20, p=1.0)
    links, _ = generate(cfg)
    assert len(links) == 1200


def test_config_checks_keys_in_its_json_file_and_types_when_built(tmp_path):
    path = tmp_path / "config.json"

    def from_json(data):
        path.write_text(json.dumps(data))
        return GeneratorConfig.from_json_file(path)

    assert from_json(BASE) == config()
    with pytest.raises(ConfigError, match="missing"):
        from_json({"n_c": 4})
    with pytest.raises(ConfigError):
        config(d="three")
    with pytest.raises(ConfigError, match=r"unknown config keys: \['colour', 't_mx'\]"):
        from_json({**BASE, "t_mx": 50, "colour": "red"})


def test_sweep_over_p_yields_one_dataset_per_cell():
    configs = [cell_config(config(), "p", value, 1) for value in [0.5, 0.85, 1.0]]
    assert [cfg.p for cfg in configs] == [0.5, 0.85, 1.0]
    assert all(len(generate(cfg)[0]) == 1200 for cfg in configs)


def test_sweep_over_d_scales_link_counts():
    configs = [cell_config(config(p=1.0), "d", value, 7) for value in [2, 4]]
    assert [len(generate(cfg)[0]) for cfg in configs] == [800, 1600]


def test_sweep_cells_are_reproducible():
    first = cell_config(config(), "p", 0.85, 3)
    assert first == cell_config(config(), "p", 0.85, 3)
    assert first.seed == cell_seed(3, "p", 0.85)
    assert generate(first) == generate(cell_config(config(), "p", 0.85, 3))
    assert cell_seed(3, "p", 0.85) == cell_seed(3, "p", 0.85)
    assert cell_seed(3, "p", 0.85) != cell_seed(4, "p", 0.85)


def test_cell_config_rejects_a_parameter_that_cannot_be_swept():
    with pytest.raises(ConfigError, match="sweep parameter"):
        cell_config(config(), "w", 5, 1)
    with pytest.raises(ConfigError, match=r"p must lie in \[0, 1\]"):
        cell_config(config(), "p", 1.5, 1)


def test_assignment_sidecar_round_trip():
    _, assignment = generate(config())
    buffer = io.StringIO()
    write_assignment(assignment, buffer)
    assert read_assignment(buffer.getvalue().splitlines()) == assignment


@pytest.mark.parametrize("label", ["#a", "a b"])
def test_write_assignment_rejects_a_label_that_would_not_read_back(tmp_path, label):
    buffer = io.StringIO()
    with pytest.raises(LinkValidationError, match=f"label {label!r} would not read back"):
        write_assignment({label: 0, "b": 1}, buffer)
    assert buffer.getvalue() == ""
    out = tmp_path / "sub" / "assignment.txt"
    with pytest.raises(LinkValidationError):
        write_assignment({"b": 1, label: 0}, out)
    assert not (tmp_path / "sub").exists()


def test_read_assignment_errors_name_their_line():
    with pytest.raises(ValueError, match="^line 2: invalid literal"):
        read_assignment(["a 0", "b x"])
    with pytest.raises(ValueError, match="^line 4: expected"):
        read_assignment(["a 0", "# comment", "  # indented", "b"])
    with pytest.raises(ValueError, match="^line 2: duplicate label 'a'$"):
        read_assignment(["a 0", "a 1"])
