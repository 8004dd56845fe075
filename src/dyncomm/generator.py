"""Planted-community synthetic citation data.

Physical nodes are split into equal-size a-priori communities; each
timestep emits a fixed number of citation links whose targets stay inside
the source's community with probability p and land in a recent sliding
time window.  Output is deterministic for a given seed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .temporal_graph import (
    SWEEPABLE_PARAMETERS,
    ConfigError,
    RawLink,
    _check_labels,
    _decimal,
    _opened,
)

PlantedAssignment = dict[str, int]

# The config fields that take any real number; the others are integers.
_REAL_FIELDS = ("d", "p")

# The most links one config may make, d*n*t_max.  `generate` holds about 300
# bytes per link (measured at 60k and 240k links), so about 1.5 GB at the cap.
MAX_LINKS = 5_000_000


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object's pairs as a dict; a repeated key is a config error."""
    data: dict[str, object] = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate config key: {key!r}")
        data[key] = value
    return data


class _GeneratorConfigFields(NamedTuple):
    n_c: int
    m: int
    t_max: int
    w: int
    d: float
    p: float
    seed: int


class GeneratorConfig(_GeneratorConfigFields):
    """Benchmark parameters.

    n_c a-priori communities of m members each (n = m * n_c physical
    nodes), t_max timesteps, sliding window of w timesteps, average
    out-degree d per temporal node per timestep (d * n links emitted per
    timestep), intra-community citation probability p.
    """

    __slots__ = ()

    def __new__(
        cls, n_c: int, m: int, t_max: int, w: int, d: float, p: float, seed: int
    ) -> "GeneratorConfig":
        values = (n_c, m, t_max, w, d, p, seed)
        # Only numbers: int() and float() would quietly take true as 1,
        # cut 2.7 to 2 and read strings such as "1_0" or "٣".
        for key, value in zip(cls._fields, values):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"non-numeric config value: {key} must be a number, got {value!r}")
            if key not in _REAL_FIELDS and isinstance(value, float) and not value.is_integer():
                raise ConfigError(f"config value {key} must be an integer, got {value!r}")
        try:
            values = [float(v) if key in _REAL_FIELDS else int(v) for key, v in zip(cls._fields, values)]
        except OverflowError as exc:  # an integer too large for a float
            raise ConfigError(f"config value out of range: {exc}") from None
        self = super().__new__(cls, *values)
        if self.n_c < 1 or self.m < 1:
            raise ConfigError("n_c and m must be positive")
        if self.t_max < 1:
            raise ConfigError("t_max must be positive")
        if self.w < 1:
            raise ConfigError("window w must be positive")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must lie in [0, 1], got {self.p}")
        if self.d <= 0:
            raise ConfigError("average out-degree d must be positive")
        if not math.isfinite(self.d):
            raise ConfigError(f"average out-degree d must be finite, got {self.d}")
        try:
            per_step = self.d * self.n
        except OverflowError:  # n beyond a float's range
            per_step = math.inf
        whole = round(per_step) if math.isfinite(per_step) else 0
        if abs(per_step - whole) > 1e-9 or whole < 1:
            raise ConfigError(
                f"d*n must be a positive integer link count per timestep, got {per_step}"
            )
        total = whole * self.t_max
        if total > MAX_LINKS:
            count = total if total < 10**18 else f"about 10**{math.floor(math.log10(total))}"
            raise ConfigError(
                f"the config makes d*n*t_max = {count} links, more than the {MAX_LINKS} allowed"
            )
        # Degenerate corners where a branch has no valid target: the intra
        # branch needs a community mate at t=1, the inter branch needs a
        # second community.
        if self.p > 0 and self.m < 2:
            raise ConfigError("p > 0 requires communities of at least 2 members")
        if self.p < 1 and self.n_c < 2:
            raise ConfigError("p < 1 requires at least 2 communities")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "GeneratorConfig":
        return cls(*iterable)  # `_replace` validates too

    @property
    def n(self) -> int:
        return self.n_c * self.m

    @property
    def links_per_step(self) -> int:
        return round(self.d * self.n)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "GeneratorConfig":
        with _opened(path) as handle:
            try:
                data = json.load(handle, object_pairs_hook=_unique_keys)
            except (UnicodeDecodeError, ConfigError):
                raise  # `_opened` names its line; `_unique_keys` names its key
            except ValueError as exc:  # bad JSON, or an integer with more digits than int() reads
                raise ConfigError(f"invalid config JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        missing = set(cls._fields) - set(data)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def planted_assignment(config: GeneratorConfig) -> PlantedAssignment:
    """Labels "0".."n-1" in contiguous blocks of m per community."""
    return {str(i): i // config.m for i in range(config.n)}


def generate(config: GeneratorConfig) -> tuple[list[RawLink], PlantedAssignment]:
    """Generate the raw link list and its planted community assignment.

    Per timestep t in 1..t_max, emits exactly d*n links: source drawn
    uniformly; target node drawn within the source community with
    probability p, otherwise uniformly over the other communities; target
    time drawn uniformly over {max(1, t-w), ..., t}.  A draw equal to the
    emitting temporal node itself is rejected and redrawn, so a node never
    cites its own instant.
    """
    rng = random.Random(config.seed)
    n, m = config.n, config.m
    labels = [str(i) for i in range(n)]
    links: list[RawLink] = []
    for t in range(1, config.t_max + 1):
        lo = max(1, t - config.w)
        for _ in range(config.links_per_step):
            src = rng.randrange(n)
            block = (src // m) * m
            if rng.random() < config.p:
                tgt = block + rng.randrange(m)
            else:
                tgt = rng.randrange(n - m)
                if tgt >= block:
                    tgt += m
            t2 = rng.randint(lo, t)
            if tgt == src and t2 == t:
                if lo < t:
                    while t2 == t:
                        t2 = rng.randint(lo, t)
                else:
                    # t == 1: the window is {1}, so redraw the community mate.
                    while tgt == src:
                        tgt = block + rng.randrange(m)
            links.append(((labels[src], t), (labels[tgt], t2)))
    return links, planted_assignment(config)


def cell_seed(seed: int, parameter: str, value: float) -> int:
    """Stable 64-bit seed for one sweep cell, independent of run order."""
    import hashlib  # only sweeps need it; it is slow to import

    digest = hashlib.sha256(
        f"{parameter}={float(value)!r};seed={seed}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def cell_config(
    base: GeneratorConfig, parameter: str, value: float, seed: int
) -> GeneratorConfig:
    """The config of one sweep cell: ``base`` with ``parameter`` set to
    ``value`` and the seed `cell_seed` derives from (seed, parameter, value).

    Raises ConfigError for a parameter that cannot be swept or a cell whose
    config is invalid.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {SWEEPABLE_PARAMETERS}")
    return base._replace(**{parameter: value, "seed": cell_seed(seed, parameter, value)})


def write_assignment(assignment: PlantedAssignment, out: IO[str] | str | Path) -> None:
    """Write the `label community_index` sidecar, one node per line.

    Raises LinkValidationError, before writing anything, for a label that
    `read_assignment` could not read back (see `temporal_graph._check_labels`).
    """
    _check_labels(assignment)
    with _opened(out, "w") as handle:
        for label, community in assignment.items():
            handle.write(f"{label} {community}\n")


def read_assignment(source: Iterable[str] | str | Path) -> PlantedAssignment:
    """Read the sidecar from a path, a handle or a sequence of lines."""
    assignment: PlantedAssignment = {}
    with _opened(source) as lines:
        for lineno, line in enumerate(lines, start=1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: expected `label community_index`")
            label = fields[0]
            if label in assignment:
                raise ValueError(f"line {lineno}: duplicate label {label!r}")
            try:
                assignment[label] = _decimal(fields[1])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return assignment
