"""Diachronic link data model.

A link file row records that a source (node, time) cites a destination
(node, time), where the two timestamps may differ.  From such rows we build
the temporal graph (vertices are (node, timestep) pairs) and, by dropping
timestamps, its physical projection.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple

RawLink = tuple[tuple[str, int], tuple[str, int]]

STRICT_CITATION = "strict_citation"
PERMISSIVE = "permissive"


class LinkParseError(ValueError):
    """Malformed link-file line (field count, bad integer, bad time)."""


class LinkValidationError(ValueError):
    """Structurally valid link that violates the active validation mode."""


class TemporalNode(NamedTuple):
    node: str
    t: int


class TemporalLink(NamedTuple):
    source: TemporalNode
    target: TemporalNode
    weight: int


@dataclass(frozen=True)
class TemporalGraph:
    """Directed weighted graph over (node, timestep) vertices.

    Link weights are raw-link multiplicities, so ``total_weight`` equals the
    number of raw input links.  Immutable after construction.
    """

    nodes: tuple[TemporalNode, ...]
    links: tuple[TemporalLink, ...]
    total_weight: int = 0

    def __post_init__(self) -> None:
        if self.total_weight != sum(link.weight for link in self.links):
            raise ValueError("total_weight does not match the sum of link weights")

    @property
    def labels(self) -> tuple[str, ...]:
        """Physical node labels in first-appearance order."""
        seen: dict[str, None] = {}
        for tn in self.nodes:
            seen.setdefault(tn.node, None)
        return tuple(seen)


@dataclass(frozen=True)
class PhysicalGraph:
    """Time-aggregated projection: edge weight counts raw links between the pair."""

    nodes: tuple[str, ...]
    edges: Mapping[tuple[str, str], int]

    @property
    def total_weight(self) -> int:
        return sum(self.edges.values())


def parse_links(lines: Iterable[str], mode: str = STRICT_CITATION) -> list[RawLink]:
    """Parse a link stream into the ordered raw-link multiset.

    Each non-comment line holds ``src_label src_time dst_label dst_time``.
    Duplicates are preserved.  ``strict_citation`` additionally requires
    the destination time not to exceed the source time.
    """
    if mode not in (STRICT_CITATION, PERMISSIVE):
        raise ValueError(f"unknown validation mode: {mode!r}")
    raw: list[RawLink] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 4:
            raise LinkParseError(
                f"line {lineno}: expected 4 whitespace-separated fields, got {len(fields)}"
            )
        src_label, src_time_s, dst_label, dst_time_s = fields
        try:
            src_time = int(src_time_s)
            dst_time = int(dst_time_s)
        except ValueError:
            raise LinkParseError(f"line {lineno}: times must be integers") from None
        if src_time < 0 or dst_time < 0:
            raise LinkParseError(f"line {lineno}: times must be non-negative")
        if mode == STRICT_CITATION and dst_time > src_time:
            raise LinkValidationError(
                f"line {lineno}: target newer than source: "
                f"({src_label},{src_time}) -> ({dst_label},{dst_time})"
            )
        raw.append(((src_label, src_time), (dst_label, dst_time)))
    return raw


def parse_link_file(path: str | Path, mode: str = STRICT_CITATION) -> list[RawLink]:
    with open(path, encoding="utf-8") as handle:
        return parse_links(handle, mode=mode)


@contextmanager
def _opened(target: IO[str] | Iterable[str] | str | Path, mode: str = "r") -> Iterator:
    """Yield ``target`` itself, or the UTF-8 text file it names opened in ``mode``.

    Files open with ``newline=""``: the csv module needs it, and every
    writer in the package ends its lines with a bare line feed.
    """
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield target


def _write_table(out: IO[str] | str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV table: ``header``, then one line per row, each ended by a bare line feed."""
    with _opened(out, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_table(
    source: IO[str] | str | Path, name: str, header: list[str], add_row: Callable[[list[str]], None]
) -> None:
    """Check a CSV table's header, then pass each non-blank row to ``add_row``.

    A row must have one field per header column.  Any error, ``add_row``'s
    included, is re-raised as a ValueError that names its line.
    """
    with _opened(source) as handle:
        reader = csv.reader(handle)
        try:
            found = next(reader, None)
            if found != header:
                raise ValueError(f"expected {name} header {header}, got {found}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}: {row}")
                add_row(row)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"line {max(reader.line_num, 1)}: {exc}") from None


def write_links(links: Iterable[RawLink], out: IO[str] | str | Path) -> None:
    """Write raw links in the four-field link file format, one per line.

    Raises LinkValidationError, before writing anything, for a label that
    `parse_links` could not read back: empty, containing whitespace, or
    starting with ``#``.
    """
    links = list(links)
    labels = {src for (src, _), _ in links} | {dst for _, (dst, _) in links}
    bad = sorted(label for label in labels if label.split() != [label] or label.startswith("#"))
    if bad:
        raise LinkValidationError(
            f"label {bad[0]!r} would not read back: labels must be non-empty, "
            "without whitespace, and not start with '#'"
        )
    text = "".join([f"{src} {ts} {dst} {td}\n" for (src, ts), (dst, td) in links])
    with _opened(out, "w") as handle:
        handle.write(text)


def _assemble(
    vertices: Iterable[tuple[str, int]],
    weights: Mapping[RawLink, int],
    total_weight: int,
) -> TemporalGraph:
    """The graph over distinct ``vertices`` (in order) with one link per weighted pair.

    Each vertex becomes one `TemporalNode`, and every link endpoint is that
    same object.
    """
    nodes = {key: TemporalNode._make(key) for key in vertices}
    # tuple.__new__ skips the named tuple's Python-level __new__, once per link.
    new = tuple.__new__
    links = tuple(
        [new(TemporalLink, (nodes[src], nodes[dst], w)) for (src, dst), w in weights.items()]
    )
    return TemporalGraph(nodes=tuple(nodes.values()), links=links, total_weight=total_weight)


def build_temporal_graph(
    raw_links: Iterable[RawLink],
    isolated_nodes: Iterable[tuple[str, int]] = (),
) -> TemporalGraph:
    """Assemble the temporal graph from validated raw links.

    Vertices are the union of all link endpoints (plus any explicitly
    declared isolated nodes); repeated endpoint pairs aggregate into one
    link with multiplicity weight.  Orders follow first appearance, source
    before target, which keeps construction deterministic for a given input
    sequence.
    """
    counts = Counter(raw_links)
    vertices = dict.fromkeys(chain.from_iterable(counts))
    for label, t in isolated_nodes:
        vertices.setdefault((label, t), None)
    return _assemble(vertices, counts, counts.total())


def project_physical(tg: TemporalGraph) -> PhysicalGraph:
    """Aggregate over the whole timescale into a directed physical graph."""
    edges: dict[tuple[str, str], int] = {}
    for link in tg.links:
        key = (link.source.node, link.target.node)
        edges[key] = edges.get(key, 0) + link.weight
    return PhysicalGraph(nodes=tg.labels, edges=edges)


def coarsen_time(tg: TemporalGraph, k: int) -> TemporalGraph:
    """Bin timesteps by floor(t / k), merging temporal nodes that collide.

    Link multiplicities add; links whose endpoints collapse onto the same
    (node, bin) become self-loops.  Nodes and links keep first-appearance
    order, the order a rebuild from the binned raw links would give.
    ``k = 1`` is the identity.
    """
    if k < 1:
        raise ValueError("coarsening factor k must be >= 1")
    if k == 1:
        return tg
    binned = {tn: (tn.node, tn.t // k) for tn in tg.nodes}
    weights: dict[RawLink, int] = {}
    for src, dst, w in tg.links:
        key = (binned[src], binned[dst])
        weights[key] = weights.get(key, 0) + w
    return _assemble(dict.fromkeys(binned.values()), weights, tg.total_weight)
