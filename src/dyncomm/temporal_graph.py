"""Diachronic link data model.

A link file row records that a source (node, time) cites a destination
(node, time), where the two timestamps may differ.  From such rows we build
the temporal graph, whose vertices are (node, timestep) pairs.
"""

from __future__ import annotations

import csv
import io
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import reduce
from itertools import accumulate, compress
from operator import add
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

RawLink = tuple[tuple[str, int], tuple[str, int]]

# The generator's error and sweep parameters live here, so that the CLI can
# catch the one and offer the other without importing the generator.
SWEEPABLE_PARAMETERS = ("p", "d")


class ConfigError(ValueError):
    """Invalid generator configuration."""


class LinkParseError(ValueError):
    """Malformed link-file line (field count, bad integer, bad time)."""


class LinkValidationError(ValueError):
    """Structurally valid link that cannot be accepted, such as one that cites a later time."""


class TemporalNode(NamedTuple):
    node: str
    t: int


class TemporalGraph(NamedTuple):
    """Directed weighted graph over (node, timestep) vertices.

    Link ``l`` runs from ``nodes[sources[l]]`` to ``nodes[targets[l]]``, and
    its weight ``weights[l]`` is its raw-link multiplicity, so
    ``total_weight`` equals the number of raw input links.  The graph holds
    its arrays, not copies: they must not be mutated.
    """

    nodes: tuple[TemporalNode, ...]
    sources: array
    targets: array
    weights: array

    @property
    def links(self) -> tuple[tuple[TemporalNode, TemporalNode, int], ...]:
        """Each link as a plain ``(source, target, weight)`` tuple, built anew at each access."""
        ends = self.nodes.__getitem__
        return tuple(zip(map(ends, self.sources), map(ends, self.targets), self.weights))

    @property
    def total_weight(self) -> int:
        return sum(self.weights)


def _decimal(text: str) -> int:
    """The integer that ``text`` writes in ASCII digits, after at most a ``-``.

    ``int`` also reads a ``+``, spaces around the digits, ``_`` between them,
    the digits of other scripts and ``-0``.  The package writes none of
    these, so a number in such a form is a ValueError here rather than a
    different number's twin.
    """
    if text.isascii() and text.isdigit():
        return int(text)
    digits = text[1:]
    if text[:1] == "-" and digits.isascii() and digits.isdigit() and digits.strip("0"):
        return int(text)
    int(text)  # int's own message for what is no integer at all
    raise ValueError(f"{text!r} is not an integer in plain ASCII digits")


def _real(text: str) -> float:
    """The number that ``text`` writes in ASCII, with no ``+``, ``_`` or space around it.

    ``float`` also reads those forms and the digits of other scripts.  The
    package writes real numbers with ``repr``, which uses none of them.
    """
    if text.isascii() and "_" not in text and text[:1] != "+" and text.strip() == text:
        return float(text)
    raise ValueError(f"{text!r} is not a number in plain ASCII")


def _sum_in_order(values: Iterable[float]) -> float:
    """``values`` added left to right, one rounding per addition.

    The built-in ``sum`` compensates float rounding from Python 3.12 on, so
    its last bits, and the CSV digits written from it, would depend on the
    interpreter.  This is 3.11's ``sum`` on every version.
    """
    return reduce(add, values, 0)


def _link_stream(lines: Iterable[str], permissive: bool, k: int) -> Iterator[RawLink]:
    """Yield the raw links of ``lines`` one at a time, their times binned by ``t // k``.

    Each line is checked at its own times before it is binned, so ``k``
    never hides a bad line; ``k = 1`` leaves the times as they are.
    """
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 4:
            raise LinkParseError(
                f"line {lineno}: expected 4 whitespace-separated fields, got {len(fields)}"
            )
        src_label, src_time_s, dst_label, dst_time_s = fields
        # Plain non-negative times, checked by string methods alone on this hot
        # path; `_decimal` tells the other faults apart.
        if not (
            src_time_s.isascii()
            and src_time_s.isdigit()
            and dst_time_s.isascii()
            and dst_time_s.isdigit()
        ):
            try:
                _decimal(src_time_s)
                _decimal(dst_time_s)
            except ValueError:
                raise LinkParseError(f"line {lineno}: times must be integers") from None
            raise LinkParseError(f"line {lineno}: times must be non-negative")
        try:
            src_time = int(src_time_s)
            dst_time = int(dst_time_s)
        except ValueError as exc:  # more digits than int() reads
            raise LinkParseError(f"line {lineno}: {exc}") from None
        if not permissive and dst_time > src_time:
            raise LinkValidationError(
                f"line {lineno}: target newer than source: "
                f"({src_label},{src_time}) -> ({dst_label},{dst_time})"
            )
        yield (src_label, src_time // k), (dst_label, dst_time // k)


def parse_link_file(source: Iterable[str] | str | Path, *, permissive: bool = False) -> list[RawLink]:
    """Parse a link stream (a path, a handle or lines) into the ordered raw-link multiset.

    Each non-comment line holds ``src_label src_time dst_label dst_time``.
    Duplicates are preserved, and equal endpoints are one object, so each
    distinct (label, time) is held once however many lines name it.  A
    destination time may not exceed its source time unless ``permissive``.
    """
    vertex: dict[tuple[str, int], tuple[str, int]] = {}
    intern = vertex.setdefault
    with _opened(source) as lines:
        return [(intern(src, src), intern(dst, dst)) for src, dst in _link_stream(lines, permissive, 1)]


@contextmanager
def _opened(target: IO[str] | Iterable[str] | str | Path, mode: str = "r") -> Iterator:
    """Yield ``target`` itself, or the UTF-8 text file it names opened in ``mode``.

    The package opens every file here.  Files open with ``newline=""``: the
    csv module needs it, and every writer in the package ends its lines with
    a bare line feed.  A file to write gets its missing parent directories.
    A file that is not UTF-8 raises a ValueError naming the line of its first bad byte.
    """
    if isinstance(target, (str, Path)):
        if mode != "r":
            Path(target).parent.mkdir(parents=True, exist_ok=True)
        with open(target, mode, encoding="utf-8", newline="") as handle:
            try:
                yield handle
            except UnicodeDecodeError:
                data = Path(target).read_bytes()
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    before = data[: exc.start].decode("utf-8")
                    line = len(io.StringIO(before + "x", newline="").readlines())
                    raise ValueError(f"line {line}: not UTF-8 text") from None
                raise
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
        except UnicodeDecodeError:
            raise  # `_opened` names its line
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"line {max(reader.line_num, 1)}: {exc}") from None


def _check_labels(labels: Iterable[str]) -> None:
    """Raise LinkValidationError for a label that a whitespace-separated line
    could not read back: empty, containing whitespace, or starting with ``#``.
    """
    bad = sorted(label for label in labels if label.split() != [label] or label.startswith("#"))
    if bad:
        raise LinkValidationError(
            f"label {bad[0]!r} would not read back: labels must be non-empty, "
            "without whitespace, and not start with '#'"
        )


def write_links(links: Iterable[RawLink], out: IO[str] | str | Path) -> None:
    """Write raw links in the four-field link file format, one per line.

    Raises LinkValidationError, before writing anything, for a label that
    `parse_link_file` could not read back (see `_check_labels`).
    """
    links = list(links)
    _check_labels({src for (src, _), _ in links} | {dst for _, (dst, _) in links})
    text = "".join([f"{src} {ts} {dst} {td}\n" for (src, ts), (dst, td) in links])
    with _opened(out, "w") as handle:
        handle.write(text)


def _groups(keys: Sequence[int], n: int) -> tuple[array, list[int]]:
    """A stable counting sort of ``keys``, ids ``0..n-1``: their positions grouped
    by key, and the end of each key's group in that order.
    """
    count = Counter(keys)
    ends = list(accumulate(map(count.__getitem__, range(n)), initial=0))  # each group's next slot
    order = array("i", bytes(4 * len(keys)))
    for at, key in enumerate(keys):
        slot = ends[key]
        order[slot] = at
        ends[key] = slot + 1
    ends.pop()  # the total, which the last group's end repeats
    return order, ends


def _distinct_pairs(src: array, dst: array, weights: array, n: int) -> tuple[array, array, array]:
    """Each distinct ``(src[l], dst[l])`` pair once, in the order the pairs first
    appear, with the sum of its lines' ``weights``.

    Ids run over ``0..n-1`` and weights are positive.  `_groups` groups the
    lines by source.  Within one source's lines, a target already marked
    with that source is a repeated pair, whose weight moves onto the pair's
    first line, in place in ``weights``.  One pass in line order then keeps
    each line that still holds a weight.
    """
    order, ends = _groups(src, n)
    last = [-1] * n  # the last source whose lines reached each target
    first = [0] * n  # that source's first line to each target
    start = 0
    for i, end in enumerate(ends):
        for line in order[start:end]:
            j = dst[line]
            if last[j] == i:
                weights[first[j]] += weights[line]
                weights[line] = 0
            else:
                last[j] = i
                first[j] = line
        start = end
    del order, last, first
    return (
        array("i", compress(src, weights)),
        array("i", compress(dst, weights)),
        array(weights.typecode, filter(None, weights)),
    )


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
    index: dict[tuple[str, int], int] = {}  # each vertex's node id
    find = index.get
    sources, targets = array("i"), array("i")
    add_source, add_target = sources.append, targets.append
    for src, dst in raw_links:
        # `get` and a branch number a new end; `setdefault` would take
        # len(index) for every end, hit or miss.
        i = find(src)
        if i is None:
            i = index[src] = len(index)
        add_source(i)
        j = find(dst)
        if j is None:
            j = index[dst] = len(index)
        add_target(j)
    for label, t in isolated_nodes:
        index.setdefault((label, t), len(index))
    nodes = tuple(map(TemporalNode._make, index))
    del index, find
    ones = array("q", [1]) * len(sources)
    return TemporalGraph(nodes, *_distinct_pairs(sources, targets, ones, len(nodes)))


def coarsen_time(tg: TemporalGraph, k: int) -> TemporalGraph:
    """Bin timesteps by floor(t / k), merging temporal nodes that collide.

    Link multiplicities add; links whose endpoints collapse onto the same
    (node, bin) become self-loops.  Nodes and links keep first-appearance
    order, the order a rebuild from the binned raw links would give.
    ``k = 1`` is the identity.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"coarsening factor k must be an integer >= 1, got {k!r}")
    if k == 1:
        return tg
    binned: dict[tuple[str, int], int] = {}
    intern = binned.setdefault
    relabel = [intern((tn.node, tn.t // k), len(binned)) for tn in tg.nodes]
    nodes = tuple(map(TemporalNode._make, binned))
    del binned, intern
    sources = array("i", map(relabel.__getitem__, tg.sources))
    targets = array("i", map(relabel.__getitem__, tg.targets))
    del relabel
    return TemporalGraph(nodes, *_distinct_pairs(sources, targets, tg.weights[:], len(nodes)))
