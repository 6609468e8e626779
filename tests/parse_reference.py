"""The original line-at-a-time text parsers and chord-table check.

Kept only as test oracles: ``pdskit.parse_graph``, ``pdskit.parse_cubic``
and ``CubicCycleGraph`` must accept exactly the inputs these accept, with
equal results, and reject the rest with the same exception type.
"""

from __future__ import annotations

from typing import Iterator

from pdskit import CubicCycleGraph, Graph, InvalidInstance, ParseError


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for every line that is neither blank
    nor a '#' comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if body and not body.startswith("#"):
            yield lineno, body


def parse_graph_lines(text: str) -> Graph:
    rows: list[list[str]] = []
    for lineno, body in _data_lines(text):
        rows.append(body.split())
        if len(rows[-1]) != 2:
            raise ParseError(f"line {lineno}: expected two tokens, got {body!r}")
    if not rows:
        raise ParseError("empty input")
    try:
        header = [int(t) for t in rows[0]]
    except ValueError as exc:
        raise ParseError(f"bad header {rows[0]!r}") from exc
    n, m = header
    if len(rows) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        try:
            u, v = int(row[0]), int(row[1])
        except ValueError as exc:
            raise ParseError(f"bad edge line {row!r}") from exc
        edges.append((u, v))
    return Graph(n, edges)


def check_chords_loop(n: int, chord: tuple[int, ...]) -> None:
    """The per-vertex checks of a cycle-plus-chords table."""
    if n < 4 or n % 2:
        raise InvalidInstance(f"need even n >= 4, got {n}")
    if len(chord) != n:
        raise InvalidInstance("chord table must list every vertex")
    for v, c in enumerate(chord):
        if not 0 <= c < n:
            raise InvalidInstance(f"chord target {c} out of range")
        if (c - v) % n in (0, 1, n - 1):
            raise InvalidInstance(f"chord ({v}, {c}) repeats a cycle edge")
        if chord[c] != v:
            raise InvalidInstance(f"chords are not a matching at {v}")


def parse_cubic_lines(text: str) -> CubicCycleGraph:
    rows = [body.split() for _, body in _data_lines(text)]
    if not rows or len(rows[0]) != 1:
        raise ParseError("expected a single-token header line with n")
    try:
        n = int(rows[0][0])
        pairs = [(int(a), int(b)) for a, b in rows[1:]]
    except ValueError as exc:
        raise ParseError(f"bad token: {exc}") from exc
    if len(pairs) != n // 2:
        raise ParseError(f"expected {n // 2} chord lines, found {len(pairs)}")
    chord = [-1] * n if n > 0 else []
    for u, v in pairs:
        if u == v or not (0 <= u < n and 0 <= v < n) or chord[u] != -1 or chord[v] != -1:
            raise ParseError(f"bad chord pair ({u}, {v})")
        chord[u] = v
        chord[v] = u
    try:
        check_chords_loop(n, tuple(chord))
    except InvalidInstance as exc:
        raise ParseError(str(exc)) from exc
    # an InvalidInstance from here on means the two checks disagree
    return CubicCycleGraph(n, tuple(chord))
