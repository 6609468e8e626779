"""The original per-vertex chord tagging and member-list arc set, and
an instance's general Graph.

Kept only as test oracles: ``pdskit.cubic.classify_chords`` (one table
lookup per vertex, in C-level passes) and ``Arc.vertex_set`` (a rotated
bit run) must return exactly what these return, and the rows of
``CubicCycleGraph.adj`` must list ``to_graph(g)``'s neighbours.
"""

from __future__ import annotations

from pdskit import CubicCycleGraph, Graph, VertexSet
from pdskit.cubic import AHEAD, BACK, Arc


def classify_chords_loop(g: CubicCycleGraph) -> tuple[str | None, ...]:
    n = g.n
    k = g.window
    tags: list[str | None] = []
    for v, c in enumerate(g.chord):
        delta = (c - v) % n
        if 2 <= delta <= k:
            tags.append(AHEAD)
        elif n - k <= delta <= n - 2:
            tags.append(BACK)
        else:
            tags.append(None)
    return tuple(tags)


def arc_members(arc: Arc) -> list[int]:
    return [(arc.start + i) % arc.n for i in range(arc.size)]


def arc_vertex_set_ids(arc: Arc) -> VertexSet:
    return VertexSet.from_ids(arc.n, arc_members(arc))


def to_graph(g: CubicCycleGraph) -> Graph:
    """g as a general Graph: the n cycle edges and the n/2 chords."""
    n = g.n
    edges = [(v, (v + 1) % n) for v in range(n)]
    edges += [(v, c) for v, c in enumerate(g.chord) if v < c]
    return Graph(n, edges)
