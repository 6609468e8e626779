"""The chord tags, the original per-vertex chord tagging, arc scan, pattern
test and member-list answers, and an instance's general Graph.

Kept only as test oracles.  ``AHEAD``, ``BACK`` and ``_TAGS`` name the
code bytes 1, 2 and 0 of ``CubicCycleGraph.codes``, and ``classify_chords``
reads those codes as tags.  The code string of ``pdskit.cubic._chord_codes``
(one table lookup per vertex, a block at a time), ``find_full_arc`` (an
AND of two translated flag strings), ``_pattern`` (bytes comparisons), the
answer masks of ``solve_hamiltonian_cubic`` and ``_arc`` (a rotated bit
run) must match what these return, and the bulk re-check
``cubic._recheck`` must agree with ``pds.recheck`` on ``to_graph(g)``.
"""

from __future__ import annotations

from operator import itemgetter

from pdskit import CubicCycleGraph, Graph, VerificationFailed, VertexSet
from pdskit.cubic import ALTERNATING, PAIRED

AHEAD = "ahead"
BACK = "back"
_TAGS = (None, AHEAD, BACK)  # by code byte


def classify_chords(g: CubicCycleGraph) -> tuple[str | None, ...]:
    return itemgetter(*g.codes)(_TAGS)


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


def full_arc_start_loop(g: CubicCycleGraph) -> int | None:
    """The first u that is not BACK while u-k-1 is not AHEAD, or None."""
    n = g.n
    k = g.window
    tags = classify_chords_loop(g)
    for u in range(n):
        if tags[u] is not BACK and tags[(u - k - 1) % n] is not AHEAD:
            return u
    return None


def pattern_loop(tags: tuple[str | None, ...], n: int) -> tuple[str, int]:
    """(pattern, rotation) of a no-full-arc tag vector, vertex by vertex."""
    if any(t is None for t in tags):
        raise VerificationFailed("untagged vertex despite no full arc")
    if all(tags[i] != tags[(i + 1) % n] for i in range(n)):
        return ALTERNATING, 0 if tags[0] == AHEAD else 1
    for r in range(n):
        if tags[r] == AHEAD and tags[(r + 1) % n] == AHEAD and tags[(r + 2) % n] == BACK:
            expected = (AHEAD, AHEAD, BACK, BACK)
            if n % 4 == 0 and all(tags[(r + i) % n] == expected[i % 4] for i in range(n)):
                return PAIRED, r
            break
    raise VerificationFailed("tags fit neither recognized pattern")


def no_arc_answer_ids(g: CubicCycleGraph) -> VertexSet:
    """The maximum PDS of an instance with no full arc and n >= 10, built
    as a member list: the solver's branches with the kept ids listed."""
    n = g.n
    k = g.window
    pattern, r = pattern_loop(classify_chords_loop(g), n)

    def cr(v: int) -> int:
        return (g.chord[(v + r) % n] - r) % n

    if n == 10:
        kept = [v for v in range(10) if v not in {0, 6, 9}]
    elif n == 14:
        out = 6 if cr(6) != 9 else 3 if cr(3) != 0 else 4
        kept = [v for v in range(10) if v != out]
    elif n == 16:
        out = 4 if all(cr(v) == (v + 3) % 16 for v in range(0, 16, 2)) else 3
        kept = [v for v in range(12) if v != out]
    elif pattern == ALTERNATING:
        if cr(3) != 0:
            out = 3
        elif cr(n - k - 3) != n - k:
            out = n - k - 3
        else:
            out = k - 2
        kept = [v for v in range(n - k + 1) if v != out]
    else:
        out = k - 2 if cr(k - 1) in range(1, n - k + 2) else k - 1
        kept = [v % n for v in range(1, n - k + 2) if v != out]
    return VertexSet.from_ids(n, ((v + r) % n for v in kept))


def arc_vertex_set_ids(n: int, start: int, size: int) -> VertexSet:
    return VertexSet.from_ids(n, ((start + i) % n for i in range(size)))


def to_graph(g: CubicCycleGraph) -> Graph:
    """g as a general Graph: the n cycle edges and the n/2 chords."""
    n = g.n
    edges = [(v, (v + 1) % n) for v in range(n)]
    edges += [(v, c) for v, c in enumerate(g.chord) if v < c]
    return Graph(n, edges)
