"""Hypothesis strategies for graphs and related objects."""

from __future__ import annotations

import random

from hypothesis import assume
from hypothesis import strategies as st

from pdskit import CubicCycleGraph, Graph, InvalidGraph, VertexSet, random_cubic_cycle


@st.composite
def graphs(draw, min_n: int = 2, max_n: int = 9, connected: bool = False):
    """A small graph; with connected=True a random spanning tree is mixed in."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = set(picks)
    if connected:
        for v in range(1, n):
            parent = draw(st.integers(min_value=0, max_value=v - 1))
            edges.add((parent, v))
    return Graph(n, sorted(edges))


@st.composite
def dense_graphs(draw, min_n: int = 2, max_n: int = 9):
    """A connected graph with at least n(n-1)/4 edges, half the pairs or more."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=-(-len(pairs) // 2)))
    for v in range(1, n):
        edges.add((draw(st.integers(min_value=0, max_value=v - 1)), v))
    return Graph(n, sorted(edges))


@st.composite
def graphs_with_subset(draw, min_n: int = 3, max_n: int = 9, connected: bool = True):
    g = draw(graphs(min_n=min_n, max_n=max_n, connected=connected))
    size = draw(st.integers(min_value=2, max_value=g.n - 1))
    ids = draw(st.permutations(range(g.n)))[:size]
    return g, VertexSet.from_ids(g.n, ids)


def jump(n: int, d: int) -> CubicCycleGraph:
    """Every even vertex's chord jumps d ahead.  For odd d <= k the tags
    alternate, so there is no full arc exactly when k = (n+1)//3 is odd."""
    return CubicCycleGraph(n, [(v + d if v % 2 == 0 else v - d) % n for v in range(n)])


def paired(n: int, a: int, b: int) -> CubicCycleGraph:
    """Vertices 4i and 4i+1 jump a = 3 and b = 1 (mod 4) ahead, so the tags
    run AHEAD, AHEAD, BACK, BACK for a, b <= k.  With n = 0 (mod 4) and
    k = 3 (mod 4) the vertex k+1 behind each non-BACK one is AHEAD: no full
    arc."""
    chord = [0] * n
    for v in range(0, n, 4):
        for u, d in ((v, a), (v + 1, b)):
            chord[u], chord[(u + d) % n] = (u + d) % n, u
    return CubicCycleGraph(n, chord)


def rotated(g: CubicCycleGraph, t: int) -> CubicCycleGraph:
    """g with every label moved t steps along the cycle."""
    n = g.n
    return CubicCycleGraph(n, [(g.chord[(v - t) % n] + t) % n for v in range(n)])


def arc_union_case(n: int, arcs, seed: int, pairing: str):
    """A cycle-plus-chords instance on n vertices and the set S that is the
    union of the arcs, given as (start, length) pairs; an arc may wrap
    from n-1 to 0.

    pairing "random" draws a uniform random chord matching.  "set" pairs
    S's members among themselves at random, and "runs" pairs them within
    each run of S along the cycle; a leftover member pairs with the next
    run, or with a non-member.  So S is often a PDS whose runs meet only
    through chords, and under "runs" one that is disconnected."""
    full = (1 << n) - 1
    mask = 0
    for start, length in arcs:
        run = ((1 << length) - 1) << start
        mask |= (run | run >> n) & full
    s = VertexSet(n, mask)
    others = [v for v in range(n) if v not in s]
    if pairing != "random" and others:
        rng = random.Random(seed)
        # in cycle order from a non-member, so that no run is cut in two
        members = sorted(s.members(), key=lambda v: (v - others[0]) % n)
        groups = [members]
        if pairing == "runs":
            groups = []
            for v in members:
                if (v - 1) % n not in s:
                    groups.append([])
                groups[-1].append(v)
        for _ in range(20):  # a shuffle may pair two cycle neighbours
            for part in groups + [others]:
                rng.shuffle(part)
            order = [v for part in groups + [others] for v in part]
            chord = [0] * n
            for u, v in zip(order[::2], order[1::2]):
                chord[u], chord[v] = v, u
            try:
                return CubicCycleGraph(n, chord), s
            except InvalidGraph:
                pass
    return random_cubic_cycle(n, seed=seed), s


@st.composite
def cubic_arc_unions(draw, max_n: int = 300):
    """arc_union_case with 6 <= n <= max_n, one to five arcs of up to n/3
    vertices each, the first one half the time across n-1 and 0, and
    2 <= |S| < n."""
    n = 2 * draw(st.integers(min_value=3, max_value=max_n // 2))
    arc = st.tuples(st.integers(0, n - 1), st.integers(1, n // 3))
    arcs = draw(st.lists(arc, min_size=1, max_size=5))
    if draw(st.booleans()):
        arcs[0] = (n - arcs[0][1] // 2 - 1, arcs[0][1])
    pairing = draw(st.sampled_from(("random", "set", "runs")))
    g, s = arc_union_case(n, arcs, draw(st.integers(0, 2**32)), pairing)
    assume(2 <= len(s) < n)
    return g, s
