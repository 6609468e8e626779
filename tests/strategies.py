"""Hypothesis strategies for graphs and related objects."""

from __future__ import annotations

from hypothesis import strategies as st

from pdskit import Graph, VertexSet


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
