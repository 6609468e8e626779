"""networkx as an independent oracle for the connectivity and
bipartiteness tests (test-only dependency; skipped when absent)."""

import pytest
from hypothesis import given

from pdskit import induced_connected, is_bipartite, is_connected

from .strategies import graphs, graphs_with_subset

nx = pytest.importorskip("networkx")


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@given(graphs())
def test_is_connected(g):
    assert is_connected(g) == nx.is_connected(_nx(g))


@given(graphs())
def test_is_bipartite(g):
    assert is_bipartite(g) == nx.is_bipartite(_nx(g))


@given(graphs_with_subset(connected=False))
def test_induced_connected(gs):
    g, s = gs
    assert induced_connected(g, s) == nx.is_connected(_nx(g).subgraph(s.members()))
