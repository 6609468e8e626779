"""networkx as an independent oracle for the connectivity, bipartiteness
and enumeration tests (test-only dependency; skipped when absent)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdskit import all_connected_graphs, induced_connected, is_bipartite, is_connected
from pdskit.graph import _reach

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


@given(graphs(), graphs_with_subset(connected=False), st.data())
def test_reach_marks_one_component(g, gs, data):
    # whole graphs and induced subsets, connected or not
    h, s = gs
    for graph, members in ((g, range(g.n)), (h, s.members())):
        start = data.draw(st.sampled_from(members))
        component = nx.node_connected_component(_nx(graph).subgraph(members), start)
        seen = bytearray(v not in members for v in range(graph.n))
        assert _reach(graph.adj, seen, start) == len(component)
        assert {v for v in members if seen[v]} == component


# the hash only buckets graphs within one run, so its change across
# networkx versions does not matter here
@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
@pytest.mark.parametrize("n", range(2, 8))
def test_enumeration_is_connected_and_isomorph_free(n):
    # with the pinned counts in test_generators this shows every class is
    # present, without relying on the package's own canonical form
    buckets = {}
    for g in all_connected_graphs(n):
        h = _nx(g)
        assert nx.is_connected(h)
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(h)
    for bucket in buckets.values():
        for i, h in enumerate(bucket):
            for other in bucket[:i]:
                assert not nx.is_isomorphic(h, other)
