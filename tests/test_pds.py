import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdskit import (
    Graph,
    InvalidArgument,
    VerificationFailed,
    VertexSet,
    all_connected_graphs,
    check_pds,
    is_inclusionwise_maximal,
    pds_size_upper_bound,
    random_connected,
)

from pdskit.graph import adjacency_masks
from pdskit.pds import recheck

from .strategies import graphs, graphs_with_subset

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


class TestCheckPds:
    def test_k4_pair_is_pds(self):
        # 2 >= n/2 fails the naive intuition: {0,1} satisfies 1/1 >= 3/3
        assert check_pds(K4, VertexSet.from_ids(4, [0, 1])).holds

    def test_k4_triple_is_pds(self):
        assert check_pds(K4, VertexSet.from_ids(4, [0, 1, 2])).holds

    def test_path_endpoints_fail(self):
        verdict = check_pds(P4, VertexSet.from_ids(4, [0, 3]))
        assert not verdict.holds
        assert verdict.unsatisfied == ((0, 0, 1), (3, 0, 1))

    def test_path_adjacent_pair(self):
        # {1,2}: each has 1 inside / 1 outside; 1/1 >= 1/2 holds
        assert check_pds(P4, VertexSet.from_ids(4, [1, 2])).holds

    def test_c5_consecutive_triple(self):
        assert check_pds(C5, VertexSet.from_ids(5, [0, 1, 2])).holds

    def test_size_limits(self):
        with pytest.raises(InvalidArgument, match=r"need 2 <= \|S\| < n, got \|S\|=1"):
            check_pds(K4, VertexSet.from_ids(4, [0]))
        with pytest.raises(InvalidArgument, match=r"need 2 <= \|S\| < n, got \|S\|=4"):
            check_pds(K4, VertexSet(4, 0b1111))
        with pytest.raises(InvalidArgument, match="set lives on 5 vertices, graph has 4"):
            check_pds(K4, VertexSet.from_ids(5, [0, 1]))

    @given(graphs_with_subset(connected=False))
    def test_matches_fraction_definition(self, gs):
        g, s = gs
        flags = s.flags()
        verdict = check_pds(g, s)
        bad = []
        for u in s.members():
            d_in = sum(1 for w in g.adj[u] if flags[w])
            inside = Fraction(d_in, len(s) - 1) if len(s) > 1 else Fraction(0)
            total = Fraction(g.deg[u], g.n - 1)
            if inside < total:
                bad.append((u, d_in, g.deg[u] - d_in))
        assert verdict.holds == (not bad)
        assert list(verdict.unsatisfied) == bad

    def test_size_is_counted_from_the_mask(self):
        # {0,1,2} on P4 fails at vertex 2: 1 neighbour inside, 1 outside.
        # A size passed in by the caller once let a wrong |S| pass it.
        with pytest.raises(TypeError):
            VertexSet(4, 0b0111, 2)
        s = VertexSet(4, 0b0111)
        assert len(s) == 3
        g = Graph(4, P4.edges)
        assert check_pds(g, s) == (False, ((2, 1, 1),))
        adjacency_masks(g)  # and again on the held masks
        assert check_pds(g, s) == (False, ((2, 1, 1),))


class TestCheckPdsSources:
    """The held-mask path against the g.adj path, on equal graphs."""

    @given(st.data())
    def test_held_masks_agree_with_adj(self, data):
        g = data.draw(graphs(min_n=3, max_n=12))
        fresh = Graph(g.n, g.edges)
        adjacency_masks(g)
        masks = st.integers(0, (1 << g.n) - 1).filter(lambda m: 2 <= m.bit_count() < g.n)
        for mask in data.draw(st.lists(masks, min_size=1, max_size=8)):
            s = VertexSet(g.n, mask)
            assert check_pds(g, s) == check_pds(fresh, s)
        assert fresh._masks is None  # a check never builds the masks

    def test_table_and_flags_paths_agree_on_every_mask(self):
        # held masks and n <= 12 read the member table; a fresh Graph, or
        # held masks past the table, read g.adj and the flags
        rng = random.Random(12)
        for n in (*range(3, 13), 13):
            top = n * (n - 1) // 2
            for m in sorted({n - 1, min(2 * n, top), top}):
                g = random_connected(n, m, seed=rng.randrange(2**32))
                fresh = Graph(n, g.edges)
                adjacency_masks(g)
                for mask in range(1 << n):
                    if 2 <= mask.bit_count() < n:
                        s = VertexSet(n, mask)
                        verdict = check_pds(g, s)
                        assert verdict == check_pds(fresh, s)
                        assert [u for u, _, _ in verdict.unsatisfied] == sorted(
                            u for u, _, _ in verdict.unsatisfied
                        )
                assert fresh._masks is None

    def test_masks_match_adj_rows(self):
        graphs_seen = 0
        for n in range(3, 8):
            for g in all_connected_graphs(n):
                rows = adjacency_masks(g)
                assert [[w for w in range(n) if row >> w & 1] for row in rows] == list(
                    map(list, g.adj)
                )
                graphs_seen += 1
        assert graphs_seen == 994


class TestRecheck:
    def test_returns_connectivity(self):
        assert recheck(C5, VertexSet.from_ids(5, [0, 1, 2]), "path") is True
        assert recheck(K4, VertexSet.from_ids(4, [0, 1, 2]), "triangle", True) is True

    def test_rejects_non_pds(self):
        with pytest.raises(VerificationFailed, match="^star failed the re-check$"):
            recheck(P4, VertexSet.from_ids(4, [0, 2]), "star")

    def test_connected_on_request(self):
        # two disjoint triangles beside an isolated vertex: both triangles
        # together are a PDS, but not a connected one
        g = Graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        s = VertexSet.from_ids(7, range(6))
        assert recheck(g, s, "pair") is False
        with pytest.raises(VerificationFailed, match="^pair is not connected$"):
            recheck(g, s, "pair", connected=True)


class TestUpperBound:
    def test_values(self):
        assert pds_size_upper_bound(K4) == 3  # (4*2+1)//3
        assert pds_size_upper_bound(P4) == 2  # (4*1+1)//2
        assert pds_size_upper_bound(C5) == 3  # (5*1+1)//2

    def test_cubic_formula(self):
        # degree-3 graphs: bound collapses to floor((2n+1)/3)
        for n in (4, 6, 8, 10):
            cycle = [(v, (v + 1) % n) for v in range(n)]
            chords = [(v, v + n // 2) for v in range(n // 2)]
            g = Graph(n, cycle + chords)
            assert pds_size_upper_bound(g) == (2 * n + 1) // 3

    def test_edgeless_graph(self):
        # the bound divides by the maximum degree, which is 0 here
        for n in (2, 3, 7):
            with pytest.raises(InvalidArgument, match="no edges"):
                pds_size_upper_bound(Graph(n, []))


class TestMaximality:
    def test_k4_triple_maximal(self):
        assert is_inclusionwise_maximal(K4, VertexSet.from_ids(4, [0, 1, 2]))

    def test_k4_pair_not_maximal(self):
        assert not is_inclusionwise_maximal(K4, VertexSet.from_ids(4, [0, 1]))

    def test_rejects_non_pds(self):
        with pytest.raises(InvalidArgument, match="only defined for sets that are a PDS"):
            is_inclusionwise_maximal(P4, VertexSet.from_ids(4, [0, 3]))
