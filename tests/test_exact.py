import gc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdskit import (
    Graph,
    InstanceTooLarge,
    InvalidArgument,
    NoPds,
    VertexSet,
    all_connected_graphs,
    check_pds,
    decide_pds_at_least_k,
    is_inclusionwise_maximal,
    is_star,
    max_independent_set_exact,
    max_pds_exact,
    pds_extension,
    split_reduction,
)
from pdskit.exact import DEFAULT_CAP, HARD_CAP, _colex_rank, _descend, resolve_cap
from pdskit.generators import random_connected

from .descend_reference import descend_scan, extension_scan, ksubset_masks
from .strategies import dense_graphs, graphs

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def brute_max_pds(g, connected_only=False):
    """Independent oracle: enumerate every subset against the fraction
    definition, no bit tricks shared with the implementation."""
    from pdskit.graph import induced_connected

    best = None
    for size in range(2, g.n):
        for ids in combinations(range(g.n), size):
            inside = set(ids)
            ok = all(
                Fraction(sum(1 for w in g.adj[u] if w in inside), size - 1)
                >= Fraction(g.deg[u], g.n - 1)
                for u in ids
            )
            if ok and connected_only:
                ok = induced_connected(g, VertexSet.from_ids(g.n, ids))
            if ok and (best is None or size > best):
                best = size
    return best


def brute_alpha(g):
    for size in range(g.n, 0, -1):
        for ids in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(ids, 2)):
                return size
    return 0


class TestKsubsetMasks:
    def test_counts_and_order(self):
        masks = list(ksubset_masks(5, 3))
        assert len(masks) == 10
        assert masks == sorted(masks)
        assert all(m.bit_count() == 3 for m in masks)
        assert masks[0] == 0b00111 and masks[-1] == 0b11100

    def test_edge_sizes(self):
        assert list(ksubset_masks(4, 0)) == [0]
        assert list(ksubset_masks(4, 4)) == [0b1111]


class TestMaxPdsExact:
    def test_k4(self):
        res = max_pds_exact(K4)
        assert res.size == 3
        assert res.witness == VertexSet.from_ids(4, [0, 1, 2])  # lexicographic first

    def test_c5_all_optima(self):
        res = max_pds_exact(C5, all_optima=True)
        assert res.size == 3
        expected = {frozenset({v, (v + 1) % 5, (v + 2) % 5}) for v in range(5)}
        assert {frozenset(s.members()) for s in res.optima} == expected
        assert res.witness == res.optima[0]

    def test_k2_has_no_pds(self):
        with pytest.raises(NoPds):
            max_pds_exact(Graph(2, [(0, 1)]))

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidArgument, match="is disconnected"):
            max_pds_exact(Graph(4, [(0, 1), (2, 3)]))

    def test_connected_only_can_be_strictly_smaller(self):
        from pdskit import fixture, induced_connected

        g = fixture("cubic10").graph
        res = max_pds_exact(g)
        conn = max_pds_exact(g, connected_only=True)
        assert (res.size, conn.size) == (7, 5)
        assert not induced_connected(g, res.witness)
        assert induced_connected(g, conn.witness)

    def test_matches_brute_force_n_le_6(self):
        for n in range(3, 7):
            for g in all_connected_graphs(n):
                expected = brute_max_pds(g)
                if expected is None:
                    with pytest.raises(NoPds):
                        max_pds_exact(g)
                    continue
                res = max_pds_exact(g)
                assert res.size == expected
                assert check_pds(g, res.witness).holds
                conn = max_pds_exact(g, connected_only=True)
                assert conn.size == brute_max_pds(g, connected_only=True)

    @given(graphs(min_n=3, max_n=8, connected=True))
    @settings(max_examples=60)
    def test_witness_verifies(self, g):
        try:
            res = max_pds_exact(g)
        except NoPds:
            return
        assert check_pds(g, res.witness).holds
        assert len(res.witness) == res.size


def _modes(n):
    for stop in sorted({2, n // 2}):
        for connected_only in (False, True):
            for all_optima in (False, True):
                yield stop, connected_only, all_optima


class TestMatchesDescendReference:
    """The search over dropped sets must return the hits and the count of
    subsets decided that testing every mask in turn returns."""

    def test_every_connected_graph_n_le_7(self):
        for n in range(2, 8):
            for g in all_connected_graphs(n):
                for mode in _modes(n):
                    assert _descend(g, *mode) == descend_scan(g, *mode), (g.edges, mode)

    @given(graphs(min_n=2, max_n=14, connected=True))
    @settings(max_examples=150, deadline=None)
    def test_random_graphs_n_le_14(self, g):
        for mode in _modes(g.n):
            assert _descend(g, *mode) == descend_scan(g, *mode), mode

    def test_seeded_random_graphs(self):
        for seed in range(120):
            n = 8 + seed % 9
            g = random_connected(n, n - 1 + seed % (2 * n), seed=seed)
            for mode in _modes(n):
                assert _descend(g, *mode) == descend_scan(g, *mode), (seed, mode)

    def test_split_targets_n_le_6(self):
        for n in range(3, 7):
            for g in all_connected_graphs(n):
                if is_star(g):
                    continue
                target = split_reduction(g).target
                for mode in _modes(target.n):
                    assert _descend(target, *mode) == descend_scan(target, *mode), (g.edges, mode)

    @given(dense_graphs(min_n=2, max_n=14))
    @settings(max_examples=60, deadline=None)
    def test_dense_graphs_n_le_14(self, g):
        assert 4 * g.m >= g.n * (g.n - 1)
        for mode in _modes(g.n):
            assert _descend(g, *mode) == descend_scan(g, *mode), mode

    def test_seeded_dense_graphs_n_15_16(self):
        for seed in range(24):
            n = 15 + seed % 2
            pairs = n * (n - 1) // 2
            g = random_connected(n, -(-pairs // 2) + seed * pairs // 48, seed=seed)
            assert 2 * g.m >= pairs
            for mode in _modes(n):
                assert _descend(g, *mode) == descend_scan(g, *mode), (seed, mode)

    def test_search_leaves_no_cyclic_garbage(self):
        g = random_connected(16, 24, seed=3)
        gc.disable()
        try:
            gc.collect()
            max_pds_exact(g, connected_only=True, all_optima=True)
            assert gc.collect() == 0
            max_independent_set_exact(g)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "n, m, seed, size, checked",
        [(24, 36, 167, 18, 189750), (24, 23, 163, 19, 53130), (22, 33, 161, 15, 271491)],
    )
    def test_pinned_benchmark_graphs(self, n, m, seed, size, checked):
        g = random_connected(n, m, seed=seed)
        hits, count = _descend(g, 2, connected_only=True, all_optima=True)
        assert (hits[0].bit_count(), count) == (size, checked)
        assert (hits, count) == descend_scan(g, 2, connected_only=True, all_optima=True)

    def test_colex_rank_is_the_position_in_ascending_order(self):
        for n in range(9):
            for k in range(n + 1):
                ranks = [_colex_rank(m) for m in ksubset_masks(n, k)]
                assert ranks == list(range(len(ranks)))


class TestCaps:
    def test_default_cap_blocks_large_graphs(self):
        g = Graph(25, [(v, (v + 1) % 25) for v in range(25)])
        with pytest.raises(InstanceTooLarge):
            max_pds_exact(g)

    def test_explicit_cap(self):
        # C7: four consecutive vertices are a PDS (endpoints sit exactly at
        # 1/3 >= 2/6), and the degree bound floor((7*1+1)/2) = 4 is met.
        g = Graph(7, [(v, (v + 1) % 7) for v in range(7)])
        with pytest.raises(InstanceTooLarge):
            max_pds_exact(g, cap=6)
        assert max_pds_exact(g, cap=7).size == 4

    def test_cap_validation(self):
        assert resolve_cap(None) == DEFAULT_CAP
        assert resolve_cap(63) == HARD_CAP
        with pytest.raises(InstanceTooLarge):
            resolve_cap(64)
        with pytest.raises(InstanceTooLarge):
            resolve_cap(1)

    def test_every_entry_point_names_n_and_the_cap(self):
        g = Graph(7, [(v, (v + 1) % 7) for v in range(7)])
        for call in (
            lambda: max_pds_exact(g, cap=6),
            lambda: pds_extension(g, VertexSet.from_ids(7, [0]), cap=6),
            lambda: max_independent_set_exact(g, cap=6),
            lambda: decide_pds_at_least_k(g, 5, cap=6),
            lambda: is_inclusionwise_maximal(g, VertexSet.from_ids(7, [0, 1, 2, 3]), cap=6),
        ):
            with pytest.raises(InstanceTooLarge, match="^n=7 exceeds the enumeration cap 6$"):
                call()

    def test_max_pds_checks_the_cap_then_connectivity_then_n(self):
        two_paths = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        with pytest.raises(InstanceTooLarge, match="enumeration cap must be in"):
            max_pds_exact(two_paths, cap=1)
        with pytest.raises(InvalidArgument, match="is disconnected"):
            max_pds_exact(two_paths, cap=6)


class TestExtension:
    def test_extends_singleton(self):
        ext = pds_extension(P4, VertexSet.from_ids(4, [0]))
        assert ext is not None
        assert 0 in ext and check_pds(P4, ext).holds

    def test_maximal_pair_has_none(self):
        # {0,1} is a PDS of P4 but no proper superset is
        assert check_pds(P4, VertexSet.from_ids(4, [0, 1])).holds
        assert pds_extension(P4, VertexSet.from_ids(4, [0, 1])) is None

    def test_smallest_superset_first(self):
        ext = pds_extension(K4, VertexSet.from_ids(4, [0, 1]))
        assert ext is not None and len(ext) == 3

    def test_full_base_rejected(self):
        with pytest.raises(InvalidArgument, match="strict subset"):
            pds_extension(K4, VertexSet(4, 0b1111))

    def test_matches_scan_on_every_base_n_le_6(self):
        for n in range(2, 7):
            for g in all_connected_graphs(n):
                for mask in range((1 << n) - 1):
                    base = VertexSet(n, mask)
                    assert pds_extension(g, base) == extension_scan(g, base), (g.edges, mask)

    @given(graphs(min_n=2, max_n=12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_scan_on_random_graphs(self, g, data):
        base = VertexSet(g.n, data.draw(st.integers(0, (1 << g.n) - 2)))
        assert pds_extension(g, base) == extension_scan(g, base)

    @given(dense_graphs(max_n=12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_scan_on_dense_graphs(self, g, data):
        base = VertexSet(g.n, data.draw(st.integers(0, (1 << g.n) - 2)))
        assert pds_extension(g, base) == extension_scan(g, base)


class TestMaxIndependentSet:
    def test_known_values(self):
        assert max_independent_set_exact(K4)[0] == 1
        assert max_independent_set_exact(P4)[0] == 2
        assert max_independent_set_exact(C5)[0] == 2

    def test_witness_is_independent(self):
        size, s = max_independent_set_exact(C5)
        assert len(s) == size
        members = s.members()
        assert all(not C5.has_edge(u, v) for u, v in combinations(members, 2))

    def test_matches_brute_force_n_le_6(self):
        for n in range(2, 7):
            for g in all_connected_graphs(n):
                assert max_independent_set_exact(g)[0] == brute_alpha(g)

    def test_star_alpha(self):
        star = Graph(6, [(0, v) for v in range(1, 6)])
        size, s = max_independent_set_exact(star)
        assert size == 5 and 0 not in s
