import hashlib
import json
import random
from itertools import combinations, permutations

import pytest

from pdskit import (
    Graph,
    InvalidArgument,
    InvalidGraph,
    UnknownName,
    all_connected_graphs,
    fixture,
    fixture_names,
    is_star,
    max_independent_set_exact,
    max_pds_exact,
    random_connected,
)
from pdskit import generators
from pdskit.exact import adjacency_masks
from pdskit.generators import (
    _augmentations,
    _canonical_key,
    _connected_masks,
    cycle_graph,
    path_graph,
    star_graph,
)
from pdskit.graph import is_connected, is_cubic

from .canonical_reference import _canonical_key as reference_key
from .canonical_reference import _new_vertex_may_be_removed

# connected simple graphs on n unlabeled vertices (OEIS A001349)
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


class TestFixtures:
    def test_names(self):
        assert fixture_names() == [
            "caterpillar15",
            "cubic10",
            "demo5",
            "exc8_alternating",
            "exc8_paired",
            "k4",
            "prism6",
        ]

    def test_unknown(self):
        with pytest.raises(UnknownName, match="no fixture named 'nope'"):
            fixture("nope")
        with pytest.raises(UnknownName, match="no fixture named 'star'"):
            fixture("star")  # parametric names need a number

    def test_expected_values_are_truthful(self):
        # re-derive every recorded optimum with the exhaustive solver
        for name in ("k4", "demo5", "prism6", "exc8_paired", "exc8_alternating"):
            rec = fixture(name)
            exp = rec.expected
            if "max_pds" in exp:
                assert max_pds_exact(rec.graph).size == exp["max_pds"]
            if "max_connected_pds" in exp:
                assert (
                    max_pds_exact(rec.graph, connected_only=True).size
                    == exp["max_connected_pds"]
                )
            if "alpha" in exp:
                assert max_independent_set_exact(rec.graph)[0] == exp["alpha"]

    def test_cubic_fixtures_are_cubic(self):
        for name in ("cubic10", "exc8_paired", "exc8_alternating", "prism6", "k4"):
            assert is_cubic(fixture(name).graph)

    def test_parametric(self):
        assert is_star(fixture("star6").graph)
        assert fixture("path4").graph.edges == ((0, 1), (1, 2), (2, 3))
        assert fixture("cycle5").graph.m == 5

    def test_all_fixtures_connected(self):
        for name in fixture_names():
            assert is_connected(fixture(name).graph)


class TestBuilders:
    def test_star(self):
        g = star_graph(5)
        assert is_star(g) and g.deg[0] == 4

    def test_path_and_cycle(self):
        assert path_graph(2).m == 1
        assert cycle_graph(3).m == 3

    def test_bad_parameters(self):
        with pytest.raises(InvalidArgument, match="a star needs"):
            star_graph(1)
        with pytest.raises(InvalidArgument, match="a path needs"):
            path_graph(1)
        with pytest.raises(InvalidArgument, match="a cycle needs"):
            cycle_graph(2)

    def test_stars_have_near_full_optimum(self):
        # every proper subset containing the center beats the density bar:
        # the optimum on a star is all n-1 leaves-plus-center minus one leaf
        for n in (3, 5, 8):
            assert max_pds_exact(star_graph(n)).size == n - 1


class TestRandomConnected:
    def test_shape_and_determinism(self):
        g = random_connected(30, 80, seed=4)
        assert g.n == 30 and g.m == 80 and is_connected(g)
        assert g == random_connected(30, 80, seed=4)

    def test_extremes(self):
        tree = random_connected(12, 11, seed=0)
        assert tree.m == 11 and is_connected(tree)
        full = random_connected(7, 21, seed=0)
        assert full.m == 21

    def test_dense_request(self):
        g = random_connected(20, 180, seed=1)
        assert g.m == 180 and is_connected(g)

    def test_bad_parameters(self):
        with pytest.raises(InvalidArgument, match="need n-1 <= m <= 10, got m=3"):
            random_connected(5, 3, seed=0)
        with pytest.raises(InvalidArgument, match="need n-1 <= m <= 10, got m=11"):
            random_connected(5, 11, seed=0)
        with pytest.raises(InvalidArgument, match="need n >= 2"):
            random_connected(1, 0, seed=0)

    def test_vertex_limit_checked_first(self, monkeypatch):
        monkeypatch.setattr(generators, "MAX_VERTICES", 1000)
        with pytest.raises(InvalidGraph, match="^n=1001 is above the limit of 1000 vertices$"):
            random_connected(1001, 10**9, seed=0)  # before the m check

    def test_edge_limit_checked_before_any_edge_is_drawn(self, monkeypatch):
        monkeypatch.setattr(generators, "MAX_EDGES", 100)
        assert random_connected(20, 100, seed=0).m == 100
        # the dense path would list the complement, the sparse one draw edges
        for n in (20, 100):
            with pytest.raises(InvalidGraph, match="^m=101 is above the limit of 100 edges$"):
                random_connected(n, 101, seed=0)
        with pytest.raises(InvalidGraph, match="^m=10000000000 is above"):
            random_connected(10, 10**10, seed=0)  # before the m range check


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in all_connected_graphs(n)) == count

    def test_all_connected_and_distinct(self):
        seen = set()
        for g in all_connected_graphs(6):
            assert g.n == 6 and is_connected(g)
            key = _canonical_key(6, adjacency_masks(g))
            assert key not in seen
            seen.add(key)

    def test_canonical_key_is_isomorphism_invariant(self):
        import random

        from pdskit import Graph

        rng = random.Random(7)
        for g in list(all_connected_graphs(5)):
            perm = list(range(5))
            rng.shuffle(perm)
            relabeled = Graph(5, [(perm[u], perm[v]) for u, v in g.edges])
            assert _canonical_key(5, adjacency_masks(relabeled)) == _canonical_key(
                5, adjacency_masks(g)
            )

    def test_representatives_are_pinned(self):
        # every representative and its order, for n = 3..7, from a cold cache
        cache: dict = {}
        _connected_masks(7, cache)
        text = json.dumps([cache[n] for n in range(3, 8)])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "dedc8f20cc22224ea885d99dc76bde61cbd366980d0a34d142af7b9c87ecb127"
        )

    def test_keys_only_on_collisions(self, monkeypatch):
        # a child whose invariant no earlier child shares gets no key, nor
        # does a copy of a smaller hood's child under a twin swap
        calls = []

        def counting(n, adj):
            calls.append(n)
            return _canonical_key(n, adj)

        monkeypatch.setattr(generators, "_canonical_key", counting)
        _connected_masks(7, {})
        assert len(calls) == 713

    def test_cap(self):
        from pdskit import InstanceTooLarge

        with pytest.raises(InstanceTooLarge):
            next(all_connected_graphs(10))
        with pytest.raises(InvalidArgument, match="starts at n=2"):
            next(all_connected_graphs(1))


def _children(parents: list[tuple[int, ...]], n: int):
    """Every child the enumerator tries: a parent plus a new vertex n-1."""
    for parent in parents:
        for hood in range(1, 1 << (n - 1)):
            yield tuple(
                row | (hood >> v & 1) << (n - 1) for v, row in enumerate(parent)
            ) + (hood,)


def _assert_same_classes(graphs, key_a, key_b):
    """key_a and key_b split the (n, adj) graphs into the same classes."""
    a_to_b: dict = {}
    b_to_a: dict = {}
    for n, adj in graphs:
        a, b = (n, key_a(n, adj)), (n, key_b(n, adj))
        assert a_to_b.setdefault(a, b) == b, (n, adj)
        assert b_to_a.setdefault(b, a) == a, (n, adj)
    return len(a_to_b)


def _relabel(n: int, adj: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    out = [0] * n
    for u in range(n):
        for w in range(n):
            if adj[u] >> w & 1:
                out[perm[u]] |= 1 << perm[w]
    return tuple(out)


class TestCanonicalKey:
    """The bitmask refinement against the old colour-refinement key and
    against brute force over vertex permutations."""

    def test_same_classes_as_reference_on_every_child(self):
        children = [
            (n, adj)
            for n in range(3, 8)
            for adj in _children(_connected_masks(n - 1), n)
        ]
        assert len(children) == 7814
        assert _assert_same_classes(children, _canonical_key, reference_key) == 994

    def test_same_classes_as_reference_on_random_graphs(self):
        rng = random.Random(2014)
        graphs = []
        for _ in range(150):
            p = rng.random()
            adj = [0] * 8
            for u, w in combinations(range(8), 2):
                if rng.random() < p:
                    adj[u] |= 1 << w
                    adj[w] |= 1 << u
            graphs.append((8, tuple(adj)))
        # regular graphs, where refinement alone splits nothing:
        # C8 and 2C4, the cube and 2K4, and their complements
        cycle = [(v, (v + 1) % 8) for v in range(8)]
        two_c4 = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
        cube = [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]
        two_k4 = [(u, w) for part in (range(4), range(4, 8)) for u, w in combinations(part, 2)]
        for edges in (cycle, two_c4, cube, two_k4):
            adj = tuple(adjacency_masks(Graph(8, edges)))
            graphs.append((8, adj))
            graphs.append((8, tuple(~row & 0xFF & ~(1 << v) for v, row in enumerate(adj))))
        relabelled = []
        for n, adj in graphs:
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                twin = _relabel(n, adj, perm)
                assert _canonical_key(n, twin) == _canonical_key(n, adj)
                relabelled.append((n, twin))
        _assert_same_classes(graphs + relabelled, _canonical_key, reference_key)

    def test_enumeration_matches_reference_dedup(self):
        # the same enumeration, deduplicated by the old key
        reps = [(0b10, 0b01)]
        for n in range(3, 8):
            seen: dict = {}
            for adj in _children(reps, n):
                if _new_vertex_may_be_removed(n, adj):
                    seen.setdefault(reference_key(n, adj), adj)
            reps = list(seen.values())
            assert _connected_masks(n) == reps

    def test_per_parent_tables_pass_the_oracles_children(self):
        # the same children pass as under the per-child test, each with
        # the sorted (degree, neighbour-degree sum) pairs of the child
        tried = 0
        for n in range(3, 8):
            for parent in _connected_masks(n - 1):
                passed = dict(_augmentations(parent))
                for hood, adj in enumerate(_children([parent], n), start=1):
                    tried += 1
                    assert (hood in passed) == _new_vertex_may_be_removed(n, adj), adj
                    if hood in passed:
                        deg = [row.bit_count() for row in adj]
                        pairs = [
                            deg[v] << 8 | sum(deg[u] for u in range(n) if adj[v] >> u & 1)
                            for v in range(n)
                        ]
                        assert passed[hood] == tuple(sorted(pairs))
        assert tried == 7814

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_brute_force_oracle(self, n):
        # equal keys exactly when some permutation maps one graph onto the other
        pairs = list(combinations(range(n), 2))

        def adj_of(mask):
            adj = [0] * n
            for i, (u, w) in enumerate(pairs):
                if mask >> i & 1:
                    adj[u] |= 1 << w
                    adj[w] |= 1 << u
            return tuple(adj)

        index = {pair: i for i, pair in enumerate(pairs)}
        maps = [
            [index[min(p[u], p[w]), max(p[u], p[w])] for u, w in pairs]
            for p in permutations(range(n))
        ]
        orbit_of: dict[int, int] = {}
        for mask in range(1 << len(pairs)):
            if mask in orbit_of:
                continue
            for to in maps:
                image = sum(1 << to[i] for i in range(len(pairs)) if mask >> i & 1)
                orbit_of[image] = mask
        key_of = {mask: _canonical_key(n, adj_of(mask)) for mask in orbit_of}
        classes = {}
        for mask, orbit in orbit_of.items():
            assert classes.setdefault(key_of[mask], orbit) == orbit, mask
        assert len(classes) == len(set(orbit_of.values())) == {2: 2, 3: 4, 4: 11, 5: 34}[n]
