import pytest

from pdskit import (
    InfeasibleParameters,
    UnknownFixture,
    all_connected_graphs,
    cycle_graph,
    fixture,
    fixture_names,
    is_connected,
    is_cubic,
    is_star,
    max_independent_set_exact,
    max_pds_exact,
    path_graph,
    random_connected,
    star_graph,
)
from pdskit.exact import adjacency_masks
from pdskit.generators import _canonical_key

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
        with pytest.raises(UnknownFixture):
            fixture("nope")
        with pytest.raises(UnknownFixture):
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
        with pytest.raises(InfeasibleParameters):
            star_graph(1)
        with pytest.raises(InfeasibleParameters):
            path_graph(1)
        with pytest.raises(InfeasibleParameters):
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
        with pytest.raises(InfeasibleParameters):
            random_connected(5, 3, seed=0)
        with pytest.raises(InfeasibleParameters):
            random_connected(5, 11, seed=0)
        with pytest.raises(InfeasibleParameters):
            random_connected(1, 0, seed=0)


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

    def test_cap(self):
        from pdskit import InstanceTooLarge

        with pytest.raises(InstanceTooLarge):
            next(all_connected_graphs(10))
        with pytest.raises(InfeasibleParameters):
            next(all_connected_graphs(1))
