import json
import random
import sys
import threading
from itertools import chain, combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdskit import (
    Graph,
    InvalidArgument,
    InvalidGraph,
    ParseError,
    VertexSet,
    emit_graph,
    graph_from_json,
    graph_to_json,
    induced_connected,
    is_star,
    parse_graph,
    set_from_json,
)
from pdskit import graph as graph_mod
from pdskit.approx import decide_pds_at_least_k, half_pds
from pdskit.exact import adjacency_masks, max_pds_exact
from pdskit.graph import is_connected, require_connected
from pdskit.reductions import split_reduction

from .graph_reference import build_graph_loop, fields, is_bipartite, is_split
from .strategies import graphs, graphs_with_subset

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


class TestVertexSet:
    def test_from_ids_roundtrip(self):
        s = VertexSet.from_ids(10, [7, 2, 5])
        assert s.members() == [2, 5, 7]
        assert len(s) == 3
        assert 5 in s and 4 not in s and 10 not in s and -1 not in s

    def test_mask_constructor(self):
        assert VertexSet(5, 0b10110).members() == [1, 2, 4]

    def test_out_of_range(self):
        with pytest.raises(InvalidArgument, match="vertex 4 out of range for n=4"):
            VertexSet.from_ids(4, [4])
        with pytest.raises(InvalidArgument, match="does not fit a 3-vertex graph"):
            VertexSet(3, 0b1000)

    def test_flags(self):
        assert bytes(VertexSet.from_ids(4, [1, 3]).flags()) == b"\x00\x01\x00\x01"

    def test_immutable_and_hashable(self):
        s = VertexSet.from_ids(4, [1])
        with pytest.raises(AttributeError):
            s.mask = 0
        assert len({s, VertexSet.from_ids(4, [1])}) == 1

    def test_large_n_stays_usable(self):
        n = 1_000_000
        s = VertexSet.from_ids(n, [0, 123_456, n - 1])
        assert s.members() == [0, 123_456, n - 1]

    def test_iteration(self):
        assert list(VertexSet.from_ids(5, [4, 0])) == [0, 4]


class TestGraph:
    def test_basic(self):
        assert K4.n == 4 and K4.m == 6
        assert K4.max_degree == 3
        assert K4.adj[0] == (1, 2, 3)
        assert K4.has_edge(2, 3) and not P4.has_edge(0, 3)

    def test_edges_canonicalised(self):
        g = Graph(3, [(2, 0), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidGraph):
            Graph(1, [])
        with pytest.raises(InvalidGraph):
            Graph(3, [(0, 3)])
        with pytest.raises(InvalidGraph):
            Graph(3, [(1, 1)])
        with pytest.raises(InvalidGraph):
            Graph(3, [(0, 1), (1, 0)])

    def test_adjacency_masks(self):
        assert adjacency_masks(P4) == (0b0010, 0b0101, 0b1010, 0b0100)

    @given(graphs())
    def test_adjacency_masks_and_sorted_adj(self, g):
        masks = adjacency_masks(g)
        # edges given in descending order, endpoints swapped
        h = Graph(g.n, [(v, u) for u, v in reversed(g.edges)])
        assert h.adj == g.adj
        for u in range(g.n):
            for v in range(g.n):
                assert (masks[u] >> v & 1 == 1) == g.has_edge(u, v)
            assert all(a < b for a, b in zip(g.adj[u], g.adj[u][1:]))

    def test_member_table(self, monkeypatch):
        monkeypatch.setattr(graph_mod, "_members", (b"",))
        small = graph_mod.member_table(3)
        assert small == (b"", b"\0", b"\1", b"\0\1", b"\2", b"\0\2", b"\1\2", b"\0\1\2")
        # a wider request replaces the table whole; a narrower one reuses it
        table = graph_mod.member_table(graph_mod.MEMBER_BITS)
        assert graph_mod.member_table(5) is graph_mod.member_table(12) is table
        assert len(table) == 1 << graph_mod.MEMBER_BITS == 4096
        assert table[:8] == small
        for m, row in enumerate(table):
            assert type(row) is bytes
            assert list(row) == [v for v in range(12) if m >> v & 1]

    def test_member_table_under_racing_threads(self, monkeypatch):
        # every caller gets a table wide enough for its n, even when another
        # thread has just stored a narrower one (here a reset to the empty table)
        monkeypatch.setattr(graph_mod, "_members", (b"",))
        short = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(300):
                if rng.random() < 0.2:
                    graph_mod._members = (b"",)
                n = rng.randint(1, 12)
                table = graph_mod.member_table(n)
                if len(table) < 1 << n or list(table[(1 << n) - 1]) != list(range(n)):
                    short.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert short == []


@st.composite
def canonical_lists(draw, max_n: int = 12):
    """(n, edges) with edges a sorted list of distinct u < v pairs, the form
    emit_graph writes; possibly empty."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, sorted(draw(st.sets(st.sampled_from(pairs))))


@st.composite
def reordered_lists(draw):
    """A canonical (n, edges), the same edges shuffled, and the shuffled
    edges with some written the other way round."""
    n, edges = draw(canonical_lists())
    shuffled = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, edges, shuffled, [(v, u) if f else (u, v) for (u, v), f in zip(shuffled, flips)]


def outcome(build, n, edges):
    """The fields build(n, edges) gives, or the exception it raises."""
    try:
        return fields(build(n, list(edges)))
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


class TestConstructorRoutes:
    """Graph takes a canonical list through C-level scans and any other
    input through the edge-by-edge loop; both must match the original
    constructor (tests/graph_reference.py) field by field, and a rejected
    list must raise the same error with the same message."""

    @staticmethod
    def scanned(n, edges) -> bool:
        return graph_mod._canonical_edges(edges, n)

    @given(canonical_lists())
    def test_canonical_lists_take_the_scans(self, case):
        n, edges = case
        lists = [list(e) for e in edges]
        for form in (edges, tuple(edges), lists):
            assert self.scanned(n, form)
            assert fields(Graph(n, form)) == build_graph_loop(n, form)

    @given(reordered_lists())
    def test_shuffled_and_swapped_lists_take_the_loop(self, case):
        n, edges, shuffled, swapped = case
        for form in (shuffled, swapped, [list(e) for e in swapped]):
            assert self.scanned(n, form) == (list(map(tuple, form)) == edges)
            assert fields(Graph(n, form)) == build_graph_loop(n, form)
        # an iterator is never materialised for the scans
        assert fields(Graph(n, iter(swapped))) == build_graph_loop(n, swapped)

    @given(reordered_lists())
    def test_edges_are_derived_and_both_routes_hash_equal(self, case):
        n, edges, _, swapped = case
        assert "edges" not in Graph.__slots__
        scanned, looped = Graph(n, edges), Graph(n, swapped)
        assert scanned == looped and hash(scanned) == hash(looped)
        assert scanned.edges == looped.edges == tuple(edges)

    @pytest.mark.parametrize("family", ["star_graph", "path_graph", "cycle_graph"])
    def test_parametric_families_take_the_scans(self, family, monkeypatch):
        from pdskit import generators

        routes = []
        monkeypatch.setattr(
            generators, "Graph", lambda n, e: routes.append(self.scanned(n, e)) or Graph(n, e)
        )
        for n in (3, 4, 9):
            getattr(generators, family)(n)
        assert routes == [True] * 3

    def test_parse_graph_fills_only_canonical_text_from_its_blocks(self, monkeypatch):
        # canonical text streams its token blocks into the row fill, with no
        # list of pairs; other text, a u column that ascends included, takes
        # the constructor's loop, which lists the edges it has checked
        want, kinds, fill = Graph(4, [(0, 1), (0, 2), (2, 3)]), [], graph_mod._fill
        monkeypatch.setattr(
            graph_mod, "_fill", lambda g, n, pairs: kinds.append(type(pairs)) or fill(g, n, pairs)
        )
        for text in ("4 3\n0 1\n0 2\n2 3\n", "4 3\n2 3\n0 1\n0 2\n", "4 3\n0 1\n2 0\n2 3\n"):
            assert parse_graph(text) == want
        assert kinds == [chain, list, list]

    @pytest.mark.parametrize("edges", [[], ()])
    def test_empty(self, edges):
        assert self.scanned(5, edges)
        assert fields(Graph(5, edges)) == build_graph_loop(5, edges) == (5, 0, (), ((),) * 5, (0,) * 5)

    @given(
        canonical_lists(),
        st.lists(
            st.tuples(
                st.sampled_from(["duplicate", "self-loop", "above n", "negative", "descending"]),
                st.integers(min_value=0),
            ),
            min_size=1,
            max_size=2,
        ),
    )
    def test_one_defect_gives_the_reference_error(self, case, defects):
        n, edges = case
        bad = edges[:]
        for kind, at in defects:
            i = at % (len(bad) + 1)
            if kind == "duplicate" and bad:
                i %= len(bad)
                bad.insert(i + 1, bad[i])
            elif kind == "self-loop":
                u = bad[i][0] if i < len(bad) else n - 1
                bad.insert(i, (u, u))
            elif kind == "above n":
                bad.append((n - 1, n))  # still ascending, u < v: only the max scan fails
            elif kind == "negative":
                bad.insert(0, (-1, 0))  # likewise, for the first u
            elif kind == "descending" and len(bad) >= 2:
                i %= len(bad) - 1
                bad[i], bad[i + 1] = bad[i + 1], bad[i]
        assert outcome(Graph, n, bad) == outcome(build_graph_loop, n, bad)
        if bad != edges:
            assert not self.scanned(n, bad)

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), [0, 2]],  # a tuple and a list do not compare
            [(0, 1, 2)],
            [(0,)],
            [5],
            ["01"],
            [(0.5, 1.5)],
            [(False, True)],
            [{0, 1}],
            [(0, 1), (0, 1)],
            [(2, 1), (0, 3)],
        ],
        ids=repr,
    )
    def test_odd_items_behave_as_before(self, edges):
        assert outcome(Graph, 4, edges) == outcome(build_graph_loop, 4, edges)


class TestVertexLimit:
    """A vertex count above MAX_VERTICES is refused before the n neighbour
    rows, or a parametric fixture's edge list, are allocated."""

    BIG = graph_mod.MAX_VERTICES + 1

    def test_constructor(self):
        for edges in ([], iter([(0, 1)])):
            with pytest.raises(InvalidGraph, match=f"n={self.BIG} is above the limit"):
                Graph(self.BIG, edges)

    def test_parsers(self):
        with pytest.raises(InvalidGraph, match="above the limit"):
            parse_graph(f"{self.BIG} 0\n")
        with pytest.raises(InvalidGraph, match="above the limit"):
            graph_from_json({"n": self.BIG, "edges": []})

    @pytest.mark.parametrize("kind", ["path", "star", "cycle"])
    def test_parametric_fixture(self, kind, monkeypatch):
        from pdskit import generators

        def refuse(n):
            raise AssertionError("the edge list was built")

        monkeypatch.setattr(generators, f"{kind}_graph", refuse)
        with pytest.raises(InvalidGraph, match=f"{kind}{self.BIG}: n={self.BIG} is above"):
            generators.fixture(f"{kind}{self.BIG}")
        # more digits than int() converts
        with pytest.raises(InvalidGraph, match="is above the limit"):
            generators.fixture(f"{kind}{'9' * 5000}")

    def test_leading_zeros_still_read(self):
        from pdskit import generators

        assert generators.fixture("path0004").graph.edges == ((0, 1), (1, 2), (2, 3))
        with pytest.raises(InvalidGraph, match=f"path00{self.BIG}: n={self.BIG} is above"):
            generators.fixture(f"path00{self.BIG}")


class TestPredicates:
    def test_connectivity(self):
        assert is_connected(P4)
        g = Graph(4, [(0, 1), (2, 3)])
        assert not is_connected(g)
        with pytest.raises(InvalidArgument, match="is disconnected"):
            require_connected(g)

    def test_is_star(self):
        assert is_star(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert is_star(Graph(2, [(0, 1)]))
        assert not is_star(P4)
        assert not is_star(K4)

    def test_is_bipartite(self):
        assert is_bipartite(P4)
        assert not is_bipartite(K4)
        assert is_bipartite(Graph(4, [(0, 1), (2, 3)]))

    def test_is_split(self):
        # clique {0,1,2} plus independent {3,4} hanging off it
        assert is_split(Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (0, 4)]))
        assert is_split(K4)
        assert not is_split(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))  # C4
        assert is_split(P4)  # clique {1,2} + independent {0,3}
        assert not is_split(Graph(4, [(0, 1), (2, 3)]))  # 2K2

    def test_induced_connected(self):
        assert induced_connected(P4, VertexSet.from_ids(4, [1, 2]))
        assert not induced_connected(P4, VertexSet.from_ids(4, [0, 3]))
        with pytest.raises(InvalidArgument, match="empty subgraph"):
            induced_connected(P4, VertexSet.from_ids(4, []))


class TestConnectivitySlot:
    """A Graph never changes, so is_connected searches it once and
    adjacency_masks builds its masks once."""

    def test_one_search_per_graph(self, monkeypatch):
        calls = []
        search = graph_mod._reach

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(graph_mod, "_reach", counted)
        g = Graph(7, [(v, (v + 1) % 7) for v in range(7)] + [(0, 3)])
        starts = list(combinations(range(7), 4))
        assert len(starts) == 35
        for ids in starts:
            half_pds(g, init=VertexSet.from_ids(7, ids))
        assert len(calls) == 1
        # a fresh Graph with the same edges searches again
        assert is_connected(Graph(7, g.edges)) and len(calls) == 2

    @pytest.mark.parametrize(
        "solve",
        [
            half_pds,
            max_pds_exact,
            lambda g: decide_pds_at_least_k(g, 2),
            split_reduction,
        ],
        ids=["half_pds", "max_pds_exact", "decide_pds_at_least_k", "split_reduction"],
    )
    def test_disconnected_raises_every_time(self, solve):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
        for _ in range(3):
            with pytest.raises(InvalidArgument, match="is disconnected"):
                solve(g)
        assert g._connected is False

    def test_masks_built_once_per_graph(self):
        g = Graph(7, [(v, (v + 1) % 7) for v in range(7)] + [(0, 3)])
        masks = graph_mod.adjacency_masks(g)
        assert graph_mod.adjacency_masks(g) is masks
        max_pds_exact(g)
        for ids in combinations(range(7), 4):
            half_pds(g, init=VertexSet.from_ids(7, ids))
        assert g._masks is masks

    def test_still_immutable(self):
        g = Graph(4, P4.edges)
        assert is_connected(g)
        for name in ("_connected", "_masks", "n", "fresh"):
            with pytest.raises(AttributeError):
                setattr(g, name, False)
        assert g._connected is True

    def test_equality_and_hash_ignore_the_slot(self):
        searched, fresh = Graph(4, P4.edges), Graph(4, P4.edges)
        assert is_connected(searched)
        assert (searched._connected, fresh._connected) == (True, None)
        assert searched == fresh and hash(searched) == hash(fresh)


class TestSerialisation:
    def test_parse_basic(self):
        g = parse_graph("# comment\n3 2\n0 1\n\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_parse_errors(self):
        for text in ("", "x y\n", "2 2\n0 1\n", "2 1\n0 1 2\n", "2 1\na b\n"):
            with pytest.raises(ParseError):
                parse_graph(text)

    def test_json_roundtrip(self):
        obj = graph_to_json(P4)
        assert obj == {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
        assert graph_from_json(obj) == P4
        assert graph_from_json('{"n": 4, "edges": [[0,1],[1,2],[2,3]]}') == P4

    def test_json_errors(self):
        for bad in ("{", "[]", '{"n": 3}', '{"n": 3, "edges": [[0]]}'):
            with pytest.raises(ParseError):
                graph_from_json(bad)

    def test_json_integers_are_not_coerced(self):
        bad_graphs = [
            {"n": 3, "edges": ["01", "12"]},  # strings of digits read as pairs
            {"n": 3.7, "edges": [[0, 1.9], [1, 2]]},  # floats truncated
            {"n": "3", "edges": [[0, 1]]},
            {"n": True, "edges": []},
            {"n": 3, "edges": [[0, True]]},
            {"n": 3, "edges": [[0, 1, 2]]},
            {"n": 3, "edges": "01"},
            {"n": 3, "edges": [{"0": 1}]},
        ]
        for bad in bad_graphs:
            for form in (bad, json.dumps(bad)):
                with pytest.raises(ParseError):
                    graph_from_json(form)
        for bad in ({"set": "12"}, {"set": [1.0]}, {"set": [True]}, {"set": ["1"]}, {"set": 1}):
            for form in (bad, json.dumps(bad)):
                with pytest.raises(ParseError):
                    set_from_json(form, 3)

    def test_set_json_roundtrip(self):
        s = VertexSet.from_ids(5, [0, 2])
        assert set_from_json('{"set": [0, 2]}', 5) == s
        with pytest.raises(ParseError):
            set_from_json("{}", 5)

    def test_set_json_refuses_a_repeated_id(self):
        for form in ('{"set": [0, 1, 1]}', {"set": [2, 0, 2]}):
            with pytest.raises(ParseError, match="^set must list distinct integers$"):
                set_from_json(form, 4)

    @given(graphs(max_n=9))
    def test_emit_parse_roundtrip(self, g):
        assert parse_graph(emit_graph(g)) == g

    @given(graphs(max_n=9))
    def test_json_roundtrip_property(self, g):
        assert graph_from_json(graph_to_json(g)) == g


@given(graphs_with_subset())
def test_flags_agree_with_membership(gs):
    g, s = gs
    flags = s.flags()
    assert all(bool(flags[v]) == (v in s) for v in range(g.n))
