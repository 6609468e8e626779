import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdskit import (
    CubicCycleGraph,
    Graph,
    InvalidArgument,
    InvalidGraph,
    InvalidGraph,
    ParseError,
    VerificationFailed,
    VertexSet,
    all_cubic_cycles,
    check_pds,
    emit_cubic,
    fixture,
    induced_connected,
    max_pds_size_cubic,
    parse_cubic,
    random_cubic_cycle,
    solve_hamiltonian_cubic,
)
from pdskit import cubic
from pdskit.cubic import (
    ALTERNATING,
    PAIRED,
    _arc,
    _assert_sealed,
    _finish,
    _pattern,
    _recheck,
    _tag_table,
    find_full_arc,
)
from pdskit.pds import recheck

from .cubic_reference import (
    AHEAD,
    BACK,
    _TAGS,
    arc_vertex_set_ids,
    classify_chords,
    classify_chords_loop,
    full_arc_start_loop,
    no_arc_answer_ids,
    pattern_loop,
    to_graph,
)
from .strategies import arc_union_case, cubic_arc_unions, jump, paired, rotated

K4_CHORDS = (2, 3, 0, 1)
PRISM6_CHORDS = (3, 4, 5, 0, 1, 2)
# the forced alternating chord map at n=10 (chords jump +3 from evens)
N10_FORCED = (3, 8, 5, 0, 7, 2, 9, 4, 1, 6)


def _verified_peak(n):
    """tracemalloc peak of one solve of a fresh random instance."""
    g = random_cubic_cycle(n, seed=0)
    tracemalloc.start()
    try:
        out = solve_hamiltonian_cubic(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.pds) == max_pds_size_cubic(n)
    return peak


def paired8():
    return CubicCycleGraph(8, fixture("exc8_paired").chords)


def alternating8():
    return CubicCycleGraph(8, fixture("exc8_alternating").chords)


class TestTargetSize:
    def test_values(self):
        assert [max_pds_size_cubic(n) for n in (4, 6, 8, 10, 12, 14)] == [
            3, 4, 5, 7, 8, 9,
        ]


class TestCubicCycleGraph:
    def test_valid(self):
        g = CubicCycleGraph(6, PRISM6_CHORDS)
        assert g.window == 2
        assert to_graph(g).deg == (3,) * 6

    def test_window(self):
        assert CubicCycleGraph(10, N10_FORCED).window == 3
        assert CubicCycleGraph(4, K4_CHORDS).window == 1

    def test_to_graph_k4(self):
        g = to_graph(CubicCycleGraph(4, K4_CHORDS))
        assert g.m == 6 and g.n == 4  # the complete graph

    def test_rejects_bad_instances(self):
        with pytest.raises(InvalidGraph):
            CubicCycleGraph(5, (2, 3, 0, 1, 4))  # odd n
        with pytest.raises(InvalidGraph):
            CubicCycleGraph(4, (2, 3, 0))  # wrong length
        with pytest.raises(InvalidGraph):
            CubicCycleGraph(4, (0, 3, 2, 1))  # self-chord
        with pytest.raises(InvalidGraph):
            CubicCycleGraph(4, (1, 0, 3, 2))  # chord duplicates a cycle edge
        with pytest.raises(InvalidGraph):
            CubicCycleGraph(6, (5, 3, 4, 1, 2, 0))  # chord 0-5 duplicates the wrap edge
        with pytest.raises(InvalidGraph):
            CubicCycleGraph(6, (3, 4, 5, 0, 1, 3))  # not an involution

    def test_chord_is_a_read_only_q_view(self):
        g = CubicCycleGraph(4, K4_CHORDS)
        assert type(g.chord) is memoryview and g.chord.format == "q" and g.chord.readonly
        assert tuple(g.chord) == K4_CHORDS
        with pytest.raises(TypeError):
            g.chord[0] = 1
        assert tuple(g.chord) == K4_CHORDS

    def test_instance_keeps_its_own_copy_of_the_table(self):
        for table in ([2, 3, 0, 1], array("q", [2, 3, 0, 1])):
            g = CubicCycleGraph(4, table)
            table[0], table[2] = 3, 3
            assert tuple(g.chord) == K4_CHORDS and g == CubicCycleGraph(4, K4_CHORDS)

    def test_equal_tables_give_equal_instances_and_hashes(self):
        for n, seed in ((4, 0), (30, 1), (1000, 2)):
            chord = tuple(random_cubic_cycle(n, seed=seed).chord)
            instances = [CubicCycleGraph(n, list(chord)), CubicCycleGraph(n, chord),
                         CubicCycleGraph(n, array("q", chord)),
                         parse_cubic(emit_cubic(CubicCycleGraph(n, chord)))]
            assert all(g == instances[0] for g in instances)
            assert len({hash(g) for g in instances}) == 1
            assert len(set(instances)) == 1

    def test_list_and_q_array_tables_build_equal_instances(self):
        # every table is copied into an array('q') of the instance's own
        for n, seed in ((4, 0), (30, 1), (1000, 2)):
            table = list(random_cubic_cycle(n, seed=seed).chord)
            a, b = CubicCycleGraph(n, table), CubicCycleGraph(n, array("q", table))
            assert a == b and a.codes == b.codes and tuple(b.chord) == tuple(table)
            assert CubicCycleGraph(n, array("l", table)) == a
        for bad in ((2, 3, 0, 4), (-1, 3, 0, 1), (1, 0, 3, 2)):
            messages = set()
            for table in (list(bad), array("q", bad)):
                with pytest.raises(InvalidGraph) as exc:
                    CubicCycleGraph(4, table)
                messages.add(str(exc.value))
            assert len(messages) == 1, bad

    def test_rejects_entries_past_64_bits(self):
        with pytest.raises(InvalidGraph, match=r"^chord \(0, 2361"):
            CubicCycleGraph(4, (2**71, 3, 0, 1))

    def test_refuses_n_above_the_vertex_limit_before_reading_an_entry(self):
        big = cubic.MAX_VERTICES + 2

        class Unread:
            def __len__(self):
                return big

            def __getitem__(self, v):
                raise AssertionError(f"entry {v} was read")

        with pytest.raises(InvalidGraph) as info:
            CubicCycleGraph(big, Unread())
        assert str(info.value) == f"n={big} is above the limit of {cubic.MAX_VERTICES} vertices"

    def test_parse_refuses_n_above_the_vertex_limit_from_the_header(self):
        # a table for n = 2^22 + 2 would take 32 MiB; none is allocated
        big = cubic.MAX_VERTICES + 2
        tracemalloc.start()
        try:
            with pytest.raises(InvalidGraph) as info:
                parse_cubic(f"{big}\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"n={big} is above the limit of {cubic.MAX_VERTICES} vertices"
        assert peak < 2**20

    @pytest.mark.parametrize(
        "text, message",
        [
            ("4194304\n", "expected 2097152 chord lines, found 0"),
            # a canonical first block, then a line the line pass refuses
            ("4194304\n" + "0 2\n" * 5000 + "--1 5\n",
             "bad token: invalid literal for int() with base 10: '--1'"),
        ],
        ids=["header only", "bad later line"],
    )
    def test_parse_counts_a_short_text_before_it_allocates(self, text, message):
        # too short for 2097152 chord lines: counted, and no 32 MiB table
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as info:
                parse_cubic(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 2**20

    @pytest.mark.parametrize(
        "text, message",
        [
            # 4 * (n // 2) + 1 characters, the fewest that hold n // 2 lines "u v"
            ("8\n0 4\n1 5\n2 6\n3 7", None),
            ("7\n0 3\n1 4\n2 5", "need even n >= 4, got 7"),
            ("7\n0 3\n1 4\n2 7", "chord vertex out of range for n=7"),
            # shorter: only counted
            ("8\n0 4\n1 5\n2 6\n", "expected 4 chord lines, found 3"),
            ("7\n0 3\n1 4\n", "expected 3 chord lines, found 2"),
        ],
    )
    def test_parse_at_the_shortest_text(self, text, message):
        if message is None:
            assert parse_cubic(text) == CubicCycleGraph(8, (4, 5, 6, 7, 0, 1, 2, 3))
        else:
            with pytest.raises(ParseError) as info:
                parse_cubic(text)
            assert str(info.value) == message

    def test_fixture_chords_match_graphs(self):
        for name in ("exc8_paired", "exc8_alternating", "prism6", "k4"):
            rec = fixture(name)
            assert to_graph(CubicCycleGraph(rec.graph.n, rec.chords)) == rec.graph

    @staticmethod
    def _rows(inst):
        """Each vertex's neighbours as the re-check reads them: the cycle
        neighbours v - 1 and v + 1, wrapping at 0 and n - 1, and chord[v]."""
        n = inst.n
        return [sorted(((v - 1) % n, (v + 1) % n, c)) for v, c in enumerate(inst.chord)]

    def test_adj_k4_wraps(self):
        g = CubicCycleGraph(4, K4_CHORDS)
        graph = to_graph(g)
        assert self._rows(g) == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
        assert [list(row) for row in graph.adj] == self._rows(g)
        assert graph.deg == (3, 3, 3, 3)
        # {0, 3} and {3, 0, 1} are joined only by the wrap edge 3-0
        for ids in ((0, 3), (3, 0, 1)):
            s = VertexSet.from_ids(4, ids)
            got, expected = _recheck_outcomes(g, s)
            assert got == expected == "ok", ids

    def test_adj_matches_to_graph_exhaustive(self):
        for n in (4, 6, 8, 10, 12):
            for inst in all_cubic_cycles(n):
                graph = to_graph(inst)
                assert graph.deg == (3,) * n
                assert [list(row) for row in graph.adj] == self._rows(inst), inst
                if 6 <= n <= 10:  # each closed neighbourhood, re-checked both ways
                    for v, row in enumerate(self._rows(inst)):
                        s = VertexSet.from_ids(n, [v, *row])
                        got, expected = _recheck_outcomes(inst, s)
                        assert got == expected, (inst, v)
        assert [max_pds_size_cubic(n) for n in (4, 6, 8, 10, 12, 14)] == [
            3, 4, 5, 7, 8, 9,
        ]


class TestArc:
    def test_wraparound_membership(self):
        assert VertexSet(8, _arc(8, 6, 4)).members() == [0, 1, 6, 7]
        assert _arc(8, 6, 4) == arc_vertex_set_ids(8, 6, 4).mask

    def test_vertex_set(self):
        assert VertexSet(6, _arc(6, 4, 3)) == VertexSet.from_ids(6, [4, 5, 0])


class TestClassification:
    def test_prism_untagged(self):
        tags = classify_chords(CubicCycleGraph(6, PRISM6_CHORDS))
        assert tags == (None,) * 6

    def test_n10_alternating(self):
        tags = classify_chords(CubicCycleGraph(10, N10_FORCED))
        assert tags == (AHEAD, BACK) * 5

    def test_paired8_tags(self):
        tags = classify_chords(paired8())
        assert sorted(set(tags)) == [AHEAD, BACK]
        assert all(t is not None for t in tags)

    def test_pattern_names(self):
        # code bytes: 1 AHEAD, 2 BACK
        assert _pattern(b"\1\2" * 5) == (ALTERNATING, 0)
        assert _pattern(b"\2\1" * 5) == (ALTERNATING, 1)
        assert _pattern(b"\1\1\2\2" * 2) == (PAIRED, 0)
        assert _pattern(b"\2\1\1\2" * 2) == (PAIRED, 1)
        assert _pattern(b"\2\2\1\1" * 2) == (PAIRED, 2)
        assert _pattern(b"\1\2\2\1" * 2) == (PAIRED, 3)

    def test_pattern_rejects_untagged_or_garbage(self):
        with pytest.raises(VerificationFailed, match="untagged"):
            _pattern(b"\1\0\2\2")
        with pytest.raises(VerificationFailed, match="neither"):
            _pattern(b"\1\1\1\2\2\2")
        with pytest.raises(VerificationFailed, match="neither"):
            _pattern(b"\1\1\2\2\1\2")  # paired start, n not a multiple of 4


class TestArcs:
    def test_prism_has_full_arc(self):
        assert find_full_arc(CubicCycleGraph(6, PRISM6_CHORDS)) is not None

    def test_exceptional8_has_none(self):
        assert find_full_arc(paired8()) is None
        assert find_full_arc(alternating8()) is None

    def test_k4_is_a_full_arc_from_0(self):
        # k = 1: the arc of n - k = 3 vertices from 0 is K4's answer
        g = CubicCycleGraph(4, K4_CHORDS)
        assert find_full_arc(g) == 0
        assert solve_hamiltonian_cubic(g).pds.members() == [0, 1, 2]


class TestSolve:
    def _assert_optimal(self, g, outcome):
        s = outcome.pds
        graph = to_graph(g)
        assert len(s) == max_pds_size_cubic(g.n)
        assert check_pds(graph, s).holds
        assert induced_connected(graph, s)

    def test_k4(self):
        out = solve_hamiltonian_cubic(CubicCycleGraph(4, K4_CHORDS))
        assert out.exceptional is None and out.pds.members() == [0, 1, 2]

    def test_prism(self):
        g = CubicCycleGraph(6, PRISM6_CHORDS)
        self._assert_optimal(g, solve_hamiltonian_cubic(g))

    def test_exceptions_at_8(self):
        from pdskit import CubicOutcome

        assert solve_hamiltonian_cubic(paired8()) == CubicOutcome(None, "paired")
        out = solve_hamiltonian_cubic(alternating8())
        assert out.exceptional == "alternating" and out.pds is None

    def test_regular_8_still_solves(self):
        g = CubicCycleGraph(8, tuple((v + 4) % 8 for v in range(8)))
        self._assert_optimal(g, solve_hamiltonian_cubic(g))

    def test_forced_table_cases(self):
        g = CubicCycleGraph(10, N10_FORCED)
        self._assert_optimal(g, solve_hamiltonian_cubic(g))
        # every rotation of the forced map is the same graph relabeled
        for r in range(1, 10):
            chord = tuple((N10_FORCED[(v + r) % 10] - r) % 10 for v in range(10))
            gr = CubicCycleGraph(10, chord)
            self._assert_optimal(gr, solve_hamiltonian_cubic(gr))

    def test_every_n6_instance(self):
        for g in all_cubic_cycles(6):
            assert find_full_arc(g) is not None
            self._assert_optimal(g, solve_hamiltonian_cubic(g))

    @pytest.mark.parametrize("n", [12, 14, 16, 18, 20, 22, 26, 34, 100, 1001 * 2])
    def test_random_instances(self, n):
        for seed in range(8):
            g = random_cubic_cycle(n, seed=seed)
            out = solve_hamiltonian_cubic(g)
            assert out.exceptional is None
            self._assert_optimal(g, out)


def _bound_size_equivalence(g):
    """check_pds on every s-subset, s = floor((2n+1)/3), of the cubic graph
    g agrees with the test that every member has two neighbours inside."""
    rows = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
    for ids in combinations(range(g.n), max_pds_size_cubic(g.n)):
        mask = sum(1 << v for v in ids)
        two_inside = all((rows[v] & mask).bit_count() >= 2 for v in ids)
        assert check_pds(g, VertexSet(g.n, mask)).holds == two_inside, (g.edges, ids)


class TestBoundSizeEquivalence:
    """The equivalence the cubic module's docstring proves, by brute force."""

    def test_every_chord_matching_up_to_10_and_cubic10(self):
        graphs = [to_graph(inst) for n in range(4, 11, 2) for inst in all_cubic_cycles(n)]
        assert len(graphs) == 1 + 4 + 31 + 293
        for g in [*graphs, fixture("cubic10").graph]:
            _bound_size_equivalence(g)

    def test_random_cubic_graphs_with_12_vertices_and_petersen(self):
        nx = pytest.importorskip("networkx")
        graphs = [nx.random_regular_graph(3, 12, seed=seed) for seed in range(8)]
        for h in [*graphs, nx.petersen_graph()]:
            _bound_size_equivalence(Graph(h.number_of_nodes(), sorted(map(sorted, h.edges))))


class TestVerification:
    def test_finish_rejects_wrong_size(self, monkeypatch):
        g = CubicCycleGraph(6, PRISM6_CHORDS)

        def no_recheck(*args, **kwargs):
            raise AssertionError("size check must run before the re-check")

        monkeypatch.setattr(cubic, "_recheck", no_recheck)
        with pytest.raises(VerificationFailed, match="size 3"):
            _finish(g, VertexSet.from_ids(6, [0, 1, 2]))

    def test_finish_rejects_non_pds(self):
        g = CubicCycleGraph(6, PRISM6_CHORDS)
        with pytest.raises(VerificationFailed):
            _finish(g, VertexSet.from_ids(6, [0, 1, 2, 4]))

    def test_finish_agrees_with_graph_recheck(self):
        """_finish on the instance itself raises exactly when the
        re-check on the full Graph does, for every target-size set."""
        checked = rejected = 0
        for n in (4, 6, 8, 10):
            target = max_pds_size_cubic(n)
            for inst in all_cubic_cycles(n):
                graph = to_graph(inst)
                for ids in combinations(range(n), target):
                    s = VertexSet.from_ids(n, ids)
                    try:
                        recheck(graph, s, "x", connected=True)
                        expected = True
                    except VerificationFailed:
                        expected = False
                    try:
                        _finish(inst, s)
                        got = True
                    except VerificationFailed:
                        got = False
                    assert got == expected, (inst, ids)
                    checked += 1
                    rejected += not expected
        assert 0 < rejected < checked

    def test_finish_rejects_disconnected_pds(self):
        # triangle {0, 1, 2} (chord 0-2) and square {5, 6, 7, 8} (chord
        # 5-8): each member keeps two of its three neighbours inside
        g = CubicCycleGraph(10, (2, 3, 0, 1, 6, 8, 4, 9, 5, 7))
        s = VertexSet.from_ids(10, [0, 1, 2, 5, 6, 7, 8])
        assert check_pds(to_graph(g), s).holds
        with pytest.raises(VerificationFailed, match="not connected"):
            _finish(g, s)

    def test_verified_solve_never_builds_a_graph(self, monkeypatch):
        def no_build(self, *args):
            raise AssertionError("the verified path must not build a Graph")

        monkeypatch.setattr(Graph, "__init__", no_build)
        # K4, then the n=10 forced map, n=14 and both n=16 tables
        insts = [CubicCycleGraph(4, K4_CHORDS), jump(10, 3), jump(14, 3)]
        insts += [jump(16, 3), jump(16, 5), random_cubic_cycle(10**4, seed=3)]
        assert [find_full_arc(g) for g in insts[1:5]] == [None] * 4
        for inst in insts:
            out = solve_hamiltonian_cubic(inst)
            assert len(out.pds) == max_pds_size_cubic(inst.n)

    def test_verified_solve_memory_is_linear(self):
        """The re-check reads the instance's own rows, which must stay
        linear in n: a per-vertex neighbour bitmask would cost about
        n^2/16 bytes."""
        peaks = {n: _verified_peak(n) for n in (10**4, 10**5)}
        assert peaks[10**5] < 100 * 2**20
        assert peaks[10**5] <= 12 * peaks[10**4]

    def test_verified_solve_builds_no_graph_memory(self):
        # a Graph of the instance (edge set, sorted edges, neighbour
        # lists) peaks near 48 MB at n=10^5; the verified solve near 1.2 MB
        assert _verified_peak(10**5) < 25 * 2**20


def _recheck_outcomes(g, s):
    """(the bulk re-check's outcome, pds.recheck's on the instance's Graph):
    the message's ending, or "ok" when the set passes."""
    outcomes = []
    for check in (lambda: _recheck(g, s), lambda: recheck(to_graph(g), s, "answer", connected=True)):
        try:
            check()
            outcomes.append("ok")
        except VerificationFailed as exc:
            outcomes.append(str(exc).removeprefix("answer "))
    return tuple(outcomes)


def _runs(s):
    """How many maximal runs of consecutive cycle vertices s has."""
    return sum(v in s and (v - 1) % s.n not in s for v in range(s.n))


class TestBulkRecheck:
    """cubic._recheck against pds.recheck(to_graph(g), s, connected=True):
    the same sets pass, and a failing set fails with the same message."""

    def test_matches_graph_recheck_on_every_small_set(self):
        seen = set()
        for n in (4, 6, 8):
            for g in all_cubic_cycles(n):
                for mask in range(1, 1 << n):
                    s = VertexSet(n, mask)
                    if 2 <= len(s) < n:
                        got, expected = _recheck_outcomes(g, s)
                        assert got == expected, (g, s)
                        seen.add(got)
        assert seen == {"ok", "failed the re-check"}  # n <= 8 has no disconnected PDS

    @pytest.mark.parametrize("n", [14, 16, 50, 1000, 10**4])
    def test_matches_graph_recheck_on_random_instances(self, n):
        rng = random.Random(n)
        for seed in range(3):
            g = random_cubic_cycle(n, seed=seed)
            sets = [solve_hamiltonian_cubic(g).pds]
            sets += [VertexSet(n, rng.getrandbits(n)) for _ in range(3)]
            cases = [(g, s) for s in sets if 2 <= len(s) < n]
            cases.append(arc_union_case(n, [(rng.randrange(n), n // 5) for _ in range(3)], seed, "runs"))
            for inst, s in cases:
                got, expected = _recheck_outcomes(inst, s)
                assert got == expected, (n, seed, s)

    def test_matches_graph_recheck_past_255_runs(self):
        # 300 runs of four vertices, one every six: the run labels pass 255
        n, arcs = 1800, [(6 * i + 3, 4) for i in range(300)]
        seen = set()
        for seed, pairing in enumerate(("set", "set", "random")):
            g, s = arc_union_case(n, arcs, seed, pairing)
            assert _runs(s) == 300
            got, expected = _recheck_outcomes(g, s)
            assert got == expected, (seed, pairing)
            seen.add(got)
        assert "ok" in seen
        # each run's chords stay inside it: a PDS whose 300 runs never meet
        chord = [0] * n
        for a in range(0, n, 6):
            chord[a : a + 4] = a + 2, a + 3, a, a + 1
        for a in range(0, n, 12):  # the gap vertices a+4, a+5 and a+10, a+11
            chord[a + 4], chord[a + 5], chord[a + 10], chord[a + 11] = a + 10, a + 11, a + 4, a + 5
        s = VertexSet.from_ids(n, [v for v in range(n) if v % 6 < 4])
        got, expected = _recheck_outcomes(CubicCycleGraph(n, chord), s)
        assert got == expected == "is not connected"

    def test_matches_graph_recheck_with_blocks_that_hold_no_member(self):
        # the chord lane is gathered only in the CODE_BLOCK-vertex blocks
        # that hold a member; here blocks 0, 2 and 4 hold none
        block = cubic.CODE_BLOCK
        n = 5 * block
        seen = set()
        for seed in range(2):
            rng = random.Random(seed)
            # runs of even length: under "runs" pairing no chord joins them
            arcs = [(lo + rng.randrange(block // 2), 2 * rng.randint(1, block // 4))
                    for lo in (block, 3 * block)]
            cases = [arc_union_case(n, arcs, seed, pairing) for pairing in ("random", "set", "runs")]
            # scattered members in blocks 1 and 3, most with no neighbour inside
            scattered = rng.getrandbits(block) << block | rng.getrandbits(block) << 3 * block
            cases.append((cases[0][0], VertexSet(n, scattered)))
            for g, s in cases:
                flags = s.flags()
                assert not any(1 in flags[lo : lo + block] for lo in (0, 2 * block, 4 * block))
                got, expected = _recheck_outcomes(g, s)
                assert got == expected, seed
                seen.add(got)
        assert seen == {"ok", "failed the re-check", "is not connected"}

    def test_arc_unions_cover_every_case(self):
        """The sets the property below draws: several runs joined only by
        chords, disconnected PDSs, and both with a run through n-1 and 0."""
        rng = random.Random(0)
        cases = set()
        for seed in range(400):
            n = 2 * rng.randint(3, 150)
            arcs = [(rng.randrange(n), rng.randint(1, n // 3)) for _ in range(rng.randint(1, 5))]
            g, s = arc_union_case(n, arcs, seed, rng.choice(("random", "set", "runs")))
            if not 2 <= len(s) < n:
                continue
            got, expected = _recheck_outcomes(g, s)
            assert got == expected, (g, s)
            if _runs(s) > 1:
                cases.add({"ok": "joined by chords", "is not connected": "disconnected"}.get(got))
                if 0 in s and n - 1 in s:
                    cases.add(f"wraps, {got}")
        assert {"joined by chords", "disconnected", "wraps, ok", "wraps, is not connected"} <= cases


@given(cubic_arc_unions())
@settings(max_examples=200, deadline=None)
def test_bulk_recheck_property(case):
    got, expected = _recheck_outcomes(*case)
    assert got == expected, case


def _oracle(graph, s):
    """check_pds and induced_connected on the instance's Graph, as the
    outcome strings of _recheck_outcomes."""
    if not check_pds(graph, s).holds:
        return "failed the re-check"
    return "ok" if induced_connected(graph, s) else "is not connected"


def _near(s, rng):
    """Sets next to s, where the chords of a run's ends decide: s shifted
    one step along the cycle, s less a run's first or last vertex or a
    random member, s plus the vertex after a run; then a random set and a
    random arc."""
    n, ids = s.n, s.members()
    firsts = [v for v in ids if (v - 1) % n not in s]
    lasts = [v for v in ids if (v + 1) % n not in s]
    yield VertexSet(n, (s.mask << 1 | s.mask >> n - 1) & ((1 << n) - 1))
    for v in (rng.choice(firsts), rng.choice(lasts), rng.choice(ids)):
        yield VertexSet(n, s.mask & ~(1 << v))
    yield VertexSet(n, s.mask | 1 << (rng.choice(lasts) + 1) % n)
    yield VertexSet(n, rng.getrandbits(n))
    yield VertexSet(n, _arc(n, rng.randrange(n), rng.randint(2, n - 1)))


class TestRecheckAgainstOracle:
    """cubic._recheck raises exactly when check_pds fails on the instance's
    Graph or the set is not connected.  A one-run set has only its members
    whose chord decides their verdict gathered, so the answers of random
    instances (one run, a full arc) and of no-full-arc ones (two runs), and
    the sets next to them, are each held to the oracle.  Every set at
    n <= 8 is in TestBulkRecheck."""

    NO_ARC = {10: [jump(10, 3)], 14: [jump(14, 3), jump(14, 5)], 16: [jump(16, 3), jump(16, 5)],
              1000: [jump(1000, 3)], 1004: [paired(1004, 3, 5)],
              5 * cubic.CODE_BLOCK: [jump(5 * cubic.CODE_BLOCK, 3)]}

    @pytest.mark.parametrize("n", [10, 12, 14, 16, 1000, 1004, 5 * cubic.CODE_BLOCK])
    def test_answers_and_the_sets_next_to_them(self, n):
        rng = random.Random(n)
        no_arc = [rotated(g, t) for g in self.NO_ARC.get(n, []) for t in (0, 1)]
        rounds = 4 if n < cubic.CODE_BLOCK else 1  # one past a block, for time: its ends lie blocks apart
        seen = Counter()
        for g in [random_cubic_cycle(n, seed=seed) for seed in range(min(rounds, 3))] + no_arc:
            answer = solve_hamiltonian_cubic(g).pds
            assert _runs(answer) == (2 if g in no_arc else 1)
            graph = to_graph(g)
            for s in [answer] + [t for _ in range(rounds) for t in _near(answer, rng)]:
                if 2 <= len(s) < n:
                    got = _outcome(_recheck, g, s) or "ok"
                    expected = _oracle(graph, s)
                    assert got.removeprefix("answer ") == expected, (g, s)
                    seen[expected] += 1
        assert {"ok", "failed the re-check"} <= seen.keys(), seen


def _outcome(f, *args):
    try:
        return f(*args)
    except VerificationFailed as exc:
        return str(exc)


def _bulk_against_loops(g):
    """Compare the code string, the arc start, the pattern and the answer
    with the per-vertex oracles; returns (pattern, rotation) when g has no
    full arc, "arc" when it has one."""
    n = g.n
    tags = classify_chords_loop(g)
    codes = g.codes
    assert codes == bytes(map(_TAGS.index, tags)), g
    start = find_full_arc(g)
    assert start == full_arc_start_loop(g), g
    if start is not None:
        return "arc"
    got = _outcome(_pattern, codes)
    assert got == _outcome(pattern_loop, tags, n), g
    if n >= 10:
        assert solve_hamiltonian_cubic(g).pds == no_arc_answer_ids(g), g
    return got


class TestSolveOracles:
    """The code string, the bulk arc search, the bytes pattern test, the
    answer masks and the arithmetic arc set against the per-vertex oracles
    in cubic_reference.py."""

    def test_tags_on_every_small_table(self):
        seen = set()
        for n in (4, 6, 8, 10, 12):
            for g in all_cubic_cycles(n):
                assert classify_chords(g) == classify_chords_loop(g), g
                seen.add(_bulk_against_loops(g))
        assert {(ALTERNATING, 0), (ALTERNATING, 1), (PAIRED, 0), (PAIRED, 1)} <= seen

    def test_tags_on_random_tables(self):
        rng = random.Random(0)
        for seed in range(200):
            n = 2 * int(2 ** rng.uniform(1, 12.29))  # log-uniform, 4 <= n <= 10^4
            g = random_cubic_cycle(n, seed=seed)
            assert classify_chords(g) == classify_chords_loop(g), (n, seed)
            _bulk_against_loops(g)

    def test_jump_families(self):
        """Every odd jump d <= k, both rotations.  The tags alternate, so a
        full arc exists iff k is even (u and u-k-1 of opposite parity)."""
        sizes = [*range(10, 62, 2), 998, 1000]
        cases = [(n, d) for n in sizes for d in range(3, (n + 1) // 3 + 1, 2)]
        for n in (9998, 10**4):
            cases += [(n, d) for d in (3, 5, 7, 1001, 3331, 3333) if d <= (n + 1) // 3]
        for n, d in cases:
            for t in (0, 1):
                expected = "arc" if (n + 1) // 3 % 2 == 0 else (ALTERNATING, t)
                assert _bulk_against_loops(rotated(jump(n, d), t)) == expected, (n, d)

    def test_paired_families(self):
        """AHEAD, AHEAD, BACK, BACK at every rotation, for n = 8 (mod 12),
        where k = 3 (mod 4) leaves no full arc."""
        cases = []
        for n in range(20, 141, 12):
            k = (n + 1) // 3
            cases += [(n, a, b) for a in range(3, k + 1, 4) for b in range(5, k + 1, 4)]
        rng = random.Random(5)
        for n in (1004, 9992):
            k = (n + 1) // 3
            cases += [(n, 3, 5), (n, k, k - 2)]
            cases += [(n, 4 * rng.randrange(k // 4) + 3, 4 * rng.randrange(1, k // 4) + 1) for _ in range(3)]
        for n, a, b in cases:
            for t in range(4):
                assert _bulk_against_loops(rotated(paired(n, a, b), t)) == (PAIRED, t), (n, a, b)

    def test_no_full_arc_answer_is_a_mask(self, monkeypatch):
        """No-full-arc answers are an arc less one vertex, never a member list."""

        def no_ids(*args):
            raise AssertionError("the answer must not be built from a member list")

        monkeypatch.setattr(VertexSet, "from_ids", no_ids)
        for g in (jump(10**4, 3), rotated(jump(10**4, 5), 1), paired(9992, 7, 9), rotated(paired(1004, 3, 5), 2)):
            assert len(solve_hamiltonian_cubic(g).pds) == max_pds_size_cubic(g.n)

    def test_every_arc_set(self):
        for n in (6, 8, 10, 14):
            for start in range(n):
                for size in range(n + 1):  # start + size > n wraps past n - 1
                    got = VertexSet(n, _arc(n, start, size))
                    assert got == arc_vertex_set_ids(n, start, size), (n, start, size)
                    assert got.size == got.mask.bit_count() == size, (n, start, size)


def _matchings(n, sources, targets):
    """Every chord matching on the n-cycle that joins each source vertex to
    one of targets(v), where the sources' targets are the other vertices."""
    chord = [-1] * n

    def rec(i):
        if i == len(sources):
            yield CubicCycleGraph(n, chord)
            return
        v = sources[i]
        for c in targets(v):
            if chord[c] < 0:
                chord[v], chord[c] = c, v
                yield from rec(i + 1)
                chord[c] = -1

    yield from rec(0)


class TestNoFullArcBranches:
    """Each no-full-arc rule on whole families of instances, every answer
    checked on the general Graph.  The answer is the arc of n - k + 1
    vertices from start in rotated labels, less the one vertex out."""

    def _outs(self, instances, start):
        outs = Counter()
        for g in instances:
            n, k = g.n, g.window
            assert find_full_arc(g) is None, g
            s = solve_hamiltonian_cubic(g).pds
            h = to_graph(g)
            assert len(s) == max_pds_size_cubic(n), g
            assert check_pds(h, s).holds and induced_connected(h, s), g
            r = _pattern(g.codes)[1]
            arc = {(start + r + i) % n for i in range(n - k + 1)}
            (out,) = arc - set(s.members())
            assert set(s.members()) < arc, g
            outs[(out - r) % n] += 1
        return outs

    @pytest.mark.parametrize("n, count", [(20, 125), (22, 201)])
    def test_alternating_rule(self, n, count):
        # each even vertex's chord jumps an odd d, 3 <= d <= k, ahead
        k = (n + 1) // 3
        instances = list(_matchings(n, range(0, n, 2), lambda v: [(v + d) % n for d in range(3, k + 1, 2)]))
        outs = self._outs(instances, 0)
        assert len(instances) == count and set(outs) == {3, n - k - 3, k - 2}

    def test_paired_rule(self):
        # vertices 4i and 4i + 1 chord 2 to k steps ahead, to a vertex = 2 or 3 (mod 4)
        n, k = 20, 7
        sources = [v for v in range(n) if v % 4 < 2]
        instances = list(_matchings(n, sources, lambda v: [(v + d) % n for d in range(2, k + 1) if (v + d) % 4 > 1]))
        outs = self._outs(instances, 1)
        assert len(instances) == 276 and set(outs) == {k - 2, k - 1}

    def test_n14(self):
        # the four matchings at n = 14 that have no full arc
        instances = [rotated(jump(14, d), t) for d in (3, 5) for t in (0, 1)]
        assert self._outs(instances, 0) == {6: 2, 4: 2}


class TestLeanNeighbourTable:
    """The re-check reads only n and chord: nothing is kept on the
    instance, before, during or after a re-check."""

    def test_recheck_reads_only_n_and_chord(self):
        g = random_cubic_cycle(10**4, seed=11)
        bare = SimpleNamespace(n=g.n, chord=g.chord)
        _recheck(bare, solve_hamiltonian_cubic(g).pds)
        with pytest.raises(VerificationFailed, match="^answer failed the re-check$"):
            _recheck(bare, VertexSet.from_ids(g.n, range(0, g.n, 2)))

    def test_verified_solve_frees_the_table_it_built(self):
        g = random_cubic_cycle(10**4, seed=12)
        out = solve_hamiltonian_cubic(g)
        assert len(out.pds) == max_pds_size_cubic(g.n)
        assert vars(g).keys() == {"n", "chord", "codes"}
        assert len(g.codes) == g.n

    def test_failed_recheck_frees_the_table(self):
        g = CubicCycleGraph(6, PRISM6_CHORDS)
        with pytest.raises(VerificationFailed):
            _finish(g, VertexSet.from_ids(6, [0, 1, 2, 4]))
        assert vars(g).keys() == {"n", "chord", "codes"}
        assert len(g.codes) == g.n

    def test_verified_peak_is_the_lean_table(self):
        # a cached neighbour table peaked at 7.8 MiB and the tag tuples
        # 4.7 MiB; now the re-check's byte lanes set the peak, about 1.0
        assert _verified_peak(10**5) < 2 * 2**20


def _involutions(n):
    """Every chord table that is a perfect matching on range(n), loops
    allowed (v paired with itself)."""
    chord = [-1] * n

    def rec():
        if -1 not in chord:
            yield tuple(chord)
            return
        u = chord.index(-1)
        for v in range(u, n):
            if chord[v] < 0:
                chord[u], chord[v] = v, u
                yield from rec()
                chord[u] = chord[v] = -1

    yield from rec()


class TestCodeString:
    """The constructor's validation pass builds the code string the solver
    reads: one _tag_table build per instance, none per solve."""

    @pytest.mark.parametrize("make", [lambda: random_cubic_cycle(1000, seed=3), lambda: jump(1000, 3)])
    def test_built_once_and_never_by_a_solve(self, monkeypatch, make):
        chord = make().chord
        calls = []

        def counted(n):
            calls.append(n)
            return _tag_table(n)

        monkeypatch.setattr(cubic, "_tag_table", counted)
        g = CubicCycleGraph(1000, chord)
        assert calls == [1000]
        for _ in range(2):
            assert len(solve_hamiltonian_cubic(g).pds) == max_pds_size_cubic(1000)
        assert classify_chords(g) == classify_chords_loop(g)
        assert calls == [1000]
        assert type(g.codes) is bytes
        with pytest.raises(AttributeError):
            g.codes = b""

    @pytest.mark.parametrize(
        "n, chord, message",
        [
            (4, (0, 3, 2, 1), "chord (0, 0) repeats a cycle edge"),  # loop
            (6, (3, 5, 2, 0, 4, 1), "chord (2, 2) repeats a cycle edge"),  # loops at 2 and 4
            (4, (1, 0, 3, 2), "chord (0, 1) repeats a cycle edge"),  # +1
            (8, (4, 5, 3, 2, 0, 1, 7, 6), "chord (2, 3) repeats a cycle edge"),  # -1 at 3
            (6, (5, 3, 4, 1, 2, 0), "chord (5, 0) repeats a cycle edge"),  # wrap (n-1, 0)
            (8, (7, 5, 6, 4, 3, 1, 2, 0), "chord (3, 4) repeats a cycle edge"),  # before the wrap 7-0
            (6, (3, 4, 5, 0, 1, 3), "chord (2, 5) is out of range or not matched"),
            (4, (4, 3, 2, 1), "chord (0, 4) is out of range or not matched"),
        ],
    )
    def test_constructor_messages(self, n, chord, message):
        with pytest.raises(InvalidGraph) as info:
            CubicCycleGraph(n, chord)
        assert str(info.value) == message

    def test_cycle_edge_message_names_the_first_vertex(self):
        # every matching with a loop or cycle-edge chord names the first v
        # with chord[v] - v in (0, 1, 1 - n)
        for n in (4, 6, 8, 10):
            for chord in _involutions(n):
                bad = [v for v, c in enumerate(chord) if c - v in (0, 1, 1 - n)]
                if not bad:
                    assert tuple(CubicCycleGraph(n, chord).chord) == chord
                    continue
                v = bad[0]
                with pytest.raises(InvalidGraph) as info:
                    CubicCycleGraph(n, chord)
                assert str(info.value) == f"chord ({v}, {chord[v]}) repeats a cycle edge"


class TestSelfChecks:
    """Solver self-checks raise package errors, which python -O keeps."""

    def _refuse_every_chord_map(self, monkeypatch, g):
        assert solve_hamiltonian_cubic(g).pds is not None
        monkeypatch.setattr(cubic, "_jumps", lambda cr, n, j: False)
        with pytest.raises(VerificationFailed, match=f"^impossible chord map at n={g.n}$"):
            solve_hamiltonian_cubic(g)

    def test_wrong_n10_table(self, monkeypatch):
        self._refuse_every_chord_map(monkeypatch, CubicCycleGraph(10, N10_FORCED))

    def test_wrong_n16_table(self, monkeypatch):
        self._refuse_every_chord_map(monkeypatch, jump(16, 3))

    def test_leaky_arc(self):
        # the prism's chord 0-3 leaves the arc {0, 1}
        with pytest.raises(VerificationFailed, match="leak"):
            _assert_sealed(CubicCycleGraph(6, PRISM6_CHORDS), 0, 2)

    def test_survives_optimize_flag(self):
        script = (
            "from pdskit import CubicCycleGraph, cubic, solve_hamiltonian_cubic\n"
            "from pdskit.errors import VerificationFailed\n"
            "assert False  # stripped under -O\n"
            "cubic._jumps = lambda cr, n, j: False\n"
            f"g = CubicCycleGraph(10, {N10_FORCED!r})\n"
            "try:\n"
            "    solve_hamiltonian_cubic(g)\n"
            "except VerificationFailed:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cubic.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, env=env
        )
        assert proc.returncode == 0, proc.stderr.decode()


class TestGenerators:
    def test_random_is_deterministic(self):
        assert random_cubic_cycle(20, seed=9) == random_cubic_cycle(20, seed=9)

    def test_random_varies_with_seed(self):
        seen = {tuple(random_cubic_cycle(8, seed=s).chord) for s in range(40)}
        assert len(seen) > 5

    def test_random_checks_the_vertex_limit_first(self, monkeypatch):
        monkeypatch.setattr(cubic, "MAX_VERTICES", 1000)
        with pytest.raises(InvalidGraph, match="^n=1002 is above the limit of 1000 vertices$"):
            random_cubic_cycle(1002)
        with pytest.raises(InvalidGraph, match="^n=1001 is above the limit"):
            random_cubic_cycle(1001)  # before the even-n check

    def test_random_rejects_bad_n(self):
        with pytest.raises(InvalidArgument, match="need even n >= 4, got 7"):
            random_cubic_cycle(7)
        with pytest.raises(InvalidArgument, match="need even n >= 4, got 2"):
            random_cubic_cycle(2)

    def test_enumeration_counts(self):
        assert sum(1 for _ in all_cubic_cycles(4)) == 1
        assert sum(1 for _ in all_cubic_cycles(6)) == 4
        assert sum(1 for _ in all_cubic_cycles(8)) == 31

    def test_enumeration_is_lexicographic_and_unique(self):
        seen = [tuple(g.chord) for g in all_cubic_cycles(8)]
        assert seen == sorted(set(seen))


class TestSerialisation:
    def test_roundtrip(self):
        g = random_cubic_cycle(14, seed=2)
        assert parse_cubic(emit_cubic(g)) == g

    def test_parse_errors(self):
        for text in ("", "4\n", "4\n0 2\n", "4\n0 2\n1 1\n", "4\n0 2\n1 9\n", "x\n"):
            with pytest.raises(ParseError):
                parse_cubic(text)

    def test_comments_ignored(self):
        g = parse_cubic("# cycle plus chords\n4\n0 2\n# middle\n1 3\n")
        assert tuple(g.chord) == K4_CHORDS


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_solver_property(half_n, seed):
    g = random_cubic_cycle(2 * half_n, seed=seed)
    out = solve_hamiltonian_cubic(g)  # the solve re-checks its answer
    if out.exceptional is not None:
        assert g.n == 8
    else:
        assert len(out.pds) == max_pds_size_cubic(g.n)
