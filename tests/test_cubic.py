import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdskit import (
    CubicCycleGraph,
    Graph,
    InvalidArgument,
    InvalidGraph,
    InvalidInstance,
    ParseError,
    UnclassifiedChords,
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
    AHEAD,
    ALTERNATING,
    BACK,
    PAIRED,
    Arc,
    _assert_sealed,
    _finish,
    _pattern,
    classify_chords,
    find_full_arc,
)
from pdskit.pds import recheck

from .cubic_reference import arc_vertex_set_ids, classify_chords_loop, to_graph

K4_CHORDS = (2, 3, 0, 1)
PRISM6_CHORDS = (3, 4, 5, 0, 1, 2)
# the forced alternating chord map at n=10 (chords jump +3 from evens)
N10_FORCED = (3, 8, 5, 0, 7, 2, 9, 4, 1, 6)


def jump(n, d):
    """Every even vertex's chord jumps d ahead.  For odd d <= (n+1)//3 the
    tags alternate, so there is no full arc."""
    chord = [(v + d if v % 2 == 0 else v - d) % n for v in range(n)]
    return CubicCycleGraph(n, tuple(chord))


def _verified_peak(n):
    """tracemalloc peak of one verified solve of a fresh random instance."""
    g = random_cubic_cycle(n, seed=0)
    tracemalloc.start()
    try:
        out = solve_hamiltonian_cubic(g, verify=True)
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
        with pytest.raises(InvalidInstance):
            CubicCycleGraph(5, (2, 3, 0, 1, 4))  # odd n
        with pytest.raises(InvalidInstance):
            CubicCycleGraph(4, (2, 3, 0))  # wrong length
        with pytest.raises(InvalidInstance):
            CubicCycleGraph(4, (0, 3, 2, 1))  # self-chord
        with pytest.raises(InvalidInstance):
            CubicCycleGraph(4, (1, 0, 3, 2))  # chord duplicates a cycle edge
        with pytest.raises(InvalidInstance):
            CubicCycleGraph(6, (5, 3, 4, 1, 2, 0))  # chord 0-5 duplicates the wrap edge
        with pytest.raises(InvalidInstance):
            CubicCycleGraph(6, (3, 4, 5, 0, 1, 3))  # not an involution

    def test_chord_is_stored_as_a_tuple(self):
        for table in ([2, 3, 0, 1], array("q", [2, 3, 0, 1]), K4_CHORDS):
            g = CubicCycleGraph(4, table)
            assert type(g.chord) is tuple and g.chord == K4_CHORDS
            assert g == CubicCycleGraph(4, K4_CHORDS)
        assert type(parse_cubic("4\n0 2\n1 3\n").chord) is tuple

    def test_rejects_entries_past_64_bits(self):
        with pytest.raises(InvalidInstance, match=r"^chord \(0, 2361"):
            CubicCycleGraph(4, (2**71, 3, 0, 1))

    def test_fixture_chords_match_graphs(self):
        for name in ("exc8_paired", "exc8_alternating", "prism6", "k4"):
            rec = fixture(name)
            assert to_graph(CubicCycleGraph(rec.graph.n, rec.chords)) == rec.graph

    def test_adj_k4_wraps(self):
        g = CubicCycleGraph(4, K4_CHORDS)
        assert tuple(g.adj[v] for v in range(4)) == ((3, 1, 2), (0, 2, 3), (1, 3, 0), (2, 0, 1))
        assert g.deg == (3, 3, 3, 3)

    @staticmethod
    def _assert_adj_matches_graph(inst):
        graph = to_graph(inst)
        assert inst.deg == graph.deg
        for v in range(inst.n):
            assert sorted(inst.adj[v]) == list(graph.adj[v]), (inst, v)

    def test_adj_matches_to_graph_exhaustive(self):
        for n in (4, 6, 8, 10, 12):
            for inst in all_cubic_cycles(n):
                self._assert_adj_matches_graph(inst)

    @pytest.mark.parametrize("n", [14, 16, 50, 1000, 10**4])
    def test_adj_matches_to_graph_random(self, n):
        for seed in range(3):
            self._assert_adj_matches_graph(random_cubic_cycle(n, seed=seed))


class TestArc:
    def test_wraparound_membership(self):
        arc = Arc(8, 6, 4)
        assert arc.vertex_set().members() == [0, 1, 6, 7]
        assert 7 in arc and 0 in arc and 2 not in arc and 5 not in arc
        assert arc.end == 1

    def test_vertex_set(self):
        assert Arc(6, 4, 3).vertex_set() == VertexSet.from_ids(6, [4, 5, 0])


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
        assert _pattern((AHEAD, BACK) * 5, 10) == (ALTERNATING, 0)
        assert _pattern((BACK, AHEAD) * 5, 10) == (ALTERNATING, 1)
        assert _pattern((AHEAD, AHEAD, BACK, BACK) * 2, 8) == (PAIRED, 0)
        assert _pattern((BACK, AHEAD, AHEAD, BACK) * 2, 8) == (PAIRED, 1)

    def test_pattern_rejects_untagged_or_garbage(self):
        with pytest.raises(UnclassifiedChords):
            _pattern((AHEAD, None, BACK, BACK), 4)
        with pytest.raises(UnclassifiedChords):
            _pattern((AHEAD, AHEAD, AHEAD, BACK, BACK, BACK), 6)


class TestArcs:
    def test_prism_has_full_arc(self):
        arc = find_full_arc(CubicCycleGraph(6, PRISM6_CHORDS))
        assert arc is not None and arc.size == 4

    def test_exceptional8_has_none(self):
        assert find_full_arc(paired8()) is None
        assert find_full_arc(alternating8()) is None

    def test_full_arc_too_small(self):
        with pytest.raises(InvalidArgument, match="arcs need n >= 6"):
            find_full_arc(CubicCycleGraph(4, K4_CHORDS))


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

    def test_no_verify_matches_verified(self):
        g = random_cubic_cycle(30, seed=5)
        a = solve_hamiltonian_cubic(g, verify=True)
        b = solve_hamiltonian_cubic(g, verify=False)
        assert a.pds == b.pds


class TestVerification:
    def test_finish_rejects_wrong_size(self, monkeypatch):
        g = CubicCycleGraph(6, PRISM6_CHORDS)

        def no_recheck(*args, **kwargs):
            raise AssertionError("size check must run before the re-check")

        monkeypatch.setattr(cubic, "recheck", no_recheck)
        with pytest.raises(VerificationFailed, match="size 3"):
            _finish(g, VertexSet.from_ids(6, [0, 1, 2]), True)

    def test_finish_rejects_non_pds(self):
        g = CubicCycleGraph(6, PRISM6_CHORDS)
        with pytest.raises(VerificationFailed):
            _finish(g, VertexSet.from_ids(6, [0, 1, 2, 4]), True)

    def test_finish_skips_checks_when_off(self):
        g = CubicCycleGraph(6, PRISM6_CHORDS)
        out = _finish(g, VertexSet.from_ids(6, [0, 1, 2]), False)
        assert out.pds is not None  # caller asked for no re-check

    def test_finish_agrees_with_graph_recheck(self):
        """_finish on the instance's own rows raises exactly when the
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
                        _finish(inst, s, True)
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
        assert check_pds(g, s).holds
        with pytest.raises(VerificationFailed, match="not connected"):
            _finish(g, s, True)

    def test_verified_solve_never_builds_a_graph(self, monkeypatch):
        def no_build(self, *args):
            raise AssertionError("the verified path must not build a Graph")

        monkeypatch.setattr(Graph, "__init__", no_build)
        # K4, then the n=10 forced map, n=14 and both n=16 tables
        insts = [CubicCycleGraph(4, K4_CHORDS), jump(10, 3), jump(14, 3)]
        insts += [jump(16, 3), jump(16, 5), random_cubic_cycle(10**4, seed=3)]
        assert [find_full_arc(g) for g in insts[1:5]] == [None] * 4
        for inst in insts:
            out = solve_hamiltonian_cubic(inst, verify=True)
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
        # lists) peaks near 48 MB at n=10^5; the row view near 5 MB
        assert _verified_peak(10**5) < 25 * 2**20


class TestSolveOracles:
    """The C-level tagging and the arithmetic arc set against the
    per-vertex oracles in cubic_reference.py."""

    def test_tags_on_every_small_table(self):
        for n in (4, 6, 8, 10, 12):
            for g in all_cubic_cycles(n):
                assert classify_chords(g) == classify_chords_loop(g), g

    def test_tags_on_random_tables(self):
        rng = random.Random(0)
        for seed in range(200):
            n = 2 * int(2 ** rng.uniform(1, 12.29))  # log-uniform, 4 <= n <= 10^4
            g = random_cubic_cycle(n, seed=seed)
            assert classify_chords(g) == classify_chords_loop(g), (n, seed)

    def test_every_arc_set(self):
        for n in (6, 8, 10, 14):
            for start in range(n):
                for size in range(n + 1):  # start + size > n wraps past n - 1
                    arc = Arc(n, start, size)
                    got = arc.vertex_set()
                    assert got == arc_vertex_set_ids(arc), arc
                    assert got.size == got.mask.bit_count() == size, arc


class TestLeanNeighbourTable:
    """The re-check reads rows made on demand from n and chord: no table
    is kept on the instance, before, during or after a re-check."""

    def test_rows_are_made_from_n_and_chord(self):
        g = random_cubic_cycle(10**4, seed=11)
        n, chord, adj = g.n, g.chord, g.adj
        assert isinstance(vars(CubicCycleGraph)["adj"], property)
        assert isinstance(vars(CubicCycleGraph)["deg"], property)
        for v in range(n):
            row = adj[v]
            assert row == ((v - 1) % n, (v + 1) % n, chord[v]), v
            assert row[2] is chord[v], v
        assert adj[0][0] == n - 1 and adj[n - 1][1] == 0
        assert g.deg == (3,) * n

    def test_verified_solve_frees_the_table_it_built(self):
        g = random_cubic_cycle(10**4, seed=12)
        assert g.adj[0][2] == g.chord[0] and len(g.deg) == g.n  # reads store nothing
        out = solve_hamiltonian_cubic(g, verify=True)
        assert len(out.pds) == max_pds_size_cubic(g.n)
        assert vars(g).keys() == {"n", "chord"}

    def test_failed_recheck_frees_the_table(self):
        g = CubicCycleGraph(6, PRISM6_CHORDS)
        with pytest.raises(VerificationFailed):
            _finish(g, VertexSet.from_ids(6, [0, 1, 2, 4]), True)
        assert vars(g).keys() == {"n", "chord"}

    def test_verified_peak_is_the_lean_table(self):
        # a cached neighbour table peaked at 7.8 MiB, the row view about 4.7
        assert _verified_peak(10**5) < 6 * 2**20


class TestSelfChecks:
    """Solver self-checks raise package errors, which python -O keeps."""

    def test_wrong_n10_table(self, monkeypatch):
        g = CubicCycleGraph(10, N10_FORCED)
        assert solve_hamiltonian_cubic(g).pds is not None
        monkeypatch.setattr(cubic, "_TABLE_N10", {0: 5})
        with pytest.raises(UnclassifiedChords, match="n=10"):
            solve_hamiltonian_cubic(g)

    def test_leaky_arc(self):
        # the prism's chord 0-3 leaves the arc {0, 1}
        with pytest.raises(VerificationFailed, match="leak"):
            _assert_sealed(CubicCycleGraph(6, PRISM6_CHORDS), Arc(6, 0, 2))

    def test_survives_optimize_flag(self):
        script = (
            "from pdskit import CubicCycleGraph, cubic, solve_hamiltonian_cubic\n"
            "from pdskit.errors import UnclassifiedChords\n"
            "assert False  # stripped under -O\n"
            "cubic._TABLE_N10 = {0: 5}\n"
            f"g = CubicCycleGraph(10, {N10_FORCED!r})\n"
            "try:\n"
            "    solve_hamiltonian_cubic(g)\n"
            "except UnclassifiedChords:\n"
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
        seen = {random_cubic_cycle(8, seed=s).chord for s in range(40)}
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
        seen = [g.chord for g in all_cubic_cycles(8)]
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
        assert g.chord == K4_CHORDS


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_solver_property(half_n, seed):
    g = random_cubic_cycle(2 * half_n, seed=seed)
    out = solve_hamiltonian_cubic(g)  # verify=True re-checks internally
    if out.exceptional is not None:
        assert g.n == 8
    else:
        assert len(out.pds) == max_pds_size_cubic(g.n)
