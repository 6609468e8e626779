import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdskit import (
    Graph,
    InstanceTooLarge,
    InvalidArgument,
    VertexSet,
    all_connected_graphs,
    approx_ratio_bound,
    check_pds,
    decide_pds_at_least_k,
    half_pds,
    max_pds_exact,
    random_connected,
)
from pdskit import approx
from pdskit.errors import NoPds, VerificationFailed

from .scan_reference import half_pds_scan
from .strategies import graphs

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestHalfPds:
    def test_k4_fixed_point(self):
        # {0,1} already satisfies the density condition, so no move happens
        s, trace = half_pds(K4, init=VertexSet.from_ids(4, [0, 1]))
        assert s == VertexSet.from_ids(4, [0, 1])
        assert trace.iterations == 0
        assert trace.initial == trace.final == s

    def test_default_start_is_prefix(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        _, trace = half_pds(g)
        assert trace.initial == VertexSet.from_ids(5, [0, 1, 2])

    def test_seeded_start_is_deterministic(self):
        g = Graph(7, [(v, (v + 1) % 7) for v in range(7)])
        a = half_pds(g, seed=11)
        b = half_pds(g, seed=11)
        assert a[0] == b[0] and a[1].initial == b[1].initial

    def test_init_size_enforced(self):
        with pytest.raises(InvalidArgument, match="init must have exactly 2 vertices"):
            half_pds(K4, init=VertexSet.from_ids(4, [0, 1, 2]))
        with pytest.raises(InvalidArgument, match="init must have exactly 2 vertices"):
            half_pds(K4, init=VertexSet.from_ids(5, [0, 1]))

    def test_small_and_disconnected_rejected(self):
        with pytest.raises(InvalidArgument, match="at least three vertices"):
            half_pds(Graph(2, [(0, 1)]))
        with pytest.raises(InvalidArgument, match="is disconnected"):
            half_pds(Graph(4, [(0, 1), (2, 3)]))

    def test_exceptional_cubic_caps_at_half(self):
        # the 8-vertex exceptions have no PDS above 4, so the search must
        # come back with exactly ceil(n/2) vertices, never the +1
        from pdskit import fixture

        g = fixture("exc8_paired").graph
        s, _ = half_pds(g)
        assert len(s) == 4 and check_pds(g, s).holds

    def test_trace_is_internally_consistent(self):
        g = Graph(9, [(v, w) for v in range(9) for w in range(v + 1, 9)
                      if (v + w) % 3 != 1])
        s, trace = half_pds(g, seed=3)
        cut = None
        for mv in trace.moves:
            assert mv.cut_after == mv.cut_before - (mv.outside_degree - mv.inside_degree)
            if cut is not None:
                assert mv.cut_before == cut
            cut = mv.cut_after
        assert trace.final == s

    def test_cut_bounds_move_count(self):
        import random

        from pdskit import random_connected

        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(4, 40)
            m = rng.randint(n - 1, n * (n - 1) // 2)
            g = random_connected(n, m, seed=seed)
            _, trace = half_pds(g, seed=seed)
            assert trace.iterations <= 2 * g.m + 1

    def test_moved_vertex_passes_on_its_new_side(self):
        # the heap search counts no new violator for the vertex it moves: u's
        # own-side count after the move, outside_degree, meets the density test
        # for k_new = |new S| - 1, which is n - half after an even number of
        # moves and half - 1 after an odd one
        moves = ties = 0
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(approx.SCAN_CUTOFF + 1, 120)
            m = rng.randint(n - 1, min(n * (n - 1) // 2, 4 * n))
            g = random_connected(n, m, seed=seed)
            _, trace = half_pds(g, seed=seed)
            half = (n + 1) // 2
            for i, mv in enumerate(trace.moves):
                k_new = n - half if i % 2 == 0 else half - 1
                d = mv.inside_degree + mv.outside_degree
                assert mv.outside_degree * (n - 1) >= d * k_new, (seed, i, mv)
                moves += 1
                ties += mv.inside_degree == mv.outside_degree
        # the gain-0 moves are the case the argument treats apart
        assert moves > 4000 and ties > 400

    @given(graphs(min_n=3, max_n=9, connected=True))
    @settings(max_examples=120, deadline=None)
    def test_output_contract(self, g):
        s, trace = half_pds(g)
        half = (g.n + 1) // 2
        assert len(s) in (half, half + 1)
        assert check_pds(g, s).holds


class TestMatchesScanReference:
    """The heap-based search must replay the original scan loop move for move."""

    def test_every_small_start(self):
        runs = 0
        for n in range(3, 8):
            half = (n + 1) // 2
            starts = [VertexSet.from_ids(n, ids) for ids in combinations(range(n), half)]
            for g in all_connected_graphs(n):
                for init in starts:
                    assert half_pds(g, init=init) == half_pds_scan(g, init)
                    runs += 1
        assert runs == 32347

    def test_seeded_random_graphs(self):
        # the 500 graphs and seeded starts of acceptance criterion 4
        for i in range(500):
            rng = random.Random(i)
            n = rng.randint(3, 200)
            m = rng.randint(n - 1, min(n * (n - 1) // 2, 4 * n))
            g = random_connected(n, m, seed=i)
            s, trace = half_pds(g, seed=i)
            assert (s, trace) == half_pds_scan(g, trace.initial)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_init_sparse_to_complete(self, data):
        n = data.draw(st.integers(min_value=3, max_value=60))
        m = data.draw(st.integers(min_value=n - 1, max_value=n * (n - 1) // 2))
        g = random_connected(n, m, seed=data.draw(st.integers(0, 2**32)))
        ids = data.draw(st.permutations(range(n)))[: (n + 1) // 2]
        init = VertexSet.from_ids(n, ids)
        assert half_pds(g, init=init) == half_pds_scan(g, init)


class TestBothPathsAtTheCutoff:
    """The heap path makes the same moves as the scan loop of the reference,
    on both sides of the cutoff, and so does the scan path (n <= SCAN_CUTOFF,
    the width of the member table it reads)."""

    def test_every_n_to_past_the_cutoff(self):
        moved = {}
        for n in range(3, approx.SCAN_CUTOFF + 6):
            half = (n + 1) // 2
            top = n * (n - 1) // 2
            for m in sorted({n - 1, min(n + n // 4, top), min(3 * n, top), top * 2 // 3, top}):
                for i in range(4):
                    seed = 1000 * n + 10 * m + i
                    g = random_connected(n, m, seed=seed)
                    rng = random.Random(seed)
                    for _ in range(6):
                        init = VertexSet.from_ids(n, rng.sample(range(n), half))
                        s, trace = half_pds(g, init=init)
                        assert (s, trace) == half_pds_scan(g, init)
                        heap = approx._heap_search(g, init, half)
                        assert heap == (trace.final.mask, list(trace.moves))
                        if n <= approx.SCAN_CUTOFF:
                            assert approx._scan_search(g, init, half) == heap
                        moved[n] = moved.get(n, 0) + bool(trace.moves)
        # every size, the last scan one and the first heap one among them, moved
        assert sorted(moved) == list(range(3, approx.SCAN_CUTOFF + 6))
        assert all(moved.values())


class TestSelfChecks:
    """Solver self-checks raise VerificationFailed, which python -O keeps."""

    # the path 3-1-0-2-4 from {0, 1, 4} needs two moves, picking 4 then 3;
    # the path 0-1-...-12 is above SCAN_CUTOFF, so it takes the heap path,
    # from its even vertices in five moves
    P5 = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
    P5_INIT = VertexSet.from_ids(5, [0, 1, 4])
    P13 = Graph(13, [(v, v + 1) for v in range(12)])
    P13_INIT = VertexSet.from_ids(13, range(0, 13, 2))
    CASES = ((P5, P5_INIT, [4, 3]), (P13, P13_INIT, [2, 5, 8, 11, 0]))

    def test_move_bound(self):
        assert self.P5.n <= approx.SCAN_CUTOFF < self.P13.n
        for g, init, picks in self.CASES:
            _, trace = half_pds(g, init=init)
            assert [mv.vertex for mv in trace.moves] == picks
            # a graph that under-reports its edges allows at most 2*0+1 moves
            liar = Graph(g.n, g.edges)
            object.__setattr__(liar, "m", 0)
            with pytest.raises(VerificationFailed, match="move bound"):
                half_pds(liar, init=init)

    def test_final_size(self, monkeypatch):
        monkeypatch.setattr(approx, "VertexSet", lambda n, mask: VertexSet(n, 0))
        for g, init, _ in self.CASES:
            with pytest.raises(VerificationFailed, match="returned 0 vertices"):
                half_pds(g, init=init)

    def test_decide_small_answer(self, monkeypatch):
        monkeypatch.setattr(
            approx, "half_pds", lambda g: (VertexSet.from_ids(g.n, [0]), None)
        )
        with pytest.raises(VerificationFailed, match="below k=2"):
            decide_pds_at_least_k(self.P5, 2)

    def test_survives_optimize_flag(self):
        script = (
            "from pdskit import Graph, VertexSet, approx, decide_pds_at_least_k\n"
            "from pdskit.errors import VerificationFailed\n"
            "assert False  # stripped under -O\n"
            "approx.half_pds = lambda g: (VertexSet.from_ids(g.n, [0]), None)\n"
            "try:\n"
            "    decide_pds_at_least_k(Graph(3, [(0, 1), (1, 2)]), 2)\n"
            "except VerificationFailed:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(approx.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, env=env
        )
        assert proc.returncode == 0, proc.stderr.decode()


class TestRatioBound:
    def test_values(self):
        assert approx_ratio_bound(K4) == Fraction(3, 2)
        star = Graph(6, [(0, v) for v in range(1, 6)])
        assert approx_ratio_bound(star) == Fraction(5, 3)

    def test_star_is_tight(self):
        # optimum n-1 versus guaranteed ceil(n/2): the bound is met exactly
        star = Graph(8, [(0, v) for v in range(1, 8)])
        opt = max_pds_exact(star).size
        s, _ = half_pds(star)
        assert Fraction(opt, len(s)) == approx_ratio_bound(star)


class TestDecide:
    def test_small_k_always_true(self):
        g = Graph(6, [(v, (v + 1) % 6) for v in range(6)])
        assert decide_pds_at_least_k(g, 2)
        assert decide_pds_at_least_k(g, 3)

    def test_large_k_matches_exact(self):
        for n in range(3, 7):
            for g in all_connected_graphs(n):
                try:
                    opt = max_pds_exact(g).size
                except NoPds:
                    opt = 1
                for k in range(2, g.n):
                    assert decide_pds_at_least_k(g, k) == (opt >= k)

    def test_k_range_enforced(self):
        with pytest.raises(InvalidArgument, match="need 2 <= k < n, got k=1"):
            decide_pds_at_least_k(K4, 1)
        with pytest.raises(InvalidArgument, match="need 2 <= k < n, got k=4"):
            decide_pds_at_least_k(K4, 4)

    def test_cap_applies_only_beyond_half(self):
        g = Graph(7, [(v, (v + 1) % 7) for v in range(7)])
        assert decide_pds_at_least_k(g, 3, cap=5)  # local search, no cap needed
        with pytest.raises(InstanceTooLarge):
            decide_pds_at_least_k(g, 5, cap=5)
