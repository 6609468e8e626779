"""Spans and counts recorded around the calls into each pdskit module.

The tracer patches module attributes at the places the package looks
them up, so the program itself is unchanged.  Spans are kept in memory
as (name, start, end, parent, op) and written out after the pass; a
span's self time is its duration minus the durations of its direct
children (one thread, so children never overlap).
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

# layer metric name -> span names whose self time it sums
TIMES = {
    "graph.parse_s": "graph.parse",
    "graph.build_s": "graph.build",
    "graph.connected_s": "graph.connected",
    "pds.check_s": "pds.check",
    "cubic.solve_s": "cubic.solve",
    "approx.search_s": "approx.search",
    "approx.decide_s": "approx.decide",
    "exact.solve_s": "exact.solve",
    "exact.mis_s": "exact.mis",
    "reductions.build_s": "reductions.build",
    "generators.enumerate_s": "generators.enumerate",
    "cli.self_s": "cli.main",
}

# counts that must repeat exactly between passes over the same inputs
EXACT_COUNTS = (
    "approx.moves",
    "exact.subsets_checked",
    "generators.graphs",
    "pds.checks",
    "cubic.full_arc_hits",
)
COUNTS = EXACT_COUNTS + (
    "pds.members_checked",
    "approx.calls",
    "reductions.target_vertices",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0
        self.first_cubic = None
        self._stack: list[int] = []
        self._to_graph = None

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def _counting(self, fn, count):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self, args, result)
            return result

        return counted

    def install(self) -> None:
        """Wrap every traced function wherever the package has bound it.

        A function that a later version of the package no longer has is
        skipped, and its metrics read 0."""
        from pdskit import approx, cli, cubic, exact, generators, graph, pds, reductions

        # (defining module or class, attribute, span, counter)
        table = [
            (cli, "main", "cli.main", None),
            (graph, "parse_graph", "graph.parse", None),
            (cubic, "parse_cubic", "graph.parse", None),
            (cubic.CubicCycleGraph, "to_graph", "graph.build", _count_build),
            (graph, "induced_connected", "graph.connected", None),
            (pds, "check_pds", "pds.check", _count_check),
            (cubic, "solve_hamiltonian_cubic", "cubic.solve", None),
            (approx, "half_pds", "approx.search", _count_search),
            (approx, "decide_pds_at_least_k", "approx.decide", None),
            (exact, "max_pds_exact", "exact.solve", _count_exact),
            (exact, "max_independent_set_exact", "exact.mis", None),
            (reductions, "split_reduction", "reductions.build", _count_reduction),
            (reductions, "bipartite_reduction", "reductions.build", _count_reduction),
            (generators, "all_connected_graphs", "generators.enumerate", _count_enumeration),
        ]
        self._to_graph = getattr(cubic.CubicCycleGraph, "to_graph", None)
        owners = [m for k, m in sys.modules.items() if k == "pdskit" or k.startswith("pdskit.")]
        owners.append(cubic.CubicCycleGraph)
        for owner, attr, name, count in table:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            fn = original
            if attr == "all_connected_graphs":
                # the package yields lazily; a list puts the enumeration inside the span
                fn = lambda n, enumerate_all=original: list(enumerate_all(n))  # noqa: E731
            _replace(owners, original, self._wrap(name, fn, count))
        arc = getattr(cubic, "find_full_arc", None)
        if arc is not None:
            _replace(owners, arc, self._counting(arc, _count_arc))

    def layer_seconds(self) -> dict[str, float]:
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
        return {metric: self_s[span] for metric, span in TIMES.items()}

    def build_peak_mb(self) -> float:
        """tracemalloc peak of one rebuild of the first cubic instance the
        pass built, measured after the pass so its timings stay clean."""
        if self.first_cubic is None or self._to_graph is None:
            return 0.0
        tracemalloc.start()
        try:
            self._to_graph(self.first_cubic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20


def _replace(owners, original, replacement) -> None:
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, key, replacement)


def _count_check(tr, args, verdict):
    tr.counts["pds.checks"] += 1
    tr.counts["pds.members_checked"] += len(args[1])


def _count_search(tr, args, result):
    tr.counts["approx.calls"] += 1
    tr.counts["approx.moves"] += result[1].iterations


def _count_exact(tr, args, result):
    tr.counts["exact.subsets_checked"] += result.subsets_checked


def _count_reduction(tr, args, inst):
    tr.counts["reductions.target_vertices"] += inst.target.n


def _count_enumeration(tr, args, graphs):
    tr.counts["generators.graphs"] += len(graphs)


def _count_build(tr, args, graph):
    if tr.first_cubic is None:
        tr.first_cubic = args[0]


def _count_arc(tr, args, arc):
    if arc is not None:
        tr.counts["cubic.full_arc_hits"] += 1
