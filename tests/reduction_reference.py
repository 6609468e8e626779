"""Reference constructions kept only as test oracles.

``split_reduction`` and ``bipartite_reduction`` are the two builders as
they stood when each reduction was its own record class: they lay the
blocks out through ``_layout`` and store the sizes and block ids they
computed, where ``pdskit.reductions.Reduction`` reads them off the source
and the target.  ``normalize_pds_restart`` is the original restart loop of
the split ``Reduction.normalize_pds``: the one-pass version must return the
same set, or raise the same error, on every PDS of a split target.
"""

from __future__ import annotations

from typing import NamedTuple

from pdskit import Graph, InvalidArgument, Reduction, VerificationFailed, VertexSet, check_pds
from pdskit.reductions import _require_reducible


class ReferenceReduction(NamedTuple):
    target: Graph
    core_size: int
    threshold: int | None
    filler_count: int | None
    anchors: tuple[int, int] | None
    edge_ids: dict[tuple[int, int], int]
    source_ids: tuple[int, ...]


def _layout(g: Graph, core_size: int):
    """The edge block's ids (the core's last m, in g.edges order), the
    source block's ids (core_size + v) and each edge vertex's links to
    the sources off its endpoints, in that order."""
    first = core_size - g.m
    edge_ids = {e: first + i for i, e in enumerate(g.edges)}
    links = [
        (i, core_size + w)
        for (u, v), i in edge_ids.items()
        for w in range(g.n)
        if w != u and w != v
    ]
    return edge_ids, tuple(range(core_size, core_size + g.n)), links


def split_reduction(g: Graph) -> ReferenceReduction:
    _require_reducible(g)
    core_size = g.m + 2
    edge_ids, source_ids, links = _layout(g, core_size)
    clique = [(i, j) for i in range(core_size) for j in range(i + 1, core_size)]
    return ReferenceReduction(
        target=Graph(core_size + g.n, sorted(clique + links)),
        core_size=core_size,
        threshold=None,
        filler_count=None,
        anchors=(0, 1),
        edge_ids=edge_ids,
        source_ids=source_ids,
    )


def bipartite_reduction(g: Graph, k: int) -> ReferenceReduction:
    _require_reducible(g)
    if not 1 <= k < g.n - 1:
        raise InvalidArgument(f"need 1 <= k < n-1, got k={k}, n={g.n}")
    m = g.m
    filler_count = m * (g.n - k - 1) - k + 1
    edge_ids, source_ids, links = _layout(g, filler_count + m)
    edges = [(f, eid) for f in range(filler_count) for eid in edge_ids.values()]
    return ReferenceReduction(
        target=Graph(filler_count + m + g.n, edges + links),
        core_size=filler_count + m,
        threshold=filler_count + m + k,
        filler_count=filler_count,
        anchors=None,
        edge_ids=edge_ids,
        source_ids=source_ids,
    )


def normalize_pds_restart(inst: Reduction, s: VertexSet) -> VertexSet:
    """Add the core, then evict the smaller endpoint of the first edge whose
    endpoints are both inside, rescanning the edges from the start after
    every eviction."""
    if not check_pds(inst.target, s).holds:
        raise InvalidArgument("normalize_pds needs a PDS of the target")
    edge_ids, source_ids = inst.edge_ids, inst.source_ids
    inside = set(s.members())
    budget = sum(1 for eid in edge_ids.values() if eid not in inside)
    inside.update(range(inst.core_size))
    while True:
        offender = None
        for (u, v), _eid in edge_ids.items():
            if source_ids[u] in inside and source_ids[v] in inside:
                offender = (u, v)
                break
        if offender is None:
            break
        if budget <= 0:
            raise VerificationFailed("edge-block transfer loop exceeded its bound")
        budget -= 1
        u, v = offender
        inside.discard(min(source_ids[u], source_ids[v]))
    return VertexSet.from_ids(inst.target.n, inside)
