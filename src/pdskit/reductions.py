"""Reductions tying maximum independent set to maximum PDS.

Both constructions take a connected non-star source graph G and build a
target graph out of three blocks: one vertex per source *edge* (the edge
block, adjacent to every source vertex not an endpoint), one vertex per
source *vertex* (the source block), and a core that forces itself into
any large PDS.

* split_reduction: the core is a clique on the edge block plus two anchor
  vertices; the target is a split graph and its maximum PDS size equals
  m + 2 + alpha(G).
* bipartite_reduction(g, k): the core is an independent filler block of
  size m*(n-k-1) - k + 1 wired completely to the edge block; the target
  is bipartite and has a PDS of size filler + m + k iff alpha(G) >= k.

Both share one layout: the core is ids 0 .. core_size-1, its last m ids
are the edge block in g.edges order, and source vertex v is id
core_size + v.  A set crosses between the graphs by a shift: an
independent set embeds as the core's mask OR its own mask shifted up by
core_size, and a normalized PDS extracts as its mask shifted down.

Certificates bundle an independent set and a PDS whose sizes witness the
correspondence in either direction; they re-verify from scratch.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidArgument, InvalidGraph, ParseError, VerificationFailed
from .graph import (
    MAX_EDGES,
    Graph,
    VertexSet,
    _json_ints,
    graph_from_json,
    graph_to_json,
    is_star,
    require_connected,
)
from .pds import check_pds


def _inside_edge(g: Graph, s: VertexSet) -> tuple[int, int] | None:
    """The first edge of g with both ends in s, or None when s is independent."""
    if s.n != g.n:
        raise InvalidArgument(f"set lives on {s.n} vertices, source graph has {g.n}")
    flags = s.flags()
    return next(((u, v) for u, v in g.edges if flags[u] and flags[v]), None)


def _embed(inst, is_set: VertexSet) -> VertexSet:
    """Core plus the mapped independent set; InvalidArgument unless is_set is one."""
    if edge := _inside_edge(inst.source, is_set):
        raise InvalidArgument(f"edge {edge} lies inside the set")
    core = inst.core_size
    return VertexSet(inst.target.n, (1 << core) - 1 | is_set.mask << core)


def _extract(inst, s: VertexSet) -> VertexSet:
    """Project a PDS of the target back to an independent set of the source."""
    out = VertexSet(inst.source.n, inst.normalize_pds(s).mask >> inst.core_size)
    if edge := _inside_edge(inst.source, out):  # guaranteed; fail loudly if not
        raise VerificationFailed(f"edge {edge} lies inside the set")
    return out


class SplitReduction(NamedTuple):
    source: Graph
    target: Graph
    anchors: tuple[int, int]
    edge_ids: dict[tuple[int, int], int]
    source_ids: tuple[int, ...]

    @property
    def core_size(self) -> int:
        """Vertices the construction forces into every large PDS."""
        return self.source.m + 2

    def embed_independent_set(self, is_set: VertexSet) -> VertexSet:
        """Core plus the mapped independent set; always a PDS of the target."""
        return _embed(self, is_set)

    extract_independent_set = _extract

    def normalize_pds(self, s: VertexSet) -> VertexSet:
        """Rewrite a PDS so it contains the whole core, never shrinking it.

        After adding the core, an edge-block vertex e can violate the
        density condition only when both its endpoints sit inside (its
        non-neighbors are exactly its two endpoints, so both inside means
        d(e) = |S|-3 < |S|-2).  Evicting the smaller endpoint repairs e
        for good and harms nobody, so one pass over the edges in order
        repairs them all, evicting at most once per edge vertex the input
        was missing.
        """
        if not check_pds(self.target, s).holds:
            raise InvalidArgument("normalize_pds needs a PDS of the target")
        core, m = self.core_size, self.source.m
        inside = s.mask >> core
        evicted = 0
        for u, v in self.source.edges:  # u < v
            if inside >> u & inside >> v & 1:
                inside ^= 1 << u
                evicted += 1
        if evicted > (~s.mask >> (core - m) & (1 << m) - 1).bit_count():
            raise VerificationFailed("edge-block transfer loop exceeded its bound")
        return VertexSet(self.target.n, (1 << core) - 1 | inside << core)


class BipartiteReduction(NamedTuple):
    source: Graph
    target: Graph
    k: int
    filler_count: int
    edge_ids: dict[tuple[int, int], int]
    source_ids: tuple[int, ...]

    @property
    def core_size(self) -> int:
        """Vertices the construction forces into every large PDS."""
        return self.filler_count + self.source.m

    @property
    def threshold(self) -> int:
        """PDS size that witnesses an independent set of size k."""
        return self.core_size + self.k

    def embed_independent_set(self, is_set: VertexSet) -> VertexSet:
        """Core plus the mapped set; needs |is_set| >= k to be a PDS."""
        embedded = _embed(self, is_set)  # an edge inside is_set is named first
        if len(is_set) < self.k:
            raise InvalidArgument(
                f"need an independent set of size >= k={self.k}, got {len(is_set)}"
            )
        return embedded

    extract_independent_set = _extract

    def normalize_pds(self, s: VertexSet) -> VertexSet:
        """Absorb the core into a large PDS; no transfer loop is needed."""
        if not check_pds(self.target, s).holds:
            raise InvalidArgument("normalize_pds needs a PDS of the target")
        if len(s) < self.threshold:
            raise InvalidArgument(f"need |S| >= {self.threshold}, got {len(s)}")
        return VertexSet(self.target.n, s.mask | (1 << self.core_size) - 1)


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


def _require_reducible(g: Graph) -> None:
    require_connected(g)
    if is_star(g):
        raise InvalidArgument("reductions are undefined on stars")


def split_reduction(g: Graph) -> SplitReduction:
    _require_reducible(g)
    core_size = g.m + 2
    edge_ids, source_ids, links = _layout(g, core_size)
    clique = [(i, j) for i in range(core_size) for j in range(i + 1, core_size)]
    return SplitReduction(
        source=g,
        # sorted, the clique and the links interleave into the canonical
        # order that Graph takes through its C-level scans
        target=Graph(core_size + g.n, sorted(clique + links)),
        anchors=(0, 1),
        edge_ids=edge_ids,
        source_ids=source_ids,
    )


def bipartite_reduction(g: Graph, k: int) -> BipartiteReduction:
    _require_reducible(g)
    if not 1 <= k < g.n - 1:
        raise InvalidArgument(f"need 1 <= k < n-1, got k={k}, n={g.n}")
    m = g.m
    filler_count = m * (g.n - k - 1) - k + 1
    # the filler-to-edge block, and each edge vertex's n - 2 source links
    target_m = filler_count * m + m * (g.n - 2)
    if target_m > MAX_EDGES:
        raise InvalidGraph(f"target m={target_m} is above the limit of {MAX_EDGES} edges")
    edge_ids, source_ids, links = _layout(g, filler_count + m)
    edges = [(f, eid) for f in range(filler_count) for eid in edge_ids.values()]
    return BipartiteReduction(
        source=g,
        target=Graph(filler_count + m + g.n, edges + links),
        k=k,
        filler_count=filler_count,
        edge_ids=edge_ids,
        source_ids=source_ids,
    )


class ReductionCertificate(NamedTuple):
    kind: str  # "split" or "bipartite"
    direction: str  # "forward" (IS -> PDS) or "backward" (PDS -> IS)
    k: int | None
    independent_set: VertexSet
    pds: VertexSet


def verify_certificate(
    inst: SplitReduction | BipartiteReduction, cert: ReductionCertificate
) -> list[str]:
    """Re-check a certificate from scratch; returns problems (empty = valid)."""
    problems: list[str] = []
    expected_kind = "split" if isinstance(inst, SplitReduction) else "bipartite"
    if cert.kind != expected_kind:
        return [f"certificate kind {cert.kind!r} does not match the instance"]
    if edge := _inside_edge(inst.source, cert.independent_set):
        problems.append(f"independent set invalid: edge {edge} lies inside the set")
    verdict = check_pds(inst.target, cert.pds)
    if not verdict.holds:
        problems.append(f"target set is not a PDS ({len(verdict.unsatisfied)} violations)")
    base = inst.core_size
    if cert.direction == "forward":
        if len(cert.pds) != base + len(cert.independent_set):
            problems.append(
                f"size identity broken: |PDS|={len(cert.pds)}, "
                f"core+|IS|={base + len(cert.independent_set)}"
            )
    elif cert.direction == "backward":
        if len(cert.independent_set) < len(cert.pds) - base:
            problems.append(
                f"extraction bound broken: |IS|={len(cert.independent_set)} "
                f"< |PDS|-core={len(cert.pds) - base}"
            )
    else:
        problems.append(f"unknown direction {cert.direction!r}")
    if isinstance(inst, BipartiteReduction) and len(cert.independent_set) < inst.k:
        problems.append(f"independent set smaller than k={inst.k}")
    return problems


def certificate_to_json(inst, cert: ReductionCertificate) -> dict:
    return {
        "kind": cert.kind,
        "direction": cert.direction,
        "k": cert.k,
        "source_graph": graph_to_json(inst.source),
        "independent_set": cert.independent_set.members(),
        "pds": cert.pds.members(),
    }


def certificate_from_json(obj: dict):
    """Rebuild (instance, certificate) from the JSON layout above."""
    try:
        kind = obj["kind"]
        direction = obj["direction"]
        source = graph_from_json(obj["source_graph"])
        is_ids = _json_ints(obj["independent_set"], "independent_set")
        pds_ids = _json_ints(obj["pds"], "pds")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed certificate: {exc}") from exc
    if kind == "split":
        inst = split_reduction(source)
        k = None
    elif kind == "bipartite":
        (k,) = _json_ints([obj.get("k")], "k")
        inst = bipartite_reduction(source, k)
    else:
        raise ParseError(f"unknown certificate kind {kind!r}")
    cert = ReductionCertificate(
        kind=kind,
        direction=direction,
        k=k,
        independent_set=VertexSet.from_ids(source.n, is_ids),
        pds=VertexSet.from_ids(inst.target.n, pds_ids),
    )
    return inst, cert
