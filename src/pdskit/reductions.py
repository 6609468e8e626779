"""Reductions tying maximum independent set to maximum PDS.

One construction serves both hardness results.  It takes a connected
non-star source graph G and builds a target out of three blocks: one
vertex per source *edge* (the edge block, adjacent to every source
vertex not an endpoint), one vertex per source *vertex* (the source
block), and a core that forces itself into any large PDS.  The core is
ids 0 .. core_size-1, its last m ids are the edge block in g.edges
order, and source vertex v is id core_size + v.  The two cases differ
only in the core's first part:

* split_reduction(g): two anchors, making the core a clique; the target
  is a split graph and its maximum PDS size equals m + 2 + alpha(G).
* bipartite_reduction(g, k): an independent filler block of size
  m*(n-k-1) - k + 1 wired completely to the edge block; the target is
  bipartite and has a PDS of size filler + m + k iff alpha(G) >= k.

Both return one record, Reduction(source, target, k), with k None for
split; the sizes and block ids are properties read off it.  A set
crosses between the graphs by a shift: an independent set embeds as the
core's mask OR its own mask shifted up by core_size, and a normalized
PDS extracts as its mask shifted down.

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


class Reduction(NamedTuple):
    """k is None for the split reduction; the rest follows from source and target."""

    source: Graph
    target: Graph
    k: int | None

    @property
    def kind(self) -> str:
        return "split" if self.k is None else "bipartite"

    @property
    def core_size(self) -> int:
        """Vertices the construction forces into every large PDS."""
        return self.target.n - self.source.n

    @property
    def filler_count(self) -> int | None:
        """The bipartite core's filler block size; None for split."""
        return None if self.k is None else self.core_size - self.source.m

    @property
    def threshold(self) -> int | None:
        """PDS size that witnesses an independent set of size k; None for split."""
        return None if self.k is None else self.core_size + self.k

    @property
    def anchors(self) -> tuple[int, int] | None:
        """The split core's two ids outside the edge block; None for bipartite."""
        return (0, 1) if self.k is None else None

    @property
    def edge_ids(self) -> dict[tuple[int, int], int]:
        first = self.core_size - self.source.m
        return {e: first + i for i, e in enumerate(self.source.edges)}

    @property
    def source_ids(self) -> tuple[int, ...]:
        return tuple(range(self.core_size, self.target.n))

    def embed_independent_set(self, is_set: VertexSet) -> VertexSet:
        """Core plus the mapped independent set: always a PDS of a split
        target, and of a bipartite one when |is_set| >= k."""
        if edge := _inside_edge(self.source, is_set):
            raise InvalidArgument(f"edge {edge} lies inside the set")
        if self.k is not None and len(is_set) < self.k:
            raise InvalidArgument(
                f"need an independent set of size >= k={self.k}, got {len(is_set)}"
            )
        core = self.core_size
        return VertexSet(self.target.n, (1 << core) - 1 | is_set.mask << core)

    def extract_independent_set(self, s: VertexSet) -> VertexSet:
        """Project a PDS of the target back to an independent set of the source."""
        out = VertexSet(self.source.n, self.normalize_pds(s).mask >> self.core_size)
        if edge := _inside_edge(self.source, out):  # guaranteed; fail loudly if not
            raise VerificationFailed(f"edge {edge} lies inside the set")
        return out

    def normalize_pds(self, s: VertexSet) -> VertexSet:
        """Rewrite a PDS so it contains the whole core, never shrinking it.

        A bipartite PDS of size >= threshold absorbs the core as it is.
        In a split target, after adding the core, an edge-block vertex e
        can violate the density condition only when both its endpoints
        sit inside (its non-neighbors are exactly its two endpoints, so
        both inside means d(e) = |S|-3 < |S|-2).  Evicting the smaller
        endpoint repairs e for good and harms nobody, so one pass over the
        edges in order repairs them all, evicting at most once per edge
        vertex the input was missing.
        """
        if not check_pds(self.target, s).holds:
            raise InvalidArgument("normalize_pds needs a PDS of the target")
        core, m = self.core_size, self.source.m
        if self.k is not None:
            if len(s) < self.threshold:
                raise InvalidArgument(f"need |S| >= {self.threshold}, got {len(s)}")
            return VertexSet(self.target.n, s.mask | (1 << core) - 1)
        inside = s.mask >> core
        evicted = 0
        for u, v in self.source.edges:  # u < v
            if inside >> u & inside >> v & 1:
                inside ^= 1 << u
                evicted += 1
        if evicted > (~s.mask >> (core - m) & (1 << m) - 1).bit_count():
            raise VerificationFailed("edge-block transfer loop exceeded its bound")
        return VertexSet(self.target.n, (1 << core) - 1 | inside << core)


def _links(g: Graph, core: int, core_m: int) -> list[tuple[int, int]]:
    """Each edge vertex's n - 2 links to the sources off its endpoints, built
    only once they and the core's core_m edges are known to fit MAX_EDGES."""
    target_m = core_m + g.m * (g.n - 2)
    if target_m > MAX_EDGES:
        raise InvalidGraph(f"target m={target_m} is above the limit of {MAX_EDGES} edges")
    first = core - g.m
    return [(first + i, core + w) for i, e in enumerate(g.edges) for w in range(g.n) if w not in e]


def _require_reducible(g: Graph) -> None:
    require_connected(g)
    if is_star(g):
        raise InvalidArgument("reductions are undefined on stars")


def split_reduction(g: Graph) -> Reduction:
    _require_reducible(g)
    core_size = g.m + 2
    links = _links(g, core_size, core_size * (core_size - 1) // 2)
    clique = [(i, j) for i in range(core_size) for j in range(i + 1, core_size)]
    # sorted, the clique and the links interleave into the canonical
    # order that Graph takes through its C-level scans
    return Reduction(g, Graph(core_size + g.n, sorted(clique + links)), None)


def bipartite_reduction(g: Graph, k: int) -> Reduction:
    _require_reducible(g)
    if not 1 <= k < g.n - 1:
        raise InvalidArgument(f"need 1 <= k < n-1, got k={k}, n={g.n}")
    m = g.m
    filler_count = m * (g.n - k - 1) - k + 1
    core_size = filler_count + m
    links = _links(g, core_size, filler_count * m)  # the filler-to-edge block's edges
    edges = [(f, e) for f in range(filler_count) for e in range(filler_count, core_size)]
    return Reduction(g, Graph(core_size + g.n, edges + links), k)


class ReductionCertificate(NamedTuple):
    direction: str  # "forward" (IS -> PDS) or "backward" (PDS -> IS)
    independent_set: VertexSet
    pds: VertexSet


def verify_certificate(inst: Reduction, cert: ReductionCertificate) -> list[str]:
    """Re-check a certificate from scratch; returns problems (empty = valid)."""
    problems: list[str] = []
    if edge := _inside_edge(inst.source, cert.independent_set):
        problems.append(f"independent set invalid: edge {edge} lies inside the set")
    verdict = check_pds(inst.target, cert.pds)
    if not verdict.holds:
        problems.append(f"target set is not a PDS ({len(verdict.unsatisfied)} violations)")
    base, n_is, n_pds = inst.core_size, len(cert.independent_set), len(cert.pds)
    if cert.direction == "forward":
        if n_pds != base + n_is:
            problems.append(f"size identity broken: |PDS|={n_pds}, core+|IS|={base + n_is}")
    elif cert.direction == "backward":
        if n_is < n_pds - base:
            problems.append(f"extraction bound broken: |IS|={n_is} < |PDS|-core={n_pds - base}")
    else:
        problems.append(f"unknown direction {cert.direction!r}")
    if inst.k is not None and n_is < inst.k:
        problems.append(f"independent set smaller than k={inst.k}")
    return problems


def certificate_to_json(inst: Reduction, cert: ReductionCertificate) -> dict:
    return {
        "kind": inst.kind,
        "direction": cert.direction,
        "k": inst.k,
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
        if obj.get("k") is not None:  # a k would claim a bipartite certificate
            raise ParseError(f"split certificate: k must be null, got {obj['k']!r}")
        inst = split_reduction(source)
    elif kind == "bipartite":
        (k,) = _json_ints([obj.get("k")], "k")
        inst = bipartite_reduction(source, k)
    else:
        raise ParseError(f"unknown certificate kind {kind!r}")
    cert = ReductionCertificate(
        direction=direction,
        independent_set=VertexSet.from_ids(source.n, is_ids),
        pds=VertexSet.from_ids(inst.target.n, pds_ids),
    )
    return inst, cert
