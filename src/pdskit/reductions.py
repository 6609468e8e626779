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

Certificates bundle an independent set and a PDS whose sizes witness the
correspondence in either direction; they re-verify from scratch.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    InvalidArgument,
    IsStar,
    NotAPds,
    NotIndependent,
    ParseError,
    VerificationFailed,
)
from .graph import (
    Graph,
    VertexSet,
    _json_ints,
    graph_from_json,
    graph_to_json,
    is_star,
    require_connected,
)
from .pds import check_pds


def _require_independent(g: Graph, s: VertexSet) -> None:
    flags = s.flags()
    for u, v in g.edges:
        if flags[u] and flags[v]:
            raise NotIndependent(f"edge ({u}, {v}) lies inside the set")


class _ReductionBase:
    """Shared plumbing: block bookkeeping and set translation.  A mixin,
    listed after a NamedTuple of the fields; it adds no instance state."""

    __slots__ = ()
    source: Graph
    target: Graph
    edge_ids: dict[tuple[int, int], int]
    source_ids: tuple[int, ...]

    @property
    def core_size(self) -> int:
        """Vertices the construction forces into every large PDS."""
        raise NotImplementedError

    def _core_mask(self) -> int:
        return (1 << self.core_size) - 1

    def _map_source_set(self, s: VertexSet) -> int:
        mask = 0
        for v in s.members():
            mask |= 1 << self.source_ids[v]
        return mask

    def _source_block_members(self, s: VertexSet) -> list[int]:
        base = self.source_ids[0]
        return [t - base for t in s.members() if t >= base]

    def extract_independent_set(self, s: VertexSet) -> VertexSet:
        """Project a PDS of the target back to an independent set of the source."""
        fixed = self.normalize_pds(s)
        out = VertexSet.from_ids(self.source.n, self._source_block_members(fixed))
        _require_independent(self.source, out)  # guaranteed; fail loudly if not
        return out

    def normalize_pds(self, s: VertexSet) -> VertexSet:
        raise NotImplementedError


class _SplitFields(NamedTuple):
    source: Graph
    target: Graph
    anchors: tuple[int, int]
    edge_ids: dict[tuple[int, int], int]
    source_ids: tuple[int, ...]


class SplitReduction(_SplitFields, _ReductionBase):
    __slots__ = ()

    @property
    def core_size(self) -> int:
        return self.source.m + 2

    def embed_independent_set(self, is_set: VertexSet) -> VertexSet:
        """Core plus the mapped independent set; always a PDS of the target."""
        _require_independent(self.source, is_set)
        mask = self._core_mask() | self._map_source_set(is_set)
        return VertexSet(self.target.n, mask)

    def normalize_pds(self, s: VertexSet) -> VertexSet:
        """Rewrite a PDS so it contains the whole core, never shrinking it.

        After adding the core, an edge-block vertex e can violate the
        density condition only when both its endpoints sit inside (its
        non-neighbors are exactly its two endpoints, so both inside means
        d(e) = |S|-3 < |S|-2).  Evicting the smaller endpoint repairs e
        for good and harms nobody, so the loop runs at most once per
        edge vertex the input was missing.
        """
        if not check_pds(self.target, s).holds:
            raise NotAPds("normalize_pds needs a PDS of the target")
        inside = set(s.members())
        budget = sum(
            1 for eid in self.edge_ids.values() if eid not in inside
        )
        inside.update(range(self.core_size))
        while True:
            offender = None
            for (u, v), _eid in self.edge_ids.items():
                if self.source_ids[u] in inside and self.source_ids[v] in inside:
                    offender = (u, v)
                    break
            if offender is None:
                break
            if budget <= 0:
                raise VerificationFailed("edge-block transfer loop exceeded its bound")
            budget -= 1
            u, v = offender
            inside.discard(min(self.source_ids[u], self.source_ids[v]))
        return VertexSet.from_ids(self.target.n, inside)


class _BipartiteFields(NamedTuple):
    source: Graph
    target: Graph
    k: int
    filler_count: int
    edge_ids: dict[tuple[int, int], int]
    source_ids: tuple[int, ...]


class BipartiteReduction(_BipartiteFields, _ReductionBase):
    __slots__ = ()

    @property
    def core_size(self) -> int:
        return self.filler_count + self.source.m

    @property
    def threshold(self) -> int:
        """PDS size that witnesses an independent set of size k."""
        return self.core_size + self.k

    def embed_independent_set(self, is_set: VertexSet) -> VertexSet:
        """Core plus the mapped set; needs |is_set| >= k to be a PDS."""
        _require_independent(self.source, is_set)
        if len(is_set) < self.k:
            raise InvalidArgument(
                f"need an independent set of size >= k={self.k}, got {len(is_set)}"
            )
        mask = self._core_mask() | self._map_source_set(is_set)
        return VertexSet(self.target.n, mask)

    def normalize_pds(self, s: VertexSet) -> VertexSet:
        """Absorb the core into a large PDS; no transfer loop is needed."""
        if not check_pds(self.target, s).holds:
            raise NotAPds("normalize_pds needs a PDS of the target")
        if len(s) < self.threshold:
            raise InvalidArgument(
                f"need |S| >= {self.threshold}, got {len(s)}"
            )
        return VertexSet(self.target.n, s.mask | self._core_mask())


def _edge_to_source_links(
    g: Graph, edge_ids: dict[tuple[int, int], int], source_ids: tuple[int, ...]
) -> list[tuple[int, int]]:
    links = []
    for (u, v), eid in edge_ids.items():
        for w in range(g.n):
            if w != u and w != v:
                links.append((eid, source_ids[w]))
    return links


def _require_reducible(g: Graph) -> None:
    require_connected(g)
    if is_star(g):
        raise IsStar("reductions are undefined on stars")


def split_reduction(g: Graph) -> SplitReduction:
    _require_reducible(g)
    m = g.m
    anchors = (0, 1)
    edge_ids = {e: 2 + i for i, e in enumerate(g.edges)}
    source_ids = tuple(2 + m + v for v in range(g.n))
    core = list(range(m + 2))
    edges = [(core[i], core[j]) for i in range(m + 2) for j in range(i + 1, m + 2)]
    edges += _edge_to_source_links(g, edge_ids, source_ids)
    return SplitReduction(
        source=g,
        # sorted, the clique and the links interleave into the canonical
        # order that Graph takes through its C-level scans
        target=Graph(2 + m + g.n, sorted(edges)),
        anchors=anchors,
        edge_ids=edge_ids,
        source_ids=source_ids,
    )


def bipartite_reduction(g: Graph, k: int) -> BipartiteReduction:
    _require_reducible(g)
    if not 1 <= k < g.n - 1:
        raise InvalidArgument(f"need 1 <= k < n-1, got k={k}, n={g.n}")
    m = g.m
    filler_count = m * (g.n - k - 1) - k + 1
    edge_ids = {e: filler_count + i for i, e in enumerate(g.edges)}
    source_ids = tuple(filler_count + m + v for v in range(g.n))
    edges = [(f, eid) for f in range(filler_count) for eid in edge_ids.values()]
    edges += _edge_to_source_links(g, edge_ids, source_ids)
    return BipartiteReduction(
        source=g,
        target=Graph(filler_count + m + g.n, edges),
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
    try:
        _require_independent(inst.source, cert.independent_set)
    except NotIndependent as exc:
        problems.append(f"independent set invalid: {exc}")
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
        problems.append(
            f"independent set smaller than k={inst.k}"
        )
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
