"""Fixture catalog, parametric families, random and exhaustive generators.

The named fixtures ship as commented edge-list files under data/; each
carries the optimum values the test suite re-derives with the exact
solver.  all_connected_graphs enumerates connected graphs up to
isomorphism by growing canonical (n-1)-vertex graphs one vertex at a
time and deduplicating on a canonical key.

The key is the smallest adjacency bitstring over the leaves of a search
on ordered partitions of the vertices into bitmask cells (McKay &
Piperno, "Practical graph isomorphism II", J. Symb. Comput. 2014).  Each
node refines its partition in rounds until it is equitable: a round
splits every cell by the tuple of neighbour counts its vertices have in
all the round's cells, and the sub-cells take its place in ascending
tuple order.  The first cell left with more than one vertex then
branches, each child individualising one of its vertices.  Every choice
depends on counts and cell order, never on vertex ids, so relabelling a
graph relabels its whole search tree and leaves the set of leaf
bitstrings as it was: isomorphic graphs get equal keys, and a key, read
as an adjacency matrix, is the graph itself up to isomorphism.  When
the branching cell holds twins (equal neighbourhoods apart from each
other; being twins is transitive, so comparing each vertex with the
first is enough), swapping two of them is an automorphism that keeps the
partition, so their subtrees hold the same bitstrings and only the first
is searched.

Before the canonical key is computed, a child is dropped unless its
new vertex n-1 passes the cheap first test of canonical augmentation
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998): no
other vertex that is not a cut vertex may have a strictly larger
(degree, sum of neighbour degrees).  No class is lost.  In a connected
graph G, take a non-cut vertex v whose invariant is the largest among
the non-cut vertices.  G - v is connected, so it is isomorphic to some
(n-1)-vertex representative, and the child that re-adds v puts the new
vertex in v's place; that child passes the test.  The test runs on
tables built once per parent and shared by its 2^(n-1) - 1 children:
the parent's degrees, each vertex's neighbour-degree sum, the degree sum
over every hood (the new vertex's neighbours), and for each vertex w the
components of parent - w, which the child less w joins iff its hood
meets them all.  A passing child whose hood holds a vertex v but not a
twin u < v of v in the parent is dropped too: swapping u and v maps the
parent onto itself, so the child copies that of a smaller hood, which
came first.  The rest are bucketed by their sorted multiset of (degree,
neighbour-degree sum), an isomorphism invariant: a child that opens a
bucket is a new class and gets no key, and keys are computed only when
two children share a bucket.  For n <= 7, 1,700 of 7,814 children pass,
345 of them have a smaller twin hood, and 713 keys are computed; at
n = 8, the counts are 17,772 of 108,331, 3,320 and 8,717.  Each class
keeps the first child that reaches it, so the representatives and their
order depend on the key's classes, not on its values.
"""

from __future__ import annotations

import random
import re
from itertools import combinations
from operator import or_
from typing import Iterator, NamedTuple

from .errors import InstanceTooLarge, InvalidArgument, InvalidGraph, UnknownName
from .graph import MAX_EDGES, MAX_VERTICES, Graph, _mask_component, parse_graph

_ENUM_CAP = 9  # candidate counts explode past this; the suite needs 8


class FixtureRecord(NamedTuple):
    name: str
    graph: Graph
    expected: dict[str, int]
    chords: tuple[int, ...] | None  # set for Hamiltonian cubic fixtures


_EXPECTED: dict[str, dict[str, int]] = {
    "cubic10": {"max_pds": 7, "max_connected_pds": 5},
    "caterpillar15": {"max_pds": 12, "max_connected_pds": 8},
    "demo5": {"alpha": 3, "max_pds": 4, "max_connected_pds": 4},
    "exc8_paired": {"max_pds": 4, "max_connected_pds": 4},
    "exc8_alternating": {"max_pds": 4, "max_connected_pds": 4},
    "prism6": {"max_pds": 4, "max_connected_pds": 4},
    "k4": {"max_pds": 3, "max_connected_pds": 3},
}

_CHORDS: dict[str, tuple[int, ...]] = {
    "exc8_paired": (2, 3, 0, 1, 6, 7, 4, 5),
    "exc8_alternating": (3, 6, 5, 0, 7, 2, 1, 4),
    "prism6": (3, 4, 5, 0, 1, 2),
    "k4": (2, 3, 0, 1),
}

_PARAMETRIC = re.compile(r"^(star|path|cycle)(\d+)$")


def fixture_names() -> list[str]:
    return sorted(_EXPECTED)


def fixture(name: str) -> FixtureRecord:
    """Look up a named fixture, or a parametric one like star5/path7/cycle9
    (the number is the vertex count)."""
    if name in _EXPECTED:
        from importlib import resources  # loaded on first use: import pdskit stays cheap

        text = (resources.files("pdskit") / "data" / f"{name}.txt").read_text()
        return FixtureRecord(
            name, parse_graph(text), dict(_EXPECTED[name]), _CHORDS.get(name)
        )
    match = _PARAMETRIC.match(name)
    if match:
        kind, digits = match.group(1), match.group(2).lstrip("0") or "0"
        # checked before the edge list is built; a count longer than the
        # limit is refused unread, as int() rejects strings over 4300 digits
        if len(digits) > len(str(MAX_VERTICES)) or int(digits) > MAX_VERTICES:
            raise InvalidGraph(f"{name}: n={digits} is above the limit of {MAX_VERTICES} vertices")
        builder = {"star": star_graph, "path": path_graph, "cycle": cycle_graph}[kind]
        return FixtureRecord(name, builder(int(digits)), {}, None)
    raise UnknownName(f"no fixture named {name!r}")


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0, n-1 leaves."""
    if n < 2:
        raise InvalidArgument("a star needs at least two vertices")
    return Graph(n, [(0, v) for v in range(1, n)])


def path_graph(n: int) -> Graph:
    if n < 2:
        raise InvalidArgument("a path needs at least two vertices")
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidArgument("a cycle needs at least three vertices")
    # the closing edge, written (0, n - 1) and second, keeps the list canonical
    return Graph(n, [(0, 1), (0, n - 1)] + [(v, v + 1) for v in range(1, n - 1)])


def random_connected(n: int, m: int, seed: int | None = None) -> Graph:
    """Random connected graph: a random spanning tree plus random extra edges."""
    if n > MAX_VERTICES:
        raise InvalidGraph(f"n={n} is above the limit of {MAX_VERTICES} vertices")
    if m > MAX_EDGES:
        raise InvalidGraph(f"m={m} is above the limit of {MAX_EDGES} edges")
    if n < 2:
        raise InvalidArgument("need n >= 2")
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise InvalidArgument(f"need n-1 <= m <= {max_m}, got m={m}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((u, v) if u < v else (v, u))
    if m - len(edges) > max_m // 3:
        # dense request: sample the complement outright
        rest = [
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
        ]
        edges.update(rng.sample(rest, m - len(edges)))
    else:
        while len(edges) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((u, v) if u < v else (v, u))
    return Graph(n, edges)


# --- enumeration up to isomorphism ---------------------------------------


def _equitable(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    """Refine the ordered cells in rounds until they are equitable.  Each
    round splits every cell by its vertices' tuples of neighbour counts in
    all the round's cells, the parts in ascending tuple order; the first
    round that splits nothing ends it."""
    while True:
        out: list[int] = []
        for cell in cells:
            if cell & (cell - 1):
                groups: dict[tuple[int, ...], int] = {}
                rest = cell
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    row = adj[bit.bit_length() - 1]
                    k = tuple([(row & c).bit_count() for c in cells])
                    groups[k] = groups.get(k, 0) | bit
                if len(groups) > 1:
                    out += [groups[k] for k in sorted(groups)]
                    continue
            out.append(cell)
        if len(out) == len(cells):
            return out
        cells = out


def _canonical_key(n: int, adj: tuple[int, ...]) -> int:
    """Smallest adjacency bitstring over the leaves of the search tree."""
    best = -1
    stack = [[(1 << n) - 1]]
    while stack:
        cells = _equitable(adj, stack.pop())
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            # discrete: the vertex in cell i gets label i
            pos = [cell.bit_length() - 1 for cell in cells]
            key = 0
            for i, v in enumerate(pos):
                row = adj[v]
                for w in pos[i + 1 :]:
                    key = key << 1 | row >> w & 1
            if best < 0 or key < best:
                best = key
            continue
        members = [v for v in range(n) if cell >> v & 1]
        u = members[0]
        # swapping two twins is an automorphism, so one branch serves them all
        twins = all(adj[u] & ~(1 << v) == adj[v] & ~(1 << u) for v in members)
        for v in members[:1] if twins else members:
            stack.append(cells[:i] + [1 << v, cell ^ 1 << v] + cells[i + 1 :])
    return best


def _components(adj: tuple[int, ...], mask: int) -> list[int]:
    """Vertex masks of the components of the subgraph induced by mask."""
    out = []
    while mask:
        out.append(_mask_component(adj, mask))
        mask ^= out[-1]
    return out


def _augmentations(parent: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(hood, invariant) of every child of parent that passes the first test
    of canonical augmentation: no non-cut vertex has a strictly larger
    (degree, sum of neighbour degrees) than the new vertex, which joins the
    vertices of hood.  The invariant is the child's sorted multiset of those
    pairs, each packed as degree << 8 | sum (a sum is at most 64 for n <= 9)."""
    m = len(parent)
    pdeg = [row.bit_count() for row in parent]
    psum = [sum(pdeg[u] for u in range(m) if row >> u & 1) for row in parent]
    hoodsum = [0] * (1 << m)
    for hood in range(1, 1 << m):
        low = hood & -hood
        hoodsum[hood] = hoodsum[hood ^ low] + pdeg[low.bit_length() - 1]
    # the child less w is connected iff hood meets every component of parent - w
    comps = [_components(parent, ((1 << m) - 1) ^ (1 << w)) for w in range(m)]
    # w can outrank a new vertex of degree d only if pdeg[w] >= d - 1
    cands = [[w for w in range(m) if pdeg[w] >= d - 1] for d in range(m + 1)]
    for hood in range(1, 1 << m):
        d = hood.bit_count()
        new = hoodsum[hood] + d
        for w in cands[d]:
            inw = hood >> w & 1
            dw = pdeg[w] + inw
            if dw < d or dw == d and psum[w] + (parent[w] & hood).bit_count() + inw * d <= new:
                continue
            if all(comp & hood for comp in comps[w]):
                break
        else:
            yield hood, tuple(sorted([d << 8 | new] + [
                (pdeg[w] + (inw := hood >> w & 1)) << 8
                | psum[w] + (parent[w] & hood).bit_count() + inw * d
                for w in range(m)
            ]))


_connected_cache: dict[int, list[tuple[int, ...]]] = {}


def _connected_masks(n: int, cache=_connected_cache) -> list[tuple[int, ...]]:
    """Adjacency masks, one connected graph per class; bench passes an empty cache of its own."""
    if n in cache:
        return cache[n]
    if n < 2:
        raise InvalidArgument("enumeration starts at n=2")
    if n > _ENUM_CAP:
        raise InstanceTooLarge(f"enumeration is capped at n={_ENUM_CAP}")
    if n == 2:
        reps = [(0b10, 0b01)]
    else:
        top = 1 << (n - 1)
        # column[hood]: the bit each old vertex gains when hood joins it to n-1
        column = [tuple([(hood >> v & 1) << (n - 1) for v in range(n - 1)]) for hood in range(top)]
        first: dict[tuple[int, ...], tuple[int, ...]] = {}  # invariant -> its first child
        keys: dict[tuple[int, ...], set[int]] = {}  # invariant -> class keys, once shared
        reps = []
        for parent in _connected_masks(n - 1, cache):
            # swapping twins u < v maps parent onto itself, so a hood that holds
            # v but not u gives a copy of a smaller hood's child, which came first
            twins = [
                (1 << u, 1 << v) for u, v in combinations(range(n - 1), 2)
                if parent[u] & ~(1 << v) == parent[v] & ~(1 << u)
            ]
            for hood, invariant in _augmentations(parent):
                if any(hood & v and not hood & u for u, v in twins):
                    continue
                adj = (*map(or_, parent, column[hood]), hood)
                if invariant not in first:  # no earlier child can be isomorphic
                    first[invariant] = adj
                    reps.append(adj)
                    continue
                if invariant not in keys:
                    keys[invariant] = {_canonical_key(n, first[invariant])}
                key = _canonical_key(n, adj)
                if key not in keys[invariant]:
                    keys[invariant].add(key)
                    reps.append(adj)
    cache[n] = reps
    return reps


def all_connected_graphs(n: int) -> Iterator[Graph]:
    """All connected n-vertex graphs, one per isomorphism class."""
    for adj in _connected_masks(n):
        yield Graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
        )
