"""Fixture catalog, parametric families, random and exhaustive generators.

The named fixtures ship as commented edge-list files under data/; each
carries the optimum values the test suite re-derives with the exact
solver.  all_connected_graphs enumerates connected graphs up to
isomorphism by growing canonical (n-1)-vertex graphs one vertex at a
time and deduplicating on a canonical form (the minimum adjacency
bitstring, found by color refinement with twin collapsing and
individualization).

Before the canonical form is computed, a child is dropped unless its
new vertex n-1 passes the cheap first test of canonical augmentation
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998): no
other vertex that is not a cut vertex may have a strictly larger
(degree, sum of neighbour degrees).  No class is lost.  In a connected
graph G, take a non-cut vertex v whose invariant is the largest among
the non-cut vertices.  G - v is connected, so it is isomorphic to some
(n-1)-vertex representative, and the child that re-adds v puts the new
vertex in v's place; that child passes the test.  For n <= 7 the test
leaves 1,700 of 7,814 children to the canonical form.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterator

from .errors import InfeasibleParameters, InstanceTooLarge, UnknownFixture
from .graph import Graph, parse_graph

_ENUM_CAP = 9  # candidate counts explode past this; the suite needs 8


@dataclass(frozen=True)
class FixtureRecord:
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
        text = (resources.files("pdskit") / "data" / f"{name}.txt").read_text()
        return FixtureRecord(
            name, parse_graph(text), dict(_EXPECTED[name]), _CHORDS.get(name)
        )
    match = _PARAMETRIC.match(name)
    if match:
        kind, num = match.group(1), int(match.group(2))
        builder = {"star": star_graph, "path": path_graph, "cycle": cycle_graph}[kind]
        return FixtureRecord(name, builder(num), {}, None)
    raise UnknownFixture(f"no fixture named {name!r}")


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0, n-1 leaves."""
    if n < 2:
        raise InfeasibleParameters("a star needs at least two vertices")
    return Graph(n, [(0, v) for v in range(1, n)])


def path_graph(n: int) -> Graph:
    if n < 2:
        raise InfeasibleParameters("a path needs at least two vertices")
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InfeasibleParameters("a cycle needs at least three vertices")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def random_connected(n: int, m: int, seed: int | None = None) -> Graph:
    """Random connected graph: a random spanning tree plus random extra edges."""
    if n < 2:
        raise InfeasibleParameters("need n >= 2")
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise InfeasibleParameters(f"need n-1 <= m <= {max_m}, got m={m}")
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


def _refine(n: int, nbrs: list[tuple[int, ...]], colors: list[int]) -> list[int]:
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in nbrs[v]))) for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        fresh = [rank[s] for s in sigs]
        if fresh == colors:
            return colors
        colors = fresh


def _canonical_key(n: int, adj: tuple[int, ...]) -> int:
    nbrs = [tuple(w for w in range(n) if adj[v] >> w & 1) for v in range(n)]
    best: list[int | None] = [None]

    def emit(colors: list[int]) -> None:
        # colors are a bijection onto 0..n-1; read the relabeled adjacency
        pos = [0] * n
        for v, c in enumerate(colors):
            pos[c] = v
        key = 0
        for i in range(n):
            vi = pos[i]
            row = adj[vi]
            for j in range(i + 1, n):
                key = key << 1 | row >> pos[j] & 1
        if best[0] is None or key < best[0]:
            best[0] = key

    def search(colors: list[int]) -> None:
        colors = _refine(n, nbrs, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        split = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                split = cells[c]
                break
        if split is None:
            emit(colors)
            return
        twins = all(
            adj[u] & ~(1 << v) == adj[v] & ~(1 << u)
            for i, u in enumerate(split)
            for v in split[i + 1 :]
        )
        scale = n + 2
        if twins:
            # interchangeable vertices: any fixed order gives the same key
            fresh = [c * scale for c in colors]
            for idx, v in enumerate(split):
                fresh[v] += idx + 1
            search(fresh)
            return
        for v in split:
            fresh = [c * scale for c in colors]
            fresh[v] += 1
            search(fresh)

    search([0] * n)
    assert best[0] is not None
    return best[0]


def _connected_without(n: int, adj: tuple[int, ...], w: int) -> bool:
    """True when the graph on adj stays connected once w is removed."""
    rest = (1 << n) - 1 & ~(1 << w)
    seen = frontier = rest & -rest
    while frontier:
        reach = 0
        while frontier:
            bit = frontier & -frontier
            reach |= adj[bit.bit_length() - 1]
            frontier ^= bit
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen == rest


def _new_vertex_may_be_removed(n: int, adj: tuple[int, ...]) -> bool:
    """Cheap first test of canonical augmentation: no non-cut vertex has a
    strictly larger (degree, sum of neighbour degrees) than vertex n-1."""
    deg = [row.bit_count() for row in adj]

    def nbr_degrees(v: int) -> int:
        return sum(deg[u] for u in range(n) if adj[v] >> u & 1)

    d = deg[n - 1]
    new_sum = None
    for w in range(n - 1):
        if deg[w] < d:
            continue
        if deg[w] == d:
            if new_sum is None:
                new_sum = nbr_degrees(n - 1)
            if nbr_degrees(w) <= new_sum:
                continue
        if _connected_without(n, adj, w):
            return False
    return True


_connected_cache: dict[int, list[tuple[int, ...]]] = {}


def _connected_masks(n: int) -> list[tuple[int, ...]]:
    if n in _connected_cache:
        return _connected_cache[n]
    if n == 2:
        reps = [(0b10, 0b01)]
    else:
        seen: dict[int, tuple[int, ...]] = {}
        for parent in _connected_masks(n - 1):
            for hood in range(1, 1 << (n - 1)):
                adj = tuple(
                    row | (hood >> v & 1) << (n - 1) for v, row in enumerate(parent)
                ) + (hood,)
                if not _new_vertex_may_be_removed(n, adj):
                    continue
                key = _canonical_key(n, adj)
                if key not in seen:
                    seen[key] = adj
        reps = list(seen.values())
    _connected_cache[n] = reps
    return reps


def all_connected_graphs(n: int) -> Iterator[Graph]:
    """All connected n-vertex graphs, one per isomorphism class."""
    if n < 2:
        raise InfeasibleParameters("enumeration starts at n=2")
    if n > _ENUM_CAP:
        raise InstanceTooLarge(f"enumeration is capped at n={_ENUM_CAP}")
    for adj in _connected_masks(n):
        yield Graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
        )
