"""Undirected simple graphs and vertex subsets over dense integer ids.

Vertices are always 0..n-1.  Subsets are stored as bitmasks so the
exhaustive solvers can treat a whole set as one machine-word-ish int;
conversion helpers go through bytes so the same type stays usable on
graphs with a million vertices.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .errors import Disconnected, InvalidGraph, InvalidSubsetSize, ParseError

# bit positions set in each possible byte, for fast mask <-> id decoding
_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class VertexSet:
    """Immutable subset of the vertices of an n-vertex graph."""

    __slots__ = ("n", "mask", "size")

    def __init__(self, n: int, mask: int, size: int | None = None):
        if n < 0 or mask < 0 or mask >> n:
            raise InvalidSubsetSize(f"mask does not fit a {n}-vertex graph")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "size", mask.bit_count() if size is None else size)

    @classmethod
    def from_ids(cls, n: int, ids: Iterable[int]) -> "VertexSet":
        buf = bytearray((n + 7) // 8 or 1)
        for v in ids:
            if not 0 <= v < n:
                raise InvalidSubsetSize(f"vertex {v} out of range for n={n}")
            buf[v >> 3] |= 1 << (v & 7)
        return cls(n, int.from_bytes(bytes(buf), "little"))

    def members(self) -> list[int]:
        out: list[int] = []
        raw = self.mask.to_bytes((self.n + 7) // 8 or 1, "little")
        for i, byte in enumerate(raw):
            if byte:
                base = i << 3
                out.extend(base + j for j in _BYTE_BITS[byte])
        return out

    def flags(self) -> bytearray:
        """0/1 membership table of length n."""
        # guard bit n keeps the leading zeros; [:2:-1] drops it and "0b"
        # and puts the lowest bit first
        digits = bin(self.mask | 1 << self.n).encode()[:2:-1]
        return bytearray(digits.translate(_FROM_DIGITS))

    def complement(self) -> "VertexSet":
        full = (1 << self.n) - 1
        return VertexSet(self.n, full & ~self.mask, self.n - self.size)

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and self.mask >> v & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        if self.size <= 16:
            return f"VertexSet(n={self.n}, {{{', '.join(map(str, self.members()))}}})"
        return f"VertexSet(n={self.n}, size={self.size})"


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Connectivity is deliberately not enforced here; solver entry points
    check it themselves so that gadget graphs can be assembled piecewise.
    """

    __slots__ = ("n", "m", "edges", "adj", "deg")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 2:
            raise InvalidGraph("a graph needs at least two vertices")
        seen: set[tuple[int, int]] = set()
        canon: list[tuple[int, int]] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraph(f"vertex id out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise InvalidGraph(f"self-loop at {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise InvalidGraph(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        canon.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", len(canon))
        object.__setattr__(self, "edges", tuple(canon))
        # canon is sorted, so every neighbour list fills in ascending order
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in canon:
            nbrs[u].append(v)
            nbrs[v].append(u)
        object.__setattr__(self, "adj", tuple(map(tuple, nbrs)))
        object.__setattr__(self, "deg", tuple(map(len, nbrs)))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def max_degree(self) -> int:
        return max(self.deg)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def vertex_set(self, ids: Iterable[int]) -> VertexSet:
        return VertexSet.from_ids(self.n, ids)

    def full_set(self) -> VertexSet:
        return VertexSet(self.n, (1 << self.n) - 1, self.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _reach(adj, seen: bytearray, start: int) -> int:
    """Mark every vertex reachable from start through unmarked vertices;
    returns how many were marked, start included."""
    seen[start] = 1
    order = [start]
    # the loop also visits what it appends, in breadth-first order
    for u in order:
        for w in adj[u]:
            if not seen[w]:
                seen[w] = 1
                order.append(w)
    return len(order)


def is_connected(g: Graph) -> bool:
    return _reach(g.adj, bytearray(g.n), 0) == g.n


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise Disconnected(f"graph with {g.n} vertices and {g.m} edges is disconnected")


def is_star(g: Graph) -> bool:
    return g.m == g.n - 1 and g.max_degree == g.n - 1


def is_cubic(g: Graph) -> bool:
    return all(d == 3 for d in g.deg)


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        order = [start]
        for u in order:
            for w in g.adj[u]:
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    order.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def is_split(g: Graph) -> bool:
    """Degree-sequence split test: the top clique-candidate degrees must
    absorb exactly the edge mass a clique-plus-independent-set allows."""
    d = sorted(g.deg, reverse=True)
    k = 0
    for i, di in enumerate(d, start=1):
        if di < i - 1:
            break
        k = i
    return sum(d[:k]) == k * (k - 1) + sum(d[k:])


def induced_connected(g: Graph, s: VertexSet) -> bool:
    """True when the subgraph induced by s is connected (s must be non-empty).

    Reads only g.adj, so a CubicCycleGraph's own neighbour table serves."""
    if len(s) == 0:
        raise InvalidSubsetSize("connectivity of the empty subgraph is undefined")
    # non-members start out marked, so the search never leaves s
    seen = s.flags().translate(_FLIP)
    start = (s.mask & -s.mask).bit_length() - 1
    return _reach(g.adj, seen, start) == len(s)


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for every line that is neither blank
    nor a '#' comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if body and not body.startswith("#"):
            yield lineno, body


def parse_graph(text: str, require_connectivity: bool = False) -> Graph:
    """Parse the edge-list format: a header line "n m", then m lines "u v".

    Blank lines and lines starting with '#' are ignored.
    """
    rows: list[list[str]] = []
    for lineno, body in _data_lines(text):
        rows.append(body.split())
        if len(rows[-1]) != 2:
            raise ParseError(f"line {lineno}: expected two tokens, got {body!r}")
    if not rows:
        raise ParseError("empty input")
    try:
        header = [int(t) for t in rows[0]]
    except ValueError as exc:
        raise ParseError(f"bad header {rows[0]!r}") from exc
    n, m = header
    if len(rows) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        try:
            u, v = int(row[0]), int(row[1])
        except ValueError as exc:
            raise ParseError(f"bad edge line {row!r}") from exc
        edges.append((u, v))
    g = Graph(n, edges)
    if require_connectivity:
        require_connected(g)
    return g


def emit_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def _json_object(obj: str | dict, *keys: str) -> dict:
    """obj itself, or the JSON text obj decoded; either way an object
    holding every one of keys."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        named = " and ".join(f'"{k}"' for k in keys)
        raise ParseError(f"expected an object with {named}")
    return obj


def _json_ints(value, what: str, pairs: bool = False) -> list:
    """value, a JSON list of integers (of [u, v] integer pairs, returned as
    tuples, with pairs=True), read without coercion: anything that is not
    a list, an item that is a bool, str or float, or a pair of another
    length raises ParseError."""
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{what} must be a list, got {type(value).__name__}")
    if pairs:
        if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in value):
            raise ParseError(f"{what} must be [u, v] pairs")
        items = [x for p in value for x in p]
    else:
        items = value
    for x in items:
        if type(x) is not int:  # bool is an int subclass; str and float are not ints
            raise ParseError(f"{what}: expected an integer, got {x!r}")
    return [tuple(p) for p in value] if pairs else list(value)


def graph_from_json(obj: str | dict) -> Graph:
    obj = _json_object(obj, "n", "edges")
    (n,) = _json_ints([obj["n"]], "n")
    return Graph(n, _json_ints(obj["edges"], "edges", pairs=True))


def set_to_json(s: VertexSet) -> dict:
    return {"set": s.members()}


def set_from_json(obj: str | dict, n: int) -> VertexSet:
    obj = _json_object(obj, "set")
    return VertexSet.from_ids(n, _json_ints(obj["set"], "set"))
