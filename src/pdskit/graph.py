"""Undirected simple graphs and vertex subsets over dense integer ids.

Vertices are always 0..n-1.  Subsets are stored as bitmasks so the
exhaustive solvers can treat a whole set as one machine-word-ish int;
conversion helpers go through bytes so the same type stays usable on
graphs with a million vertices.
"""

from __future__ import annotations

import json
from itertools import chain, compress, islice, starmap
from operator import itemgetter, lt
from typing import Iterable, Iterator

from .errors import InvalidArgument, InvalidGraph, ParseError

_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_NO_TOKEN_CHARS = dict.fromkeys(map(ord, "0123456789-"))
_TO_COMMAS = str.maketrans(" \n", ",,")
_SECOND = itemgetter(1)
# Canonical text per json.loads call, about 1,500 lines.  2**13 to 2**16
# parse at one speed; at 2**14 the traced peak of a 10^5-vertex parse_cubic
# is 1.14 MiB, against 2.03 at 2**16, as two blocks of ints live at once.
BLOCK_CHARS = 2**14

# The most vertices a Graph may have.  The n neighbour rows are allocated
# before any edge is read, so a header such as "1000000000 0" must be
# refused first; 2**22 is far above the largest approx-scaling graph (131,072).
MAX_VERTICES = 2**22

# The most edges a generated graph may have.  random_connected and the
# two reductions build their edge list before any Graph can refuse it;
# random_connected peaked at 270-430 bytes per edge (edge set, the dense
# draw's complement list, sorted tuple, neighbour rows), so 2**22 edges
# stay under 2 GB.  The largest approx-scaling graph has 2**19.
MAX_EDGES = 2**22

MEMBER_BITS = 12  # the widest mask member_table covers, and approx.SCAN_CUTOFF
_members: tuple[bytes, ...] = (b"",)


class VertexSet:
    """Immutable subset of the vertices of an n-vertex graph."""

    __slots__ = ("n", "mask", "size")

    def __init__(self, n: int, mask: int):
        if n < 0 or mask < 0 or mask >> n:
            raise InvalidArgument(f"mask does not fit a {n}-vertex graph")
        _set_n(self, n)
        _set_mask(self, mask)
        # always counted, never taken from a caller: the re-check reads it
        _set_size(self, mask.bit_count())

    @classmethod
    def from_ids(cls, n: int, ids: Iterable[int]) -> "VertexSet":
        buf = bytearray((n + 7) // 8 or 1)
        for v in ids:
            if not 0 <= v < n:
                raise InvalidArgument(f"vertex {v} out of range for n={n}")
            buf[v >> 3] |= 1 << (v & 7)
        return cls(n, int.from_bytes(bytes(buf), "little"))

    def members(self) -> list[int]:
        return list(compress(range(self.n), self.flags()))

    def flags(self) -> bytearray:
        """0/1 membership table of length n."""
        # guard bit n keeps the leading zeros; [:2:-1] drops it and "0b"
        # and puts the lowest bit first
        digits = bin(self.mask | 1 << self.n).encode()[:2:-1]
        return bytearray(digits.translate(_FROM_DIGITS))

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


# the slot descriptors' setters, bound once: __init__ is on the hot path of
# the small-graph solvers, and these skip object.__setattr__'s lookup
_set_n, _set_mask, _set_size = VertexSet.n.__set__, VertexSet.mask.__set__, VertexSet.size.__set__


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Connectivity is deliberately not enforced here; solver entry points
    check it themselves so that gadget graphs can be assembled piecewise.
    """

    __slots__ = ("n", "m", "adj", "deg", "_connected", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 2:
            raise InvalidGraph("a graph needs at least two vertices")
        if n > MAX_VERTICES:
            raise InvalidGraph(f"n={n} is above the limit of {MAX_VERTICES} vertices")
        # an iterator is never materialised: it streams into the loop
        if isinstance(edges, (list, tuple)) and _canonical_edges(edges, n):
            canon = edges
        else:  # checked edge by edge, so the first bad edge is named
            seen: set[tuple[int, int]] = set()
            canon = []
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
        _fill(self, n, canon)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once, as (u, v) with u < v, in ascending order: built
        from adj on each read, as no solver reads it.  A list comprehension
        measured faster than a generator, at n = 7 and at n = 2,048."""
        return tuple([(u, v) for u, row in enumerate(self.adj) for v in row if v > u])

    @property
    def max_degree(self) -> int:
        return max(self.deg)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj  # len(adj) is n

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _fill(g: Graph, n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Give g its fields from pairs, canonical edges (as _canonical_edges
    asks) on 2 <= n <= MAX_VERTICES vertices: the one row fill behind the
    constructor and parse_graph's blocks alike."""
    nbrs: list = [[] for _ in range(n)]
    for u, v in pairs:  # pairs ascend, so every row fills in ascending order
        nbrs[u].append(v)
        nbrs[v].append(u)
    for v, row in enumerate(nbrs):  # in place: each list goes as its tuple comes
        nbrs[v] = tuple(row)
    deg = tuple(map(len, nbrs))
    put = object.__setattr__  # one lookup for the six slots: tiny graphs feel it
    put(g, "n", n)
    put(g, "m", sum(deg) // 2)
    put(g, "adj", tuple(nbrs))
    put(g, "deg", deg)
    put(g, "_connected", None)
    put(g, "_masks", None)
    return g


def _canonical_edges(pairs: list | tuple, n: int) -> bool:
    """True when pairs are already canonical: they strictly ascend, u < v
    in each, the first u is at least 0 and the largest v below n.
    Ascending order rules out duplicates and u < v rules out self-loops,
    so these C-level scans replace the per-edge checks.  emit_graph's
    text, the enumerator, the path, star and cycle families and the split
    reduction give such lists."""
    try:
        return (
            all(starmap(lt, pairs))
            and all(map(lt, pairs, islice(pairs, 1, None)))
            and (not pairs or (pairs[0][0] >= 0 and max(map(_SECOND, pairs)) < n))
        )
    except TypeError:  # items that do not compare as pairs: the loop names the fault
        return False


def _reach(adj, seen: bytearray, start: int) -> int:
    """Mark every vertex reachable from start through unmarked vertices;
    returns how many were marked, start included."""
    seen[start] = 1
    # depth-first from a stack, which holds only the unexplored frontier: a
    # breadth-first order list keeps every vertex reached, about four times
    # the stack's peak on a cubic answer, and is slower at n = 10^6
    stack = [start]
    marked = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
                marked += 1
    return marked


def _mask_component(adjm, mask: int) -> int:
    """The component of mask's lowest vertex in the subgraph that mask
    induces, as a mask (0 for an empty mask); adjm[v] is the neighbour
    mask of v.  Breadth-first, one frontier mask per round."""
    comp = frontier = mask & -mask
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adjm[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & mask & ~comp
        comp |= frontier
    return comp


def is_connected(g: Graph) -> bool:
    if g._connected is None:  # a Graph is immutable: search once
        object.__setattr__(g, "_connected", _reach(g.adj, bytearray(g.n), 0) == g.n)
    return g._connected


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Neighbourhood of every vertex as a bitmask: bit w of entry v is set
    iff vw is an edge.  Read from g.adj alone, and kept on g as
    is_connected keeps its answer.  Costs about n^2/16 bytes, so only the
    capped exact solvers and the small-graph local search build it;
    check_pds reads it when it is held."""
    if g._masks is None:
        object.__setattr__(g, "_masks", tuple([sum([1 << w for w in nbrs]) for nbrs in g.adj]))
    return g._masks


def member_table(n: int) -> tuple[bytes, ...]:
    """Entry mask lists mask's set bits in ascending order, for every mask below
    2**n at least (n <= MEMBER_BITS; 6 KB at 7, 193 KB at 12).  A wider table is
    built whole and stored by one assignment: no thread reads a half-built one."""
    global _members
    table = _members  # the one read: a racing caller may store a narrower table
    if len(table) < 1 << n:
        rows = list(table)
        for v in range(len(rows).bit_length() - 1, n):  # masks with top bit v follow those below
            rows += [row + bytes((v,)) for row in rows]
        _members = table = tuple(rows)
    return table


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise InvalidArgument(f"graph with {g.n} vertices and {g.m} edges is disconnected")


def is_star(g: Graph) -> bool:
    return g.m == g.n - 1 and g.max_degree == g.n - 1


def induced_connected(g: Graph, s: VertexSet) -> bool:
    """True when the subgraph induced by s is connected (s must be non-empty)."""
    if len(s) == 0:
        raise InvalidArgument("connectivity of the empty subgraph is undefined")
    # non-members start out marked, so the search never leaves s
    seen = s.flags().translate(_FLIP)
    start = (s.mask & -s.mask).bit_length() - 1
    return _reach(g.adj, seen, start) == len(s)


def _canonical_ints(text: str, head: int) -> Iterator[list[int]] | None:
    """The integers of text, one list per block of whole lines, when text
    has the canonical layout that emit_graph and emit_cubic write, else
    None.  Canonical: ASCII digits and '-' only, one space between the
    tokens of a line and a newline after each line, head tokens on the
    first line and two on every other.  The layout of the whole text is
    checked before any block is decoded.  One json.loads converts each
    block of about BLOCK_CHARS characters, so no token str is made and no
    list of every integer is.  A block that is not JSON (empty tokens,
    "00", "--1", over-long tokens) raises ValueError when it is reached."""
    if not text.isascii() or text[-1:] != "\n":
        return None
    # deleting the token characters leaves exactly the separators of the layout
    seps = text.translate(_NO_TOKEN_CHARS)
    first = " " * (head - 1) + "\n"
    if seps != first + " \n" * ((len(seps) - len(first)) // 2):
        return None
    return _blocks(text)


def _blocks(text: str) -> Iterator[list[int]]:
    """The integers of canonical text, one json.loads per block of whole
    lines; ValueError at a block that is not JSON."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + BLOCK_CHARS) + 1 or len(text)  # a block ends with its line
        # the final newline's comma takes a 0, popped below, so that the
        # block is not sliced again
        ints = json.loads(f"[{text[start:end].translate(_TO_COMMAS)}0]")
        ints.pop()
        yield ints
        start = end


def _data_ints(text: str, head: int = 2) -> Iterator[list[int]]:
    """Every integer on the lines of text that are neither blank nor '#'
    comments, handed out in lists of whole lines.  The first such line
    holds head tokens (1 for the cycle format's n, 2 for the edge-list
    header), every later one two.

    Canonical text is decoded block by block (_canonical_ints); anything
    else goes line by line, which also names the line at fault, and comes
    as one list.  A canonical block that is not JSON, first or later, hands
    the text to the line pass, which hands out only what follows the blocks
    already given: their lines read the same either way.  No line's token
    list outlives its line for the cyclic collector to walk."""
    blocks = _canonical_ints(text, head)
    done = 0
    if blocks is not None:
        try:
            for ints in blocks:
                done += len(ints)  # before the reader, which may pop the header
                yield ints
            return
        except ValueError:
            pass
    tokens: list[str] = []
    add = tokens.extend
    width = head
    for lineno, line in enumerate(text.splitlines(), start=1):
        t = line.split()
        if t and t[0][0] != "#":
            if len(t) != width:
                if width == 1:
                    raise ParseError("expected a single-token header line with n")
                raise ParseError(f"line {lineno}: expected two tokens, got {line.strip()!r}")
            width = 2
            add(t)
    try:
        yield list(map(int, islice(tokens, done, None)))
    except ValueError as exc:
        raise ParseError(f"bad token: {exc}") from exc


def _canonical_blocks(blocks: list[list[int]], n: int) -> bool:
    """_canonical_edges of the pairs u, v that blocks hold, by C-level scans
    over each block's u and v slices; the last pair of one block is compared
    with the first of the next."""
    last = (0, 0)  # the first pair must follow it: u >= 0, as u < v
    for us, vs in ((ints[::2], ints[1::2]) for ints in blocks if ints):
        if not (last < (us[0], vs[0]) and all(map(lt, us, vs)) and max(vs) < n):
            return False
        if not all(map(lt, zip(us, vs), islice(zip(us, vs), 1, None))):
            return False
        last = us[-1], vs[-1]
    return True


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: a header line "n m", then m lines "u v".

    Blank lines and lines starting with '#' are ignored.  The token blocks
    of _data_ints are the one copy of the integers.  Canonical text, as
    emit_graph writes it, fills the rows straight from them; other text,
    or an n that Graph refuses, takes the constructor's edge-by-edge route,
    which names the first fault.
    """
    blocks = list(_data_ints(text))
    if not blocks[0]:
        raise ParseError("empty input")
    n, m = blocks[0][:2]
    found = sum(map(len, blocks)) // 2 - 1  # every block holds whole lines of two
    if found != m:
        raise ParseError(f"header promises {m} edges, found {found}")
    del blocks[0][:2]
    pairs = chain.from_iterable(zip(it, it) for it in map(iter, blocks))  # zip reuses its tuple
    if 2 <= n <= MAX_VERTICES and _canonical_blocks(blocks, n):
        return _fill(Graph.__new__(Graph), n, pairs)
    return Graph(n, pairs)


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
        except RecursionError:  # the decoder recurses once per nesting level
            raise ParseError("bad JSON: nested too deeply") from None
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


def set_from_json(obj: str | dict, n: int) -> VertexSet:
    ids = _json_ints(_json_object(obj, "set")["set"], "set")
    if len(set(ids)) != len(ids):  # as verify --set refuses them
        raise ParseError("set must list distinct integers")
    return VertexSet.from_ids(n, ids)
