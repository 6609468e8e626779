"""Linear-time maximum PDS on cubic graphs given with a Hamiltonian cycle.

Instances are an even cycle 0-1-...-(n-1)-0 plus one chord per vertex (a
perfect matching that avoids cycle edges).  The maximum PDS always has
floor((2n+1)/3) vertices, and outside two eight-vertex exceptions one is
found in O(n) as an *arc*: a run of consecutive cycle vertices whose two
endpoints keep both their remaining neighbors inside.  A full arc (of
exactly the target size) exists for most instances; otherwise an arc one
vertex larger exists and dropping one well-chosen interior vertex from
it yields the optimum.

Every vertex is tagged by where its chord lands relative to the walk
direction: AHEAD when the chord reaches at most k = ceil((n-1)/3) steps
forward, BACK when at most k steps backward, untagged otherwise.  A full
arc starting at u exists iff u is not BACK and the vertex k+1 behind u
is not AHEAD, so one O(n) scan decides it.

The answer is re-checked by pds.recheck on the instance itself: g.adj is
a view whose row v, ((v-1) mod n, (v+1) mod n, chord[v]), is made when it
is read, from n and the validated chord matching alone.  So the check
stays independent of the arc logic and costs O(n) without building a
Graph or any neighbour table.
"""

from __future__ import annotations

import random
from array import array
from itertools import count, islice
from operator import eq, itemgetter, sub
from typing import NamedTuple

from .errors import (
    InstanceTooLarge,
    InvalidArgument,
    InvalidGraph,
    InvalidInstance,
    ParseError,
    UnclassifiedChords,
    VerificationFailed,
)
from .graph import MAX_VERTICES, Graph, VertexSet, _data_ints, is_cubic
from .pds import recheck

AHEAD = "ahead"
BACK = "back"

PAIRED = "paired"  # tags run AHEAD,AHEAD,BACK,BACK around the cycle
ALTERNATING = "alternating"  # tags strictly alternate
_TAGS = (None, AHEAD, BACK)  # by classify_chords' codes


def max_pds_size_cubic(n: int) -> int:
    """Size of every maximum PDS of a Hamiltonian cubic graph."""
    return (2 * n + 1) // 3


class CubicCycleGraph:
    """Even cycle plus chord perfect matching; chord[v] is v's partner.

    chord may be any sequence of ints; it is stored as a tuple.  Immutable,
    like Graph, and holds only n and chord: adj and deg are made when read."""

    def __init__(self, n: int, chord):
        raw = chord
        if n < 4 or n % 2:
            raise InvalidInstance(f"need even n >= 4, got {n}")
        if len(raw) != n:
            raise InvalidInstance("chord table must list every vertex")
        # Bulk passes; a slow one names a vertex once one fails.  The matching
        # pass raises IndexError at an entry >= n or < -n (OverflowError past
        # 64 bits) and fails at c < 0 (c != n + c).
        try:
            # Ints made in another order (by value, or by input line) sit at
            # scattered addresses, so reading chord[0], chord[1], ... would
            # miss the cache at every vertex at n = 10^6.  Read back from a
            # compact array, the ints are made anew in vertex order.
            chord = tuple(array("q", raw))
            matched = all(map(eq, itemgetter(*chord)(chord), count()))
        except (IndexError, OverflowError):
            matched = False
        if not matched:
            v = next(v for v, c in enumerate(raw) if not 0 <= c < n or raw[c] != v)
            raise InvalidInstance(f"chord ({v}, {raw[v]}) is out of range or not matched")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "chord", chord)
        # given a matching, c - v in {0, 1, 1 - n} finds every loop and cycle-edge chord
        if not {0, 1, 1 - n}.isdisjoint(map(sub, chord, range(n))):
            v = next(v for v, c in enumerate(chord) if c - v in (0, 1, 1 - n))
            raise InvalidInstance(f"chord ({v}, {chord[v]}) repeats a cycle edge")

    def __setattr__(self, name, value):
        raise AttributeError("CubicCycleGraph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, CubicCycleGraph) and (self.n, self.chord) == (other.n, other.chord)

    def __hash__(self) -> int:
        return hash((self.n, self.chord))

    def __repr__(self) -> str:
        return f"CubicCycleGraph(n={self.n!r}, chord={self.chord!r})"

    @property
    def window(self) -> int:
        """Tag window k = ceil((n-1)/3)."""
        return (self.n + 1) // 3

    @property
    def adj(self) -> _Rows:
        """adj[v] = ((v-1) mod n, (v+1) mod n, chord[v]): the neighbours of
        v, for the re-check.  The arc and tag logic never reads it."""
        return _Rows(self.n, self.chord)

    @property
    def deg(self) -> tuple[int, ...]:
        return (3,) * self.n


class _Rows:
    """The neighbour rows of a cycle plus chords, each made when read."""

    __slots__ = ("n", "chord")

    def __init__(self, n: int, chord: tuple[int, ...]):
        self.n = n
        self.chord = chord

    def __getitem__(self, v: int) -> tuple[int, int, int]:
        n = self.n
        return ((v - 1) % n, (v + 1) % n, self.chord[v])


class Arc(NamedTuple):
    """size consecutive cycle vertices starting at start."""

    n: int
    start: int
    size: int

    @property
    def end(self) -> int:
        return (self.start + self.size - 1) % self.n

    def __contains__(self, v: int) -> bool:
        return (v - self.start) % self.n < self.size

    def vertex_set(self) -> VertexSet:
        n = self.n
        mask = ((1 << self.size) - 1) << self.start
        # the bits past n - 1 wrap round to 0
        return VertexSet(n, (mask & ((1 << n) - 1)) | (mask >> n), self.size)


class CubicOutcome(NamedTuple):
    """Either a maximum PDS or the name of an exceptional chord pattern."""

    pds: VertexSet | None
    exceptional: str | None


def classify_chords(g: CubicCycleGraph) -> tuple[str | None, ...]:
    n = g.n
    k = g.window
    # code[d] for d = (c - v) mod n: 1 AHEAD, 2 BACK, 0 untagged (2k < n, so
    # the runs never meet).  As -n < c - v < n, indexing by c - v itself
    # wraps the same way.  One byte per entry stays in cache at n = 10^6,
    # where a table of n pointers would not.
    code = bytes(2) + b"\1" * (k - 1) + bytes(n - 2 * k - 1) + b"\2" * (k - 1) + bytes(1)
    codes = itemgetter(*map(sub, g.chord, range(n)))(code)
    return itemgetter(*codes)(_TAGS)


def _assert_sealed(g: CubicCycleGraph, arc: Arc) -> None:
    # both endpoints must keep their chord inside the arc
    if g.chord[arc.start] not in arc or g.chord[arc.end] not in arc:
        raise VerificationFailed("arc endpoints leak a neighbor")


def find_full_arc(g: CubicCycleGraph) -> Arc | None:
    """First arc of the optimum size floor((2n+1)/3), if any exists.

    An arc starting at u (of size n-k) is sealed iff u is not tagged BACK
    and the vertex u-k-1 is not tagged AHEAD.
    """
    n = g.n
    if n < 6:
        raise InvalidArgument("arcs need n >= 6")
    k = g.window
    tags = classify_chords(g)
    for u in range(n):
        if tags[u] is not BACK and tags[(u - k - 1) % n] is not AHEAD:
            arc = Arc(n, u, n - k)
            _assert_sealed(g, arc)
            return arc
    return None


def _pattern(tags: tuple[str | None, ...], n: int) -> tuple[str, int]:
    """Classify a no-full-arc tag vector; returns (pattern, rotation).

    Rotation r aligns labels so that AHEAD sits on the even residues
    (alternating) or on residues 0,1 mod 4 (paired)."""
    if any(t is None for t in tags):
        raise UnclassifiedChords("untagged vertex despite no full arc")
    if all(tags[i] != tags[(i + 1) % n] for i in range(n)):
        return ALTERNATING, 0 if tags[0] == AHEAD else 1
    for r in range(n):
        if (
            tags[r] == AHEAD
            and tags[(r + 1) % n] == AHEAD
            and tags[(r + 2) % n] == BACK
        ):
            expected = (AHEAD, AHEAD, BACK, BACK)
            if n % 4 == 0 and all(
                tags[(r + i) % n] == expected[i % 4] for i in range(n)
            ):
                return PAIRED, r
            break
    raise UnclassifiedChords("tags fit neither recognized pattern")


# forced chord tables (in rotated labels, AHEAD on evens) for the sizes
# whose no-full-arc instances admit only finitely many chord maps
_TABLE_N10 = {0: 3, 2: 5, 4: 7, 6: 9, 8: 1}
_TABLE_N16_NEAR = {v: (v + 3) % 16 for v in range(0, 16, 2)}
_TABLE_N16_FAR = {v: (v + 5) % 16 for v in range(0, 16, 2)}


def _match_table(cr, table) -> bool:
    return all(cr(v) == c for v, c in table.items())


def solve_hamiltonian_cubic(g: CubicCycleGraph, verify: bool = True) -> CubicOutcome:
    """Maximum PDS of a Hamiltonian cubic graph in O(n).

    Returns the exceptional pattern name instead of a set exactly for the
    two n=8 chord structures whose optimum falls below floor((2n+1)/3).
    With verify=True (default) the answer must have the target size and
    pass pds.recheck (density and induced connectivity) on g's own
    neighbour rows, g.adj, made from n and chord as they are read; no
    Graph or neighbour table is built.
    """
    n = g.n
    if n == 4:
        return _finish(g, VertexSet.from_ids(4, (0, 1, 2)), verify)
    arc = find_full_arc(g)
    if arc is not None:
        return _finish(g, arc.vertex_set(), verify)
    k = g.window
    pattern, r = _pattern(classify_chords(g), n)
    if n == 8:
        return CubicOutcome(None, pattern)

    chord = g.chord

    def cr(v: int) -> int:
        return (chord[(v + r) % n] - r) % n

    if n == 10:
        if not _match_table(cr, _TABLE_N10):
            raise UnclassifiedChords("impossible chord map at n=10")
        drop = {0, 6, 9}
        kept = [v for v in range(10) if v not in drop]
    elif n == 14:
        # alternating, arc {0..9}; one interior vertex comes out
        if cr(6) != 9:
            out = 6
        elif cr(3) != 0:
            out = 3
        else:
            out = 4
        kept = [v for v in range(10) if v != out]
    elif n == 16:
        if _match_table(cr, _TABLE_N16_NEAR):
            out = 4
        else:
            if not _match_table(cr, _TABLE_N16_FAR):
                raise UnclassifiedChords("impossible chord map at n=16")
            out = 3
        kept = [v for v in range(12) if v != out]
    else:
        if n < 20:
            raise UnclassifiedChords("unreachable: n in {6, 12, 18} always has a full arc")
        if pattern == ALTERNATING:
            # arc {0..n-k}
            size = n - k + 1
            if cr(3) != 0:
                out = 3
            elif cr(n - k - 3) != n - k:
                out = n - k - 3
            else:
                out = k - 2
            kept = [v for v in range(size) if v != out]
        else:
            # paired: arc {1..n-k+1}
            arc1 = Arc(n, 1, n - k + 1)
            out = k - 2 if cr(k - 1) in arc1 else k - 1
            kept = [v % n for v in range(1, n - k + 2) if v != out]
    answer = VertexSet.from_ids(n, ((v + r) % n for v in kept))
    return _finish(g, answer, verify)


def _finish(g: CubicCycleGraph, s: VertexSet, verify: bool) -> CubicOutcome:
    if verify:
        target = max_pds_size_cubic(g.n)
        if len(s) != target:
            raise VerificationFailed(f"answer has size {len(s)}, wanted {target}")
        recheck(g, s, "answer", connected=True)
    return CubicOutcome(s, None)


def random_cubic_cycle(n: int, seed: int | None = None) -> CubicCycleGraph:
    """Uniform over chord matchings: shuffle, pair up, retry until no pair
    duplicates a cycle edge."""
    if n > MAX_VERTICES:
        raise InvalidGraph(f"n={n} is above the limit of {MAX_VERTICES} vertices")
    if n < 4 or n % 2:
        raise InvalidArgument(f"need even n >= 4, got {n}")
    rng = random.Random(seed)
    order = list(range(n))
    while True:
        rng.shuffle(order)
        chord = [-1] * n
        ok = True
        for i in range(0, n, 2):
            u, v = order[i], order[i + 1]
            if (u - v) % n in (1, n - 1):
                ok = False
                break
            chord[u] = v
            chord[v] = u
        if ok:
            return CubicCycleGraph(n, chord)


def all_cubic_cycles(n: int):
    """Every valid chord matching on the n-cycle, lexicographically."""
    if n < 4 or n % 2:
        raise InvalidArgument(f"need even n >= 4, got {n}")
    chord = [-1] * n

    def rec():
        u = -1
        for v in range(n):
            if chord[v] < 0:
                u = v
                break
        if u < 0:
            yield CubicCycleGraph(n, tuple(chord))
            return
        for v in range(u + 1, n):
            if chord[v] < 0 and (v - u) % n not in (1, n - 1):
                chord[u] = v
                chord[v] = u
                yield from rec()
                chord[u] = -1
                chord[v] = -1

    yield from rec()


def _hamiltonian_cycle(g: Graph) -> list[int] | None:
    """A Hamiltonian cycle of g as a vertex order from 0, or None;
    backtracking, so refused above 24 vertices."""
    if g.n > 24:
        raise InstanceTooLarge("cycle search is exponential; capped at n=24")
    used = bytearray(g.n)
    used[0] = 1
    order = [0]

    def rec() -> bool:
        v = order[-1]
        if len(order) == g.n:
            return g.has_edge(v, 0)
        for w in g.adj[v]:
            if not used[w]:
                used[w] = 1
                order.append(w)
                if rec():
                    return True
                order.pop()
                used[w] = 0
        return False

    return order if rec() else None


def _cubic_from_graph(g: Graph) -> tuple[CubicCycleGraph, list[int]]:
    """g relabelled along a Hamiltonian cycle, and that cycle: cycle
    position i is the input vertex order[i]."""
    if not is_cubic(g):
        raise InvalidInstance("--find-cycle needs a cubic graph")
    order = _hamiltonian_cycle(g)
    if order is None:
        raise InvalidInstance("the graph has no Hamiltonian cycle")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    chord = [-1] * g.n
    for i, v in enumerate(order):
        prev_v = order[i - 1]
        next_v = order[(i + 1) % g.n]
        third = next(w for w in g.adj[v] if w not in (prev_v, next_v))
        chord[i] = pos[third]
    return CubicCycleGraph(g.n, chord), order


def parse_cubic(text: str) -> CubicCycleGraph:
    """Cycle-graph format: a line "n", then n/2 chord lines "u v"."""
    ints = _data_ints(text, 1)
    if not ints:
        raise ParseError("expected a single-token header line with n")
    n = ints[0]
    if len(ints) - 1 != n // 2 * 2:
        raise ParseError(f"expected {n // 2} chord lines, found {(len(ints) - 1) // 2}")
    # n >= 2 once there is a chord line, so n itself never trips the minimum
    if len(ints) > 1 and (min(ints) < 0 or max(islice(ints, 1, None)) >= n):
        raise ParseError(f"chord vertex out of range for n={n}")
    # a repeated vertex leaves another at -1, which CubicCycleGraph rejects;
    # a compact array lets the parsed ints go before the table is laid out
    chord = array("q", [-1]) * n
    it = islice(ints, 1, None)
    for u, v in zip(it, it):
        chord[u] = v
        chord[v] = u
    del ints, it
    try:
        return CubicCycleGraph(n, chord)
    except InvalidInstance as exc:
        raise ParseError(str(exc)) from exc


def emit_cubic(g: CubicCycleGraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{v} {c}" for v, c in enumerate(g.chord) if v < c)
    return "\n".join(lines) + "\n"
