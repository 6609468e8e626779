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
forward, BACK when at most k steps backward, untagged otherwise.  Each
instance holds one code byte per vertex (1 AHEAD, 2 BACK, 0 untagged).  A
full arc from u exists iff u is not BACK and the vertex k+1 behind u is not
AHEAD; two translates of the codes and one AND of little-endian ints find
the first such u, and a no-full-arc pattern is one bytes comparison.

The answer is re-checked from n and the validated chord matching alone,
independently of the arc logic and without building a Graph: three byte
lanes of membership flags sum to every inside degree, one translate table
tests them all, and the answer's runs along the cycle, joined by its
chords, decide connectivity.
"""

from __future__ import annotations

import random
from array import array
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter, sub
from typing import NamedTuple

from .errors import (
    InstanceTooLarge,
    InvalidArgument,
    InvalidGraph,
    ParseError,
    VerificationFailed,
)
from .graph import MAX_VERTICES, Graph, VertexSet, _data_ints, _reach, is_cubic

PAIRED = "paired"  # tags run AHEAD,AHEAD,BACK,BACK around the cycle
ALTERNATING = "alternating"  # tags strictly alternate
_NOT_BACK = b"\1\1".ljust(256, b"\0")  # translate tables of the code bytes
_NOT_AHEAD = b"\1\0\1".ljust(256, b"\0")
CODE_BLOCK = 4096  # vertices per itemgetter lookup of the code table


def max_pds_size_cubic(n: int) -> int:
    """Size of every maximum PDS of a Hamiltonian cubic graph."""
    return (2 * n + 1) // 3


class CubicCycleGraph:
    """Even cycle plus chord perfect matching; chord[v] is v's partner.

    chord may be any sequence of ints; it is stored as a tuple.  Immutable,
    like Graph; holds only n, chord and codes, the n-byte chord tag string."""

    def __init__(self, n: int, chord):
        raw = chord
        if n < 4 or n % 2:
            raise InvalidGraph(f"need even n >= 4, got {n}")
        if len(raw) != n:
            raise InvalidGraph("chord table must list every vertex")
        # Bulk passes; a slow one names a vertex once one fails.  The matching
        # pass raises IndexError at an entry >= n or < -n (OverflowError past
        # 64 bits) and fails at c < 0 (c != n + c).
        try:
            # Ints made in another order (by value, or by input line) sit at
            # scattered addresses, so reading chord[0], chord[1], ... would
            # miss the cache at every vertex at n = 10^6.  Read back from a
            # compact array, the ints are made anew in vertex order.  A copy
            # of parse_cubic's array('q') would add 8 bytes per vertex.
            arr = raw if isinstance(raw, array) and raw.typecode == "q" else array("q", raw)
            chord = tuple(arr)
            # one gather per block from the 8-byte array, whose reads stay
            # nearer in cache than the tuple's ints; as in _chord_codes, no
            # block has the lone entry itemgetter returns bare
            matched = all(
                itemgetter(*arr[lo : lo + CODE_BLOCK])(arr) == tuple(range(lo, n)[:CODE_BLOCK])
                for lo in range(0, n, CODE_BLOCK)
            )
        except (IndexError, OverflowError):
            matched = False
        if not matched:
            v = next(v for v, c in enumerate(raw) if not 0 <= c < n or raw[c] != v)
            raise InvalidGraph(f"chord ({v}, {raw[v]}) is out of range or not matched")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "chord", chord)
        codes = _chord_codes(self)  # given a matching, 3 marks each loop and cycle edge
        if (v := codes.find(3)) >= 0:
            raise InvalidGraph(f"chord ({v}, {chord[v]}) repeats a cycle edge")
        object.__setattr__(self, "codes", codes)

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


class CubicOutcome(NamedTuple):
    """Either a maximum PDS or the name of an exceptional chord pattern."""

    pds: VertexSet | None
    exceptional: str | None


def _chord_codes(g: CubicCycleGraph) -> bytes:
    """One code byte per vertex: 1 AHEAD, 2 BACK, 0 untagged, 3 c = v or v + 1 (mod n)."""
    n = g.n
    k = g.window
    # code[d] for d = (c - v) mod n (2k < n, so the runs never meet).  As
    # -n < c - v < n, indexing by c - v wraps the same way (1 - n to entry 1).
    # One byte per entry stays in cache at n = 10^6.  No n-entry tuple is built:
    # n and CODE_BLOCK are even, so no block has the lone entry itemgetter returns bare.
    code = b"\3\3" + b"\1" * (k - 1) + bytes(n - 2 * k - 1) + b"\2" * (k - 1) + bytes(1)
    chord = g.chord
    return b"".join(
        bytes(itemgetter(*map(sub, chord[lo : lo + CODE_BLOCK], range(lo, n)))(code))
        for lo in range(0, n, CODE_BLOCK)
    )


def _arc(n: int, start: int, size: int) -> int:
    """Mask of the size consecutive cycle vertices from start (0 <= start < n)."""
    mask = ((1 << size) - 1) << start
    return (mask & ((1 << n) - 1)) | (mask >> n)  # the bits past n - 1 wrap round to 0


def _assert_sealed(g: CubicCycleGraph, start: int, size: int) -> None:
    # both endpoints must keep their chord inside the arc
    n, chord = g.n, g.chord
    if (chord[start] - start) % n >= size or (chord[(start + size - 1) % n] - start) % n >= size:
        raise VerificationFailed("arc endpoints leak a neighbor")


def find_full_arc(g: CubicCycleGraph) -> int | None:
    """Start of the first arc of the optimum size n - k = floor((2n+1)/3),
    if any exists.

    An arc starting at u is sealed iff u is not tagged BACK and the vertex
    u-k-1 is not tagged AHEAD.
    """
    k = g.window
    codes = g.codes
    behind = codes[-k - 1 :] + codes[: -k - 1]  # byte u is the code of u-k-1
    # byte u of each flag int is 0 or 1, so bit 8u is the lowest bit of u
    starts = int.from_bytes(codes.translate(_NOT_BACK), "little")
    starts &= int.from_bytes(behind.translate(_NOT_AHEAD), "little")
    if not starts:
        return None
    start = (starts & -starts).bit_length() // 8
    _assert_sealed(g, start, g.n - k)
    return start


def _pattern(codes: bytes) -> tuple[str, int]:
    """Classify a no-full-arc code string; returns (pattern, rotation).

    Rotation r aligns labels so that AHEAD sits on the even residues
    (alternating) or on residues 0,1 mod 4 (paired)."""
    if 0 in codes:
        raise VerificationFailed("untagged vertex despite no full arc")
    n = len(codes)
    for pattern, unit in ((ALTERNATING, b"\1\2"), (PAIRED, b"\1\1\2\2")):
        if n % len(unit) == 0:
            for r in range(len(unit)):
                # codes[r + i] is unit[i mod len(unit)]
                if codes == (unit[-r:] + unit[:-r]) * (n // len(unit)):
                    return pattern, r
    raise VerificationFailed("tags fit neither recognized pattern")


def _jumps(cr, n: int, j: int) -> bool:
    """Whether every even vertex's chord jumps j ahead, in rotated labels."""
    return all(cr(v) == (v + j) % n for v in range(0, n, 2))


def solve_hamiltonian_cubic(g: CubicCycleGraph) -> CubicOutcome:
    """Maximum PDS of a Hamiltonian cubic graph in O(n).

    Returns the exceptional pattern name instead of a set exactly for the
    two n=8 chord structures whose optimum falls below floor((2n+1)/3).
    Every answer is re-checked: it must have the target size, be
    proportionally dense and induce a connected subgraph, checked in bulk
    passes over n and chord alone; no Graph or neighbour table is built.
    """
    n = g.n
    k = g.window
    start = find_full_arc(g)
    if start is not None:
        return _finish(g, VertexSet(n, _arc(n, start, n - k)))
    pattern, r = _pattern(g.codes)
    if n == 8:
        return CubicOutcome(None, pattern)

    chord = g.chord

    def cr(v: int) -> int:
        return (chord[(v + r) % n] - r) % n

    # the answer is the arc {start..start+n-k} of the rotated labels, less
    # its vertex out
    start, size = 0, n - k + 1
    if n == 10:
        if not _jumps(cr, n, 3):
            raise VerificationFailed("impossible chord map at n=10")
        start, out = 1, 6
    elif n == 14:
        # alternating; the two no-arc matchings with cr(6) == 9 have cr(3) == 0
        out = 6 if cr(6) != 9 else 4
    elif n == 16:
        if _jumps(cr, n, 3):
            out = 4
        elif _jumps(cr, n, 5):
            out = 3
        else:
            raise VerificationFailed("impossible chord map at n=16")
    else:
        if n < 20:
            raise VerificationFailed("unreachable: n in {6, 12, 18} always has a full arc")
        if pattern == ALTERNATING:
            if cr(3) != 0:
                out = 3
            elif cr(n - k - 3) != n - k:
                out = n - k - 3
            else:
                out = k - 2
        else:  # paired
            start = 1
            out = k - 2 if (cr(k - 1) - 1) % n < size else k - 1
    answer = _arc(n, (start + r) % n, size) & ~(1 << (out + r) % n)
    return _finish(g, VertexSet(n, answer))


def _finish(g: CubicCycleGraph, s: VertexSet) -> CubicOutcome:
    target = max_pds_size_cubic(g.n)
    if len(s) != target:
        raise VerificationFailed(f"answer has size {len(s)}, wanted {target}")
    _recheck(g, s)
    return CubicOutcome(s, None)


def _recheck(g: CubicCycleGraph, s: VertexSet) -> None:
    """Raise VerificationFailed unless s (2 <= |s| < n) is a PDS of g that
    induces a connected subgraph.  Reads only g.n and g.chord."""
    n, chord = g.n, g.chord
    flags = s.flags()
    # byte v of each lane is the flag of one neighbour of v: chord[v], v-1
    # and v+1.  Their sum is v's inside degree, at most 3, so no byte
    # carries into the next.  The chord lane's n-entry tuple goes first.
    across = int.from_bytes(bytes(itemgetter(*chord)(flags)), "little")
    member = int.from_bytes(flags, "little")
    before = int.from_bytes(flags[-1:] + flags[:-1], "little")
    inside = before + int.from_bytes(flags[1:] + flags[:1], "little") + across
    # d inside and 3 - d outside fail iff d * (n - |S|) < (3 - d) * (|S| - 1)
    fails = bytes(d * (n - len(s)) < (3 - d) * (len(s) - 1) for d in range(4))
    violators = inside.to_bytes(n, "little").translate(fails.ljust(256, b"\0"))
    if int.from_bytes(violators, "little") & member:
        raise VerificationFailed("answer failed the re-check")
    # a run of S along the cycle starts at each member whose predecessor
    # is not one; S is connected iff the chords inside it join its runs
    starts = (member & ~before).to_bytes(n, "little")
    runs = starts.count(1)
    if runs <= 1:
        return
    # Label L runs from the L-th start to the next; label 0, before the first
    # start, is the tail of a run wrapping from n - 1 to 0 (or empty): join it
    # to the last.  Shared iterators hand each run its stretch, with no copy.
    sizes = [len(part) + 1 for part in starts.split(b"\1")]
    sizes[0] -= 1  # label 0 holds no start
    label = list(chain.from_iterable(map(repeat, count(), sizes))).__getitem__
    ends, kept = iter(chord), iter((member & across).to_bytes(n, "little"))  # kept: chord in S
    joins = [set(map(label, compress(islice(ends, size), islice(kept, size)))) for size in sizes]
    joins[runs].add(0)
    if _reach(joins, bytearray(runs + 1), runs) <= runs:
        raise VerificationFailed("answer is not connected")


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


def _check_cycle_search(n: int) -> None:
    if n > 24:
        raise InstanceTooLarge("cycle search is exponential; capped at n=24")


def _hamiltonian_cycle(g: Graph) -> list[int] | None:
    """A Hamiltonian cycle of g as a vertex order from 0, or None;
    backtracking, so refused above 24 vertices."""
    _check_cycle_search(g.n)
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
        raise InvalidGraph("the graph is not cubic")
    order = _hamiltonian_cycle(g)
    if order is None:
        raise InvalidGraph("the graph has no Hamiltonian cycle")
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
    # n is 0 or 1 with no chord line and at least 2 with one, never negative
    if min(ints) < 0:
        raise ParseError(f"chord vertex out of range for n={n}")
    # a repeated vertex leaves another at -1, which CubicCycleGraph rejects;
    # a compact array lets the parsed ints go before the table is laid out
    chord = array("q", [-1]) * n
    it = islice(ints, 1, None)
    try:
        for u, v in zip(it, it):  # IndexError at a vertex >= n, OverflowError past 64 bits
            chord[u] = v
            chord[v] = u
    except (IndexError, OverflowError):
        raise ParseError(f"chord vertex out of range for n={n}") from None
    del ints, it
    try:
        return CubicCycleGraph(n, chord)
    except InvalidGraph as exc:
        raise ParseError(str(exc)) from exc


def emit_cubic(g: CubicCycleGraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{v} {c}" for v, c in enumerate(g.chord) if v < c)
    return "\n".join(lines) + "\n"
