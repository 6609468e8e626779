"""The bulk text parsers and chord-table check against their line-at-a-time
references in parse_reference.py."""

import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdskit import (
    CubicCycleGraph,
    InvalidGraph,
    ParseError,
    PdsKitError,
    cubic,
    emit_cubic,
    emit_graph,
    parse_cubic,
    parse_graph,
    random_connected,
    random_cubic_cycle,
)
from pdskit import graph as graph_mod
from pdskit.graph import _canonical_ints, _data_ints

from .parse_reference import check_chords_loop, parse_cubic_lines, parse_graph_lines
from .strategies import graphs, jump

_BLANKS = st.sampled_from(["", " ", "\t", "# a comment", "  # indented", "#", "\t#0 1"])
_PADS = st.sampled_from(["", " ", "\t", " \t "])
_SEPS = st.sampled_from([" ", "  ", "\t", " \t", "\xa0", "\x0b"])
_NOISE = st.sampled_from(
    ["x", "1.5", "-1", "0", "+2", "1_0", "#5", "5#", "99", "٣", "",
     "00", "-0", "007", "--1", "-", "1-2", "9" * 5000]
)


@st.composite
def messy_texts(draw, text: str) -> str:
    """A well-formed input text, rewritten with blank and comment lines,
    odd whitespace and LF or CRLF endings, after up to two corruptions: a
    token dropped, added, replaced by noise or by a copy of another token
    (a repeated vertex), or a whole row deleted or repeated.  Sometimes
    the text comes back untouched, with or without its final newline."""
    keep = draw(st.sampled_from((None, None, None, "\n", "")))
    if keep is not None:
        return text[:-1] + keep
    rows = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        j = draw(st.integers(0, max(len(row) - 1, 0)))
        tokens = [t for r in rows for t in r]
        kind = draw(st.sampled_from(("drop", "add", "noise", "copy", "copy", "delete", "repeat")))
        if kind == "drop" and row:
            del row[j]
        elif kind == "add":
            row.append(draw(_NOISE) or "3")
        elif kind == "noise" and row:
            row[j] = draw(_NOISE)
        elif kind == "copy" and row and tokens:
            row[j] = draw(st.sampled_from(tokens))
        elif kind == "delete":
            del rows[i]
        elif kind == "repeat":
            rows.insert(i, list(row))
    lines = []
    for row in rows:
        lines += draw(st.lists(_BLANKS, max_size=2))
        lines.append(draw(_PADS) + draw(_SEPS).join(row) + draw(_PADS))
    lines += draw(st.lists(_BLANKS, max_size=2))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _outcome(parse, text):
    try:
        return parse(text)
    except PdsKitError as exc:
        return exc


def _same_outcome(parse, reference, text):
    got, want = _outcome(parse, text), _outcome(reference, text)
    if isinstance(want, Exception):
        assert type(got) is type(want), (text, got, want)
    else:
        assert got == want, text
    return got, want


@given(graphs(min_n=2, max_n=7).map(emit_graph).flatmap(messy_texts))
@settings(max_examples=400, deadline=None)
def test_parse_graph_matches_the_line_reference(text):
    got, want = _same_outcome(parse_graph, parse_graph_lines, text)
    if isinstance(want, ParseError) and str(want).startswith("line "):
        assert str(got) == str(want)


_CUBIC_TEXTS = st.builds(
    lambda half, seed: emit_cubic(random_cubic_cycle(2 * half, seed=seed)),
    st.integers(2, 8),
    st.integers(0, 2**32),
)


@given(_CUBIC_TEXTS.flatmap(messy_texts))
@settings(max_examples=400, deadline=None)
def test_parse_cubic_matches_the_line_reference(text):
    _same_outcome(parse_cubic, parse_cubic_lines, text)


@st.composite
def chord_tables(draw):
    """(n, table), n mostly even: arbitrary integers, a permutation, or a
    matching, perfect or with its unmatched vertices as their own chord."""
    n = 2 * draw(st.integers(2, 7)) - draw(st.sampled_from((0, 0, 0, 1)))
    kind = draw(st.sampled_from(("any", "permutation", "matching", "matching")))
    if kind == "any":
        size = draw(st.sampled_from((n, n, n - 1, n + 1)))
        return n, tuple(draw(st.lists(st.integers(-n - 1, n), min_size=size, max_size=size)))
    order = draw(st.permutations(range(n)))
    if kind == "permutation":
        return n, tuple(order)
    chord = list(range(n))
    pairs = n // 2 - draw(st.sampled_from((0, 0, 0, 1)))
    for a, b in zip(order[0::2], order[1::2][:pairs]):
        chord[a], chord[b] = b, a
    return n, tuple(chord)


@given(chord_tables())
@settings(max_examples=500, deadline=None)
def test_chord_checks_match_the_per_vertex_loop(table):
    n, chord = table
    try:
        check_chords_loop(n, chord)
    except InvalidGraph:
        with pytest.raises(InvalidGraph):
            CubicCycleGraph(n, chord)
    else:
        assert tuple(CubicCycleGraph(n, chord).chord) == chord


def test_wrong_token_count_names_the_line():
    for parse, header in ((parse_graph, "3 2"), (parse_cubic, "4")):
        with pytest.raises(ParseError, match=r"^line 4: expected two tokens, got '1 2 3'$"):
            parse(f"# header next\n{header}\n\n 1 2 3 \n0 2\n")
    with pytest.raises(ParseError, match=r"^line 2: expected two tokens, got '4'$"):
        parse_graph("\n4\n0 1\n")


@pytest.mark.parametrize(
    "text",
    ["4\n0 4\n1 3\n", "4\n4 0\n1 3\n", "4\n0 2\n1 9\n", "4\n0 2\n3 -1\n",
     f"4\n0 {2**63}\n1 3\n", f"4\n{2**63} 0\n1 3\n", f"4\n0 2\n1 {2**70}\n",
     "4\n0 2\n0 4\n", "6\n0 2\n0 3\n1 6\n"],
)
def test_parse_cubic_names_an_out_of_range_vertex(text):
    # the fill raises at the first entry >= n, even after a repeated vertex
    with pytest.raises(ParseError) as info:
        parse_cubic(text)
    assert str(info.value) == f"chord vertex out of range for n={text.split()[0]}"


def test_parse_cubic_reports_only_the_fill_as_out_of_range(monkeypatch):
    # an IndexError raised past the fill is a fault, not a vertex >= n
    def fail(g):
        raise IndexError("inside the constructor")

    monkeypatch.setattr(cubic, "_chord_codes", fail)
    with pytest.raises(IndexError, match="inside the constructor"):
        parse_cubic("4\n0 2\n1 3\n")


def test_parse_cubic_frees_its_token_rows():
    """The token rows of a 10^5-vertex text (about 8 MB) must be gone before
    the chord table is built; the peak was near 20 MB while they outlived
    the parse, 9.3 MiB while one token str per integer was made, and 4.95
    MiB while one list held every integer.  The instance holds its 8-byte
    table and n code bytes, 0.86 MiB; a tuple of n ints held 3.90."""
    text = emit_cubic(random_cubic_cycle(10**5, seed=0))
    tracemalloc.start()
    try:
        g = parse_cubic(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 10**5
    assert held < 1.5 * 2**20
    assert peak < 3 * 2**20


def _assert_bulk(text: str, head: int) -> None:
    """text takes the bulk pass to its last block, and it reads what the
    line pass reads."""
    blocks = _canonical_ints(text, head)
    assert blocks is not None, text[:80]
    ints = list(chain.from_iterable(blocks))  # a block that is not JSON raises ValueError
    assert ints == list(chain.from_iterable(_data_ints(text.replace("\n", "\n#\n"), head)))


@given(graphs(min_n=2, max_n=9))
@settings(max_examples=200, deadline=None)
def test_emitted_graph_text_takes_the_bulk_pass(g):
    _assert_bulk(emit_graph(g), 2)


@pytest.mark.parametrize("n", [4, 6, 10, 100, 1000, 10**4])
def test_emitted_cubic_text_takes_the_bulk_pass(n):
    for seed in range(3):
        _assert_bulk(emit_cubic(random_cubic_cycle(n, seed=seed)), 1)


def test_non_canonical_text_falls_through_to_the_line_pass():
    # each is off the canonical layout, or not a JSON integer, yet parses
    for text in ("4\n0 2\n1 3", "4\r\n0 2\r\n1 3\r\n", "4\n0  2\n1 3\n",
                 "4\n0\t2\n1 3\n", "4\n\n0 2\n1 3\n", "4\n00 2\n1 3\n",
                 "4\n0 +2\n1 3\n", "4\n0 2\n1 3\n# end\n", "4\n0 2\n1 ٣\n"):
        assert _canonical_ints(text, 1) is None, text
        assert tuple(parse_cubic(text).chord) == (2, 3, 0, 1), text


# n = 30,000 writes about 180,000 characters: three blocks of BLOCK_CHARS or more
BLOCKED_N = 30_000


def _blocked_cubic_text(last: str | None = None, before: str | None = None) -> str:
    """emit_cubic text of jump(BLOCKED_N, 3), whose last two lines are
    "n-6 n-3" and "n-4 n-1", with those lines replaced when given."""
    lines = emit_cubic(jump(BLOCKED_N, 3)).splitlines()
    assert lines[-2:] == [f"{BLOCKED_N - 6} {BLOCKED_N - 3}", f"{BLOCKED_N - 4} {BLOCKED_N - 1}"]
    lines[-2] = before or lines[-2]
    lines[-1] = last or lines[-1]
    return "\n".join(lines) + "\n"


def _message(parse, text):
    with pytest.raises(PdsKitError) as info:
        parse(text)
    return type(info.value), str(info.value)


def test_canonical_text_in_three_blocks_or_more_parses_to_the_reference():
    text = _blocked_cubic_text()
    assert len(list(_canonical_ints(text, 1))) >= 3
    _assert_bulk(text, 1)
    assert parse_cubic(text) == parse_cubic_lines(text) == jump(BLOCKED_N, 3)
    g = random_connected(5000, 20_000, seed=1)
    text = emit_graph(g)
    assert len(list(_canonical_ints(text, 2))) >= 3
    _assert_bulk(text, 2)
    assert parse_graph(text) == parse_graph_lines(text) == g


@pytest.mark.parametrize("token", ["0", "+"])
def test_a_non_json_token_in_the_last_block_falls_back_to_the_line_pass(token):
    # "029996" is not a JSON int and "+29996" not a token character; both
    # read as 29996 line by line
    n = BLOCKED_N
    text = _blocked_cubic_text(last=f"{token}{n - 4} {n - 1}")
    blocks = _canonical_ints(text, 1)
    if token == "0":  # the layout holds, and only the last block is refused
        assert next(blocks)
        with pytest.raises(ValueError):
            list(blocks)
    else:
        assert blocks is None
    assert parse_cubic(text) == parse_cubic_lines(text) == jump(n, 3)
    g = random_connected(5000, 20_000, seed=1)
    lines = emit_graph(g).splitlines()
    lines[-1] = token + lines[-1]
    text = "\n".join(lines) + "\n"
    assert parse_graph(text) == parse_graph_lines(text) == g


_N = BLOCKED_N
_LATE_FAULTS = {
    # vertex 0 twice: 0's partner 3 no longer points back
    "repeated vertex": ((f"{_N - 4} 0", None), "chord (3, 0) is out of range or not matched"),
    # n-4 paired with itself leaves n-1 unmatched
    "self-pair": ((f"{_N - 4} {_N - 4}", None),
                  f"chord ({_N - 1}, -1) is out of range or not matched"),
    # n-6 and n-1 re-paired, so n-4 meets its cycle neighbour n-3
    "cycle edge": ((f"{_N - 4} {_N - 3}", f"{_N - 6} {_N - 1}"),
                   f"chord ({_N - 4}, {_N - 3}) repeats a cycle edge"),
    "negative vertex": ((f"{_N - 4} -1", None), f"chord vertex out of range for n={_N}"),
    "vertex n": ((f"{_N - 4} {_N}", None), f"chord vertex out of range for n={_N}"),
}


@pytest.mark.parametrize("fault", _LATE_FAULTS)
def test_a_fault_in_a_later_block_keeps_its_message(fault):
    (last, before), message = _LATE_FAULTS[fault]
    text = _blocked_cubic_text(last, before)
    assert len(list(_canonical_ints(text, 1))) >= 3  # the fault is in the third block or later
    got = _message(parse_cubic, text)
    assert got == (ParseError, message)
    assert got == _message(parse_cubic, text.replace("\n", "\n#\n"))  # the line pass
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_mod, "BLOCK_CHARS", len(text))  # the whole text in one block
        assert got == _message(parse_cubic, text)
    assert _message(parse_cubic_lines, text)[0] is ParseError


@st.composite
def canonical_corruptions(draw, text: str) -> str:
    """text with one token replaced by one that keeps the canonical layout:
    noise of digits and '-', or a copy of another token."""
    lines = [line.split(" ") for line in text.splitlines()]
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines[i]) - 1))
    tokens = [t for line in lines for t in line]
    lines[i][j] = draw(st.one_of(
        st.sampled_from(["", "00", "-0", "007", "--1", "-", "1-2", "-1", "0", "99", "9" * 5000]),
        st.sampled_from(tokens),
    ))
    return "\n".join(map(" ".join, lines)) + "\n"


_BLOCK_TEXTS = st.one_of(
    st.tuples(st.just(parse_cubic), _CUBIC_TEXTS.flatmap(canonical_corruptions)),
    st.tuples(st.just(parse_cubic), _CUBIC_TEXTS),
    st.tuples(st.just(parse_graph), graphs(min_n=2, max_n=9).map(emit_graph).flatmap(canonical_corruptions)),
    st.tuples(st.just(parse_graph), graphs(min_n=2, max_n=9).map(emit_graph)),
)


@given(_BLOCK_TEXTS, st.integers(1, 24))
@settings(max_examples=400, deadline=None)
def test_any_block_size_gives_the_one_block_outcome(case, size):
    """Blocks of a few characters put every line boundary, and every fault,
    at or after a block boundary; the outcome and every message are those
    of the one block that the default size gives these texts."""
    parse, text = case
    want = _outcome(parse, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_mod, "BLOCK_CHARS", size)
        got = _outcome(parse, text)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want)), text
    else:
        assert got == want, text
