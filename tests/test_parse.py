"""The bulk text parsers and chord-table check against their line-at-a-time
references in parse_reference.py."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdskit import (
    CubicCycleGraph,
    InvalidInstance,
    ParseError,
    PdsKitError,
    cubic,
    emit_cubic,
    emit_graph,
    parse_cubic,
    parse_graph,
    random_cubic_cycle,
)
from pdskit.graph import _canonical_ints, _data_ints

from .parse_reference import check_chords_loop, parse_cubic_lines, parse_graph_lines
from .strategies import graphs

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
    except InvalidInstance:
        with pytest.raises(InvalidInstance):
            CubicCycleGraph(n, chord)
    else:
        assert CubicCycleGraph(n, chord).chord == chord


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
    the parse, and 9.3 MiB while one token str per integer was made."""
    text = emit_cubic(random_cubic_cycle(10**5, seed=0))
    tracemalloc.start()
    try:
        g = parse_cubic(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 10**5
    assert peak < 8 * 2**20


def _assert_bulk(text: str, head: int) -> None:
    """text takes the bulk pass, and it reads what the line pass reads."""
    ints = _canonical_ints(text, head)
    assert ints is not None, text[:80]
    assert ints == _data_ints(text.replace("\n", "\n#\n"), head)


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
        assert parse_cubic(text).chord == (2, 3, 0, 1), text
