"""Hypothesis fuzzing of the cubic input boundary: parse_cubic on
near-canonical and arbitrary text, CubicCycleGraph on arbitrary int
sequences, and ``pdskit cubic FILE`` on text and bytes.  Every input gives
a result or a package error (exit code 1-3), never another exception."""

import contextlib
import io
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pdskit import (
    CubicCycleGraph,
    PdsKitError,
    emit_cubic,
    max_pds_size_cubic,
    parse_cubic,
    random_cubic_cycle,
    solve_hamiltonian_cubic,
)
from pdskit.cli import main

from .strategies import jump

_CHARS = "0123456789 \n\t-+#x.\xa0٣"


_VALID_TEXTS = st.one_of(
    st.builds(
        lambda half, seed: emit_cubic(random_cubic_cycle(2 * half, seed=seed)),
        st.integers(2, 12),
        st.integers(0, 2**32),
    ),
    # no full arc (k odd), so the pattern and answer-mask paths run
    st.sampled_from([emit_cubic(jump(n, 3)) for n in (8, 10, 14, 16, 20, 26)]),
)


@st.composite
def near_canonical_texts(draw):
    """An emitted instance with up to four characters deleted, inserted or
    replaced."""
    text = draw(_VALID_TEXTS)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("delete", "insert", "replace")))
        c = draw(st.sampled_from(_CHARS))
        if op == "insert":
            text = text[:i] + c + text[i:]
        else:
            text = text[:i] + ("" if op == "delete" else c) + text[i + 1 :]
    return text


_TEXTS = st.one_of(near_canonical_texts(), st.text(max_size=60), st.text(_CHARS, max_size=60))


def _solves(g: CubicCycleGraph) -> None:
    out = solve_hamiltonian_cubic(g)  # the solve re-checks its answer
    if out.exceptional is None:
        assert len(out.pds) == max_pds_size_cubic(g.n)
    else:
        assert g.n == 8


@given(_TEXTS)
@settings(max_examples=400, deadline=None)
def test_parse_cubic_gives_an_instance_or_a_package_error(text):
    try:
        g = parse_cubic(text)
    except PdsKitError:
        return
    _solves(g)


@st.composite
def int_sequences(draw):
    """(n, chord): a valid table, a random perfect matching on an even n
    (about two in three hit a cycle edge), or a length near n with entries
    near the vertex range or anywhere."""
    kind = draw(st.sampled_from(("valid", "matching", "ints")))
    if kind != "ints":
        n, seed = 2 * draw(st.integers(2, 12)), draw(st.integers(0, 2**32))
        if kind == "valid":
            return n, list(random_cubic_cycle(n, seed=seed).chord)
        order = list(range(n))
        random.Random(seed).shuffle(order)
        chord = [0] * n
        for a, b in zip(order[::2], order[1::2]):
            chord[a], chord[b] = b, a
        return n, chord
    n = draw(st.integers(-2, 24))
    size = max(0, n + draw(st.sampled_from((0, 0, 0, -1, 1))))
    small = st.integers(-n - 2, n + 2)
    entries = st.one_of(small, small, st.integers(), st.integers(-(2**70), 2**70))
    chord = draw(st.lists(entries, min_size=size, max_size=size))
    return n, draw(st.sampled_from((list, tuple)))(chord)


@given(int_sequences())
@settings(max_examples=500, deadline=None)
def test_cubic_cycle_graph_gives_an_instance_or_a_package_error(case):
    try:
        g = CubicCycleGraph(*case)
    except PdsKitError:
        return
    _solves(g)


def _run_cubic(data) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        if isinstance(data, str):
            path.write_text(data, encoding="utf-8")
        else:
            path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["cubic", str(path), "--json"])


@given(_TEXTS)
@settings(max_examples=200, deadline=None)
def test_cli_cubic_on_text_exits_zero_to_three(text):
    assert _run_cubic(text) in (0, 1, 2, 3)


@given(st.one_of(near_canonical_texts().map(str.encode), st.binary(max_size=60)))
@settings(max_examples=200, deadline=None)
def test_cli_cubic_on_bytes_exits_zero_to_three(data):
    assert _run_cubic(data) in (0, 1, 2, 3)
