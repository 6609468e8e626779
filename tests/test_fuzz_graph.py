"""Hypothesis fuzzing of the general-graph input boundary: parse_graph on
near-canonical and arbitrary text, graph_from_json on JSON text and
decoded values, certificate_from_json on mutated certificates and
arbitrary values, and ``pdskit verify``, ``exact`` and ``approx`` on text
and bytes.  Every input gives a result or a package error (exit code 1-3),
never another exception.

Vertex counts stay small, or far enough past ``graph.MAX_VERTICES`` to be
refused before anything is allocated, so no example builds a large graph."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pdskit import (
    Graph,
    PdsKitError,
    VertexSet,
    bipartite_reduction,
    certificate_from_json,
    certificate_to_json,
    emit_graph,
    graph_from_json,
    graph_to_json,
    max_independent_set_exact,
    parse_graph,
    split_reduction,
    verify_certificate,
)
from pdskit.cli import main
from pdskit.reductions import ReductionCertificate

from .strategies import graphs

_CHARS = "0123456789 \n\t-+#x.,[]{}\":\xa0٣"
_INTS = st.one_of(st.integers(-3, 12), st.sampled_from([2**22 + 1, -(2**63), 10**30]))


def _mutate(draw, text: str) -> str:
    """text with up to four characters deleted, inserted or replaced."""
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("delete", "insert", "replace")))
        c = draw(st.sampled_from(_CHARS))
        if op == "insert":
            text = text[:i] + c + text[i:]
        else:
            text = text[:i] + ("" if op == "delete" else c) + text[i + 1 :]
    return text


@st.composite
def graph_texts(draw):
    """An emitted edge list or JSON graph, mutated, or arbitrary text."""
    kind = draw(st.sampled_from(("edges", "json", "text", "chars")))
    if kind == "text":
        return draw(st.text(max_size=60))
    if kind == "chars":
        return draw(st.text(_CHARS, max_size=60))
    g = draw(graphs(min_n=2, max_n=8, connected=draw(st.booleans())))
    return _mutate(draw, emit_graph(g) if kind == "edges" else json.dumps(graph_to_json(g)))


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, st.floats(allow_nan=False), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12,
)
_PAIRS = st.lists(st.one_of(st.tuples(_INTS, _INTS).map(list), _JSON), max_size=6)


@st.composite
def graph_objects(draw):
    """A decoded graph: n and edges near the valid layout, or any JSON value."""
    if draw(st.booleans()):
        return draw(_JSON)
    obj = {"n": draw(st.one_of(_INTS, _JSON)), "edges": draw(st.one_of(_PAIRS, _JSON))}
    if draw(st.booleans()):
        del obj[draw(st.sampled_from(("n", "edges")))]
    return obj


def _valid_certificates():
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
    _, best = max_independent_set_exact(g)
    out = []
    for inst in (split_reduction(g), bipartite_reduction(g, 2)):
        cert = ReductionCertificate("forward", best, inst.embed_independent_set(best))
        out.append(certificate_to_json(inst, cert))
    return out


_CERTIFICATES = _valid_certificates()
_FIELDS = {
    "kind": st.sampled_from(("split", "bipartite", "other")),
    "direction": st.sampled_from(("forward", "backward", "sideways")),
    "k": _INTS,
    "source_graph": graph_objects(),
    "independent_set": st.lists(_INTS, max_size=6),
    "pds": st.lists(_INTS, max_size=10),
}


@st.composite
def certificate_objects(draw):
    """A valid certificate with some fields replaced, dropped or mangled,
    or any JSON value."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_JSON)
    obj = dict(draw(st.sampled_from(_CERTIFICATES)))
    for key in draw(st.lists(st.sampled_from(sorted(_FIELDS)), max_size=3, unique=True)):
        change = draw(st.sampled_from(("replace", "drop", "any")))
        if change == "drop":
            del obj[key]
        else:
            obj[key] = draw(_FIELDS[key] if change == "replace" else _JSON)
    return obj


@given(graph_texts())
@settings(max_examples=150, deadline=None)
def test_parse_graph_gives_a_graph_or_a_package_error(text):
    try:
        g = parse_graph(text)
    except PdsKitError:
        return
    assert isinstance(g, Graph) and g.n >= 0


@given(st.one_of(graph_texts(), graph_objects()))
@settings(max_examples=150, deadline=None)
def test_graph_from_json_gives_a_graph_or_a_package_error(obj):
    try:
        g = graph_from_json(obj)
    except PdsKitError:
        return
    assert isinstance(g, Graph)


@given(certificate_objects())
@settings(max_examples=150, deadline=None)
def test_certificate_from_json_gives_a_certificate_or_a_package_error(obj):
    try:
        inst, cert = certificate_from_json(obj)
        problems = verify_certificate(inst, cert)
    except PdsKitError:
        return
    assert isinstance(cert.pds, VertexSet) and isinstance(problems, list)


def test_valid_certificates_verify():
    for obj in _CERTIFICATES:
        assert verify_certificate(*certificate_from_json(json.loads(json.dumps(obj)))) == []


def _run(command: str, data, *options: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        if isinstance(data, str):
            path.write_text(data, encoding="utf-8")
        else:
            path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([command, str(path), "--json", *options])


_COMMANDS = st.one_of(
    st.tuples(st.just("verify"), st.text("0123456789,- x", max_size=8).map(lambda s: ("--set", s))),
    st.tuples(st.just("exact"), st.sampled_from(((), ("--connected",)))),
    st.tuples(st.just("approx"), st.sampled_from(((), ("--seed", "2")))),
    st.tuples(st.just("cubic"), st.just(())),
)


@given(_COMMANDS, graph_texts())
@settings(max_examples=100, deadline=None)
def test_cli_on_text_exits_zero_to_three(command, text):
    name, options = command
    assert _run(name, text, *options) in (0, 1, 2, 3)


@given(_COMMANDS, st.one_of(graph_texts().map(str.encode), st.binary(max_size=60)))
@settings(max_examples=100, deadline=None)
def test_cli_on_bytes_exits_zero_to_three(command, data):
    name, options = command
    assert _run(name, data, *options) in (0, 1, 2, 3)
