"""The result records are NamedTuples and CubicCycleGraph a plain
immutable class.  Construction, field reads, immutability, equality,
hashing and repr text stay those of the frozen dataclasses they replaced:
hash is the hash of the tuple of fields, and the repr is Name(field=value)."""

import pytest

from pdskit import (
    ApproxTrace,
    BipartiteReduction,
    CubicCycleGraph,
    CubicOutcome,
    ExactResult,
    Graph,
    MoveRecord,
    ReductionCertificate,
    SplitReduction,
    VertexSet,
    bipartite_reduction,
    half_pds,
    max_pds_exact,
    random_cubic_cycle,
    solve_hamiltonian_cubic,
    split_reduction,
)
from pdskit.cubic import _finish
from pdskit.generators import FixtureRecord, cycle_graph

P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
S012 = VertexSet.from_ids(5, [0, 1, 2])
MOVE = MoveRecord(1, 0, 2, 4, 2)
SPLIT = split_reduction(P5)
BIP = bipartite_reduction(P5, 2)

# (class, fields in order, hashable, repr text)
CASES = [
    (
        ApproxTrace,
        {"initial": S012, "moves": (MOVE,), "final": S012},
        True,
        "ApproxTrace(initial=VertexSet(n=5, {0, 1, 2}), moves=(MoveRecord(vertex=1, "
        "inside_degree=0, outside_degree=2, cut_before=4, cut_after=2),), "
        "final=VertexSet(n=5, {0, 1, 2}))",
    ),
    (
        ExactResult,
        {"size": 3, "witness": S012, "optima": None, "subsets_checked": 1},
        True,
        "ExactResult(size=3, witness=VertexSet(n=5, {0, 1, 2}), optima=None, subsets_checked=1)",
    ),
    (
        FixtureRecord,
        {"name": "p5", "graph": P5, "expected": {"max_pds": 3}, "chords": None},
        False,
        "FixtureRecord(name='p5', graph=Graph(n=5, m=4), expected={'max_pds': 3}, chords=None)",
    ),
    (
        CubicOutcome,
        {"pds": None, "exceptional": "paired"},
        True,
        "CubicOutcome(pds=None, exceptional='paired')",
    ),
    (
        ReductionCertificate,
        {
            "kind": "split",
            "direction": "forward",
            "k": None,
            "independent_set": VertexSet.from_ids(5, [0, 2]),
            "pds": VertexSet.from_ids(11, [0, 1, 2]),
        },
        True,
        "ReductionCertificate(kind='split', direction='forward', k=None, "
        "independent_set=VertexSet(n=5, {0, 2}), pds=VertexSet(n=11, {0, 1, 2}))",
    ),
    (
        SplitReduction,
        dict(zip(SplitReduction._fields, SPLIT)),
        False,
        "SplitReduction(source=Graph(n=5, m=4), target=Graph(n=11, m=27), anchors=(0, 1), "
        "edge_ids={(0, 1): 2, (1, 2): 3, (2, 3): 4, (3, 4): 5}, source_ids=(6, 7, 8, 9, 10))",
    ),
    (
        BipartiteReduction,
        dict(zip(BipartiteReduction._fields, BIP)),
        False,
        "BipartiteReduction(source=Graph(n=5, m=4), target=Graph(n=16, m=40), k=2, "
        "filler_count=7, edge_ids={(0, 1): 7, (1, 2): 8, (2, 3): 9, (3, 4): 10}, "
        "source_ids=(11, 12, 13, 14, 15))",
    ),
    (
        CubicCycleGraph,
        {"n": 6, "chord": (3, 4, 5, 0, 1, 2)},
        True,
        "CubicCycleGraph(n=6, chord=(3, 4, 5, 0, 1, 2))",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, hashable, text", CASES, ids=[case[0].__name__ for case in CASES]
)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls, fields, hashable, text):
        assert cls(*fields.values()) == cls(**fields)

    def test_field_reads(self, cls, fields, hashable, text):
        rec = cls(**fields)
        for name, value in fields.items():
            assert getattr(rec, name) == value

    def test_assignment_raises(self, cls, fields, hashable, text):
        rec = cls(**fields)
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
        assert {name: getattr(rec, name) for name in fields} == fields

    def test_equality_and_hash(self, cls, fields, hashable, text):
        rec, twin = cls(**fields), cls(**fields)
        assert rec == twin and not rec != twin
        if hashable:
            assert hash(rec) == hash(twin) == hash(tuple(fields.values()))
        else:
            with pytest.raises(TypeError):
                hash(rec)

    def test_repr(self, cls, fields, hashable, text):
        assert repr(cls(**fields)) == text


def test_a_changed_field_breaks_equality():
    assert CubicCycleGraph(6, (3, 4, 5, 0, 1, 2)) != CubicCycleGraph(6, (2, 4, 0, 5, 1, 3))
    assert CubicCycleGraph(6, (3, 4, 5, 0, 1, 2)) != (6, (3, 4, 5, 0, 1, 2))


def test_records_unpack_as_tuples():
    size, witness, optima, checked = max_pds_exact(P5)
    assert (size, witness, optima) == (3, S012, None) and checked >= 1
    initial, moves, final = half_pds(cycle_graph(6), seed=3)[1]
    assert len(moves) == 2 and len(final) in (3, 4)
    pds, exceptional = solve_hamiltonian_cubic(random_cubic_cycle(12, seed=2))
    assert exceptional is None and len(pds) == 8


def test_equal_cubic_instances_hash_equal():
    a, b = random_cubic_cycle(20, seed=1), random_cubic_cycle(20, seed=1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert CubicCycleGraph(20, list(a.chord)) == a  # a list table is stored as a tuple


def test_cubic_instance_rejects_cached_attribute_assignment():
    g = random_cubic_cycle(20, seed=1)
    for name in ("n", "chord", "window"):
        with pytest.raises(AttributeError):
            setattr(g, name, ())
    assert vars(g).keys() == {"n", "chord", "codes"}
    assert len(g.codes) == g.n


def test_finish_keeps_only_n_chord_and_codes():
    g = random_cubic_cycle(20, seed=1)
    out = _finish(g, solve_hamiltonian_cubic(g).pds)
    assert out.pds is not None
    assert vars(g).keys() == {"n", "chord", "codes"}  # the re-check cached nothing
    assert len(g.codes) == g.n


def test_reduction_properties_from_the_mixin():
    for k in (1, 2, 3):
        inst = bipartite_reduction(P5, k)
        assert inst.threshold == inst.filler_count + P5.m + k
        assert inst.core_size == inst.filler_count + P5.m
    assert split_reduction(P5).core_size == P5.m + 2
    is_set = VertexSet.from_ids(5, [0, 2])
    assert SPLIT.extract_independent_set(SPLIT.embed_independent_set(is_set)) == is_set
