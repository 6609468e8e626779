import json
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdskit import (
    Graph,
    InvalidArgument,
    InvalidGraph,
    ParseError,
    PdsKitError,
    SplitReduction,
    VerificationFailed,
    VertexSet,
    all_connected_graphs,
    bipartite_reduction,
    certificate_from_json,
    certificate_to_json,
    check_pds,
    half_pds,
    is_star,
    max_independent_set_exact,
    max_pds_exact,
    split_reduction,
    verify_certificate,
)
from pdskit import reductions
from pdskit.reductions import ReductionCertificate

from .graph_reference import is_bipartite, is_split
from .reduction_reference import normalize_pds_restart
from .strategies import graphs

TRIANGLE = Graph(3, [(0, 1), (0, 2), (1, 2)])
DEMO5 = Graph(5, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])


def independent_sets(g, max_size=None):
    cap = g.n if max_size is None else max_size
    for size in range(0, cap + 1):
        for ids in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(ids, 2)):
                yield VertexSet.from_ids(g.n, ids)


class TestSplitStructure:
    def test_block_layout(self):
        inst = split_reduction(DEMO5)
        assert inst.target.n == DEMO5.m + DEMO5.n + 2
        assert inst.anchors == (0, 1)
        assert sorted(inst.edge_ids.values()) == list(range(2, 2 + DEMO5.m))
        assert inst.source_ids == tuple(range(8, 13))
        assert inst.core_size == DEMO5.m + 2

    def test_target_is_split(self):
        assert is_split(split_reduction(DEMO5).target)

    def test_clique_and_attachment(self):
        inst = split_reduction(TRIANGLE)
        t = inst.target
        clique = [0, 1] + sorted(inst.edge_ids.values())
        for u, v in combinations(clique, 2):
            assert t.has_edge(u, v)
        # an edge vertex sees exactly the sources off its endpoints
        for (u, v), eid in inst.edge_ids.items():
            for w in range(TRIANGLE.n):
                expect = w not in (u, v)
                assert t.has_edge(eid, inst.source_ids[w]) == expect
        # the source block is independent and avoids the anchors
        for w, x in combinations(inst.source_ids, 2):
            assert not t.has_edge(w, x)
        for w in inst.source_ids:
            assert not t.has_edge(0, w) and not t.has_edge(1, w)

    def test_rejects_stars_and_disconnected(self):
        with pytest.raises(InvalidArgument, match="undefined on stars"):
            split_reduction(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        with pytest.raises(InvalidArgument, match="is disconnected"):
            split_reduction(Graph(4, [(0, 1), (2, 3)]))


class TestSplitTransfer:
    def test_embed_is_always_a_pds(self):
        inst = split_reduction(DEMO5)
        for is_set in independent_sets(DEMO5):
            s = inst.embed_independent_set(is_set)
            assert len(s) == inst.core_size + len(is_set)
            assert check_pds(inst.target, s).holds

    def test_embed_rejects_dependent_sets(self):
        inst = split_reduction(DEMO5)
        with pytest.raises(InvalidArgument, match=r"^edge \(0, 1\) lies inside the set$"):
            inst.embed_independent_set(VertexSet.from_ids(5, [0, 1]))

    def test_optimum_correspondence(self):
        inst = split_reduction(DEMO5)
        alpha, _ = max_independent_set_exact(DEMO5)
        res = max_pds_exact(inst.target)
        assert res.size == inst.core_size + alpha

    def test_extract_roundtrip(self):
        inst = split_reduction(DEMO5)
        alpha, best = max_independent_set_exact(DEMO5)
        out = inst.extract_independent_set(inst.embed_independent_set(best))
        assert out == best

    def test_normalize_repairs_missing_edge_vertex(self):
        # a PDS that skips edge vertex (1,2) but keeps both endpoint sources:
        # normalization must pull the core in and evict one endpoint
        inst = split_reduction(TRIANGLE)
        eid = inst.edge_ids[(1, 2)]
        others = [i for i in range(inst.core_size) if i != eid]
        s = VertexSet.from_ids(
            inst.target.n, others + [inst.source_ids[1], inst.source_ids[2]]
        )
        assert check_pds(inst.target, s).holds
        fixed = inst.normalize_pds(s)
        assert len(fixed) == len(s)
        assert check_pds(inst.target, fixed).holds
        assert all(v in fixed for v in range(inst.core_size))
        out = inst.extract_independent_set(s)
        assert len(out) == len(s) - inst.core_size == 1

    def test_broken_extraction_is_a_verification_failure(self, monkeypatch):
        # an extraction that spans a source edge is an internal fault, not an input error
        inst = split_reduction(DEMO5)
        core = inst.core_size
        spans = VertexSet(inst.target.n, (1 << core) - 1 | 0b11 << core)  # source edge (0, 1)
        monkeypatch.setattr(SplitReduction, "normalize_pds", lambda self, s: spans)
        with pytest.raises(VerificationFailed, match=r"^edge \(0, 1\) lies inside the set$"):
            inst.extract_independent_set(spans)

    def test_normalize_rejects_non_pds(self):
        inst = split_reduction(TRIANGLE)
        with pytest.raises(InvalidArgument, match="needs a PDS of the target"):
            inst.normalize_pds(VertexSet.from_ids(inst.target.n, [6, 7]))


class TestBipartiteStructure:
    def test_block_layout(self):
        inst = bipartite_reduction(DEMO5, 3)
        n, m, k = DEMO5.n, DEMO5.m, 3
        assert inst.filler_count == m * (n - k - 1) - k + 1 == 4
        assert inst.target.n == inst.filler_count + m + n == 15
        assert inst.threshold == inst.filler_count + m + k == 13
        assert is_bipartite(inst.target)

    def test_size_identity_holds_for_all_k(self):
        for k in range(1, DEMO5.n - 1):
            inst = bipartite_reduction(DEMO5, k)
            ell, n, m = inst.filler_count, DEMO5.n, DEMO5.m
            assert (ell + k - 1) * (n - k) == (n - k - 1) * (ell + m + k - 1)

    def test_k_range(self):
        for k in (0, DEMO5.n - 1, -2):
            with pytest.raises(InvalidArgument, match="need 1 <= k < n-1"):
                bipartite_reduction(DEMO5, k)

    def test_edge_limit_checked_before_the_target_is_built(self, monkeypatch):
        for k in (1, 2, 3):  # filler_count * m edges, and n - 2 source links per edge
            inst = bipartite_reduction(DEMO5, k)
            assert inst.target.m == inst.filler_count * DEMO5.m + DEMO5.m * (DEMO5.n - 2)
        monkeypatch.setattr(reductions, "MAX_EDGES", 125)
        assert bipartite_reduction(DEMO5, 2).target.m == 84
        with pytest.raises(InvalidGraph, match="^target m=126 is above the limit of 125 edges$"):
            bipartite_reduction(DEMO5, 1)

    def test_adjacency(self):
        inst = bipartite_reduction(TRIANGLE, 1)
        t = inst.target
        for f in range(inst.filler_count):
            for eid in inst.edge_ids.values():
                assert t.has_edge(f, eid)
        for (u, v), eid in inst.edge_ids.items():
            for w in range(TRIANGLE.n):
                assert t.has_edge(eid, inst.source_ids[w]) == (w not in (u, v))


class TestBipartiteTransfer:
    def test_embed_needs_k_vertices(self):
        inst = bipartite_reduction(DEMO5, 3)
        with pytest.raises(InvalidArgument, match="independent set of size >= k=3, got 2"):
            inst.embed_independent_set(VertexSet.from_ids(5, [0, 2]))

    def test_embed_reaches_threshold(self):
        inst = bipartite_reduction(DEMO5, 3)
        _, best = max_independent_set_exact(DEMO5)
        s = inst.embed_independent_set(best)
        assert len(s) >= inst.threshold
        assert check_pds(inst.target, s).holds

    def test_extract_roundtrip(self):
        inst = bipartite_reduction(DEMO5, 2)
        _, best = max_independent_set_exact(DEMO5)
        out = inst.extract_independent_set(inst.embed_independent_set(best))
        assert out == best
        assert len(out) >= 2

    def test_normalize_enforces_threshold(self):
        inst = bipartite_reduction(DEMO5, 3)
        small = VertexSet.from_ids(inst.target.n, range(2, 6))
        with pytest.raises(InvalidArgument, match=r"need \|S\| >= 13, got 4"):
            inst.normalize_pds(small)


class TestCertificates:
    def _forward(self, kind, k=None):
        g = DEMO5
        inst = split_reduction(g) if kind == "split" else bipartite_reduction(g, k)
        _, best = max_independent_set_exact(g)
        return inst, ReductionCertificate(
            kind=kind,
            direction="forward",
            k=k,
            independent_set=best,
            pds=inst.embed_independent_set(best),
        )

    def test_valid_split(self):
        inst, cert = self._forward("split")
        assert verify_certificate(inst, cert) == []

    def test_valid_bipartite(self):
        inst, cert = self._forward("bipartite", k=3)
        assert verify_certificate(inst, cert) == []

    def test_tampered_set_is_caught(self):
        inst, cert = self._forward("split")
        bad = ReductionCertificate(
            kind=cert.kind,
            direction=cert.direction,
            k=None,
            independent_set=VertexSet.from_ids(5, [0, 1]),
            pds=cert.pds,
        )
        problems = verify_certificate(inst, bad)
        assert "independent set invalid: edge (0, 1) lies inside the set" in problems

    def test_tampered_pds_is_caught(self):
        inst, cert = self._forward("bipartite", k=3)
        bad = ReductionCertificate(
            kind=cert.kind,
            direction=cert.direction,
            k=3,
            independent_set=cert.independent_set,
            pds=VertexSet.from_ids(inst.target.n, range(2, 8)),
        )
        assert verify_certificate(inst, bad) != []

    def test_kind_mismatch_is_the_only_problem(self):
        inst, cert = self._forward("split")
        wrong = cert._replace(kind="bipartite")
        assert verify_certificate(inst, wrong) == [
            "certificate kind 'bipartite' does not match the instance"
        ]

    def test_backward_extraction_bound(self):
        # a PDS that embeds the 3-set {0, 2, 4} cannot come back as a 1-set
        inst, cert = self._forward("split")
        back = cert._replace(direction="backward", independent_set=VertexSet.from_ids(5, [0]))
        assert len(cert.independent_set) == 3
        assert verify_certificate(inst, back) == ["extraction bound broken: |IS|=1 < |PDS|-core=3"]

    def test_independent_set_below_k(self):
        # a backward certificate whose PDS is small enough for a 2-set, under k = 3
        inst, _ = self._forward("bipartite", k=3)
        small, _ = half_pds(inst.target)
        cert = ReductionCertificate(
            kind="bipartite",
            direction="backward",
            k=3,
            independent_set=VertexSet.from_ids(5, [0, 2]),
            pds=small,
        )
        assert verify_certificate(inst, cert) == ["independent set smaller than k=3"]

    def test_json_roundtrip(self):
        inst, cert = self._forward("bipartite", k=2)
        obj = certificate_to_json(inst, cert)
        text = json.dumps(obj)
        inst2, cert2 = certificate_from_json(json.loads(text))
        assert inst2.target == inst.target
        assert cert2.independent_set == cert.independent_set
        assert cert2.pds == cert.pds
        assert verify_certificate(inst2, cert2) == []

    def test_json_integers_are_not_coerced(self):
        inst, cert = self._forward("bipartite", k=2)
        good = certificate_to_json(inst, cert)
        edges = good["source_graph"]["edges"]
        for key, value in [
            ("independent_set", "".join(map(str, good["independent_set"]))),
            ("independent_set", [float(v) for v in good["independent_set"]]),
            ("pds", [str(v) for v in good["pds"]]),
            ("pds", [True] + good["pds"][1:]),
            ("k", "2"),
            ("k", 2.0),
            ("source_graph", {"n": 5.0, "edges": edges}),
            ("source_graph", {"n": 5, "edges": [f"{u}{v}" for u, v in edges]}),
        ]:
            with pytest.raises(ParseError):
                certificate_from_json({**good, key: value})
        assert verify_certificate(*certificate_from_json(good)) == []

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError):
            certificate_from_json({"kind": "split"})
        with pytest.raises(ParseError):
            certificate_from_json({"kind": "nonsense", "direction": "forward"})


@given(graphs(min_n=3, max_n=6, connected=True), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_split_embed_property(g, rnd):
    from pdskit.graph import is_star

    if is_star(g):
        return
    inst = split_reduction(g)
    # greedy independent set in random order
    order = list(range(g.n))
    rnd.shuffle(order)
    chosen: list[int] = []
    for v in order:
        if all(not g.has_edge(v, w) for w in chosen):
            chosen.append(v)
    s = inst.embed_independent_set(VertexSet.from_ids(g.n, chosen))
    assert check_pds(inst.target, s).holds
    assert inst.extract_independent_set(s) == VertexSet.from_ids(g.n, chosen)


@given(graphs(min_n=3, max_n=8, connected=True), st.data())
@settings(max_examples=60, deadline=None)
def test_block_layout_that_the_shifts_rely_on(g, data):
    assume(not is_star(g))
    k = data.draw(st.integers(min_value=1, max_value=g.n - 2))
    for inst in (split_reduction(g), bipartite_reduction(g, k)):
        core = inst.core_size
        assert inst.source_ids == tuple(range(core, inst.target.n))
        assert inst.edge_ids == {e: core - g.m + i for i, e in enumerate(g.edges)}


@pytest.mark.parametrize("n", [3, 8])
def test_sets_on_the_wrong_vertex_count_are_rejected(n):
    split, bip = split_reduction(DEMO5), bipartite_reduction(DEMO5, 1)
    wrong = VertexSet.from_ids(n, [0, 2])  # members below 5: a shift alone would accept them
    message = f"^set lives on {n} vertices, source graph has 5$"
    for inst in (split, bip):
        with pytest.raises(InvalidArgument, match=message):
            inst.embed_independent_set(wrong)
        good = inst.embed_independent_set(VertexSet.from_ids(5, [0, 2]))
        with pytest.raises(InvalidArgument, match="^set lives on"):
            inst.extract_independent_set(VertexSet(inst.target.n + n - 5, good.mask))
        cert = ReductionCertificate(
            kind="split" if inst is split else "bipartite",
            direction="forward",
            k=None if inst is split else 1,
            independent_set=wrong,
            pds=good,
        )
        with pytest.raises(InvalidArgument, match=message):
            verify_certificate(inst, cert)


def _outcome(normalize, inst, s):
    try:
        return normalize(inst, s)
    except PdsKitError as exc:
        return type(exc), str(exc)


def test_one_pass_normalize_matches_the_restart_loop():
    compared = 0
    for n in range(3, 6):
        for g in all_connected_graphs(n):
            if g.m > 6 or is_star(g):
                continue
            inst = split_reduction(g)
            t = inst.target
            for mask in range(1 << t.n):
                s = VertexSet(t.n, mask)
                if not 2 <= s.size < t.n or not check_pds(t, s).holds:
                    continue
                got = _outcome(SplitReduction.normalize_pds, inst, s)
                assert got == _outcome(normalize_pds_restart, inst, s), (g.edges, s)
                compared += 1
    assert compared == 10505
