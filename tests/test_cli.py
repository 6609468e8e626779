import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pdskit import (
    CubicCycleGraph,
    VerificationFailed,
    bench,
    cli,
    errors,
    generators,
    reductions,
    emit_cubic,
    emit_graph,
    fixture,
    graph_from_json,
    graph_to_json,
    parse_cubic,
    random_cubic_cycle,
)
from pdskit.cli import main
from pdskit.generators import _connected_cache
from pdskit.graph import MAX_EDGES, MAX_VERTICES

from .cubic_reference import to_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestVerify:
    def test_positive(self, capsys):
        code, out, _ = run(capsys, "verify", "k4", "--set", "0,1,2")
        assert code == 0 and "pds true" in out

    def test_negative_exit_one(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "path4", "--set", "0,3")
        assert code == 1
        assert payload["holds"] is False
        assert payload["unsatisfied"] == [
            {"vertex": 0, "inside": 0, "outside": 1},
            {"vertex": 3, "inside": 0, "outside": 1},
        ]

    def test_connected_flag_tightens(self, capsys):
        # a valid but disconnected PDS fails under --connected
        code, payload, _ = run_json(
            capsys, "verify", "cubic10", "--set", "0,1,2,5,6,7,8", "--connected"
        )
        assert payload["holds"] is True and payload["connected"] is False
        assert code == 1

    def test_set_file(self, capsys, tmp_path):
        f = tmp_path / "s.json"
        f.write_text('{"set": [0, 1, 2]}')
        code, _, _ = run(capsys, "verify", "k4", "--set-file", str(f))
        assert code == 0

    def test_bad_set_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "k4", "--set", "0,zebra")
        assert code == 2 and "error" in err

    def test_oversized_set_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "k4", "--set", "0,1,2,3")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "k4", "--set", "0,0,1"),
            ("verify", "k4", "--set", "a"),
            ("approx", "k4", "--init", "1,0,1"),
            ("exact", "k4", "--extend", "0 0"),
        ],
        ids=" ".join,
    )
    def test_id_list_with_a_repeat_or_a_word_is_usage_error(self, capsys, argv):
        # a repeat dropped in silence would answer for a set other than the one typed
        flag, text = argv[-2:]
        want = f"error: {flag} must list distinct integers, got {text!r}\n"
        assert run(capsys, *argv) == (2, "", want)


class TestExact:
    def test_fixture_by_name(self, capsys):
        code, payload, _ = run_json(capsys, "exact", "k4")
        assert code == 0
        assert payload["size"] == 3 and payload["witness"] == [0, 1, 2]
        assert payload["verified"] is True

    def test_connected_example(self, capsys):
        code, payload, _ = run_json(capsys, "exact", "--connected", "cubic10")
        assert code == 0 and payload["size"] == 5 and payload["connected"] is True

    def test_file_and_stdin(self, capsys, tmp_path, monkeypatch):
        text = emit_graph(fixture("k4").graph)
        f = tmp_path / "g.txt"
        f.write_text(text)
        assert run(capsys, "exact", str(f))[0] == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, payload, _ = run_json(capsys, "exact", "-")
        assert code == 0 and payload["size"] == 3

    def test_json_graph_input(self, capsys, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"n": 4, "edges": [[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}')
        code, payload, _ = run_json(capsys, "exact", str(f))
        assert code == 0 and payload["size"] == 3

    def test_extend_positive(self, capsys):
        code, payload, _ = run_json(capsys, "exact", "k4", "--extend", "0,1")
        assert code == 0 and len(payload["extension"]) == 3

    def test_extend_negative_exit_one(self, capsys):
        code, payload, _ = run_json(capsys, "exact", "path4", "--extend", "0,1")
        assert code == 1 and payload["extension"] is None

    def test_unknown_input(self, capsys):
        code, _, err = run(capsys, "exact", "no_such_thing")
        assert code == 2 and "fixture" in err

    @pytest.mark.parametrize("command", ["exact", "cubic"])
    def test_mistyped_path(self, capsys, tmp_path, command):
        typo = str(tmp_path / "typo.txt")
        want = f"error: {typo}: not a file, and no such fixture\n"
        assert run(capsys, command, typo) == (2, "", want)

    def test_environment_sets_no_cap(self, capsys, monkeypatch):
        # only --cap sets the cap; no environment variable is read
        monkeypatch.setenv("PDSKIT_CAP", "5")
        code, payload, _ = run_json(capsys, "exact", "cycle7")
        assert code == 0 and payload["size"] == 4

    def test_all_optima(self, capsys):
        code, payload, _ = run_json(capsys, "exact", "cycle5", "--all-optima")
        assert code == 0 and len(payload["optima"]) == 5


class TestApprox:
    def test_basic(self, capsys):
        code, payload, _ = run_json(capsys, "approx", "cubic10")
        assert code == 0
        assert payload["size"] in (5, 6) and payload["verified"] is True

    def test_trace(self, capsys):
        code, payload, _ = run_json(capsys, "approx", "caterpillar15", "--seed", "2", "--trace")
        assert code == 0 and len(payload["trace"]) == payload["moves"] == 2

    def test_explicit_init(self, capsys):
        code, payload, _ = run_json(capsys, "approx", "k4", "--init", "0,1")
        assert code == 0 and payload["set"] == [0, 1] and payload["moves"] == 0

    def test_wrong_init_size(self, capsys):
        code, _, err = run(capsys, "approx", "k4", "--init", "0,1,2")
        assert code == 2 and "init" in err


class TestCubic:
    def test_fixture_with_chords(self, capsys):
        code, payload, _ = run_json(capsys, "cubic", "prism6")
        assert code == 0 and payload["size"] == 4

    def test_fixture_without_chords(self, capsys):
        code, _, err = run(capsys, "cubic", "caterpillar15")
        assert code == 2 and "not cubic" in err

    def test_generated_instance_through_stdin(self, capsys, monkeypatch):
        code, text, _ = run(capsys, "gen", "--cubic", "30", "--seed", "7")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, payload, _ = run_json(capsys, "cubic", "-")
        del payload["seconds"]
        assert code == 0 and payload == {
            "command": "cubic", "input_digest": "6b0133b3d9171ca4", "n": 30, "verified": True,
            "size": 20, "set": list(range(5, 25)),
        }

    def test_exceptional_exit_one(self, capsys):
        code, payload, _ = run_json(capsys, "cubic", "exc8_paired")
        assert code == 1 and payload["exceptional"] == "paired"

    def test_sweep8(self, capsys):
        code, payload, _ = run_json(capsys, "cubic", "--sweep8")
        assert code == 0
        assert payload["instances"] == 31
        assert payload["exceptional"] == {"paired": 4, "alternating": 2}

    def test_json_run_peak_at_1e5(self, tmp_path):
        """The text goes once its digest is taken and the instance once the
        solve returns, so neither is alive while the 66,667-member set is
        emitted; the run peaked at 11.1 MiB while both were, now 6.7."""
        f = tmp_path / "cubic.txt"
        f.write_text(emit_cubic(random_cubic_cycle(10**5, seed=0)))
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = main(["cubic", str(f), "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out.getvalue())["size"] == 66_667
        assert peak < 8 * 2**20

    def test_find_cycle(self, capsys, tmp_path):
        f = tmp_path / "prism.txt"
        f.write_text(emit_graph(fixture("prism6").graph))
        code, payload, _ = run_json(capsys, "cubic", str(f))
        assert code == 0 and payload["size"] == 4
        assert sorted(payload["cycle"]) == list(range(6))

    def test_find_cycle_on_bridge_graph(self, capsys, tmp_path):
        f = tmp_path / "cubic10.txt"
        f.write_text(emit_graph(fixture("cubic10").graph))
        code, _, err = run(capsys, "cubic", str(f))
        assert code == 2 and "Hamiltonian" in err

    def test_find_cycle_is_capped(self, capsys, tmp_path):
        f = tmp_path / "cubic26.txt"
        f.write_text(emit_graph(to_graph(random_cubic_cycle(26, seed=0))))
        code, _, err = run(capsys, "cubic", str(f))
        assert code == 2 and "capped at n=24" in err

    def test_cubic_format_file(self, capsys, tmp_path):
        f = tmp_path / "inst.txt"
        f.write_text("6\n0 3\n1 4\n2 5\n")
        code, payload, _ = run_json(capsys, "cubic", str(f))
        assert code == 0 and payload["n"] == 6

    PRISM = fixture("prism6").graph
    # the text alone picks the path: a graph goes through the cycle search
    # (test_find_cycle reads the plain edge list)
    GRAPH_TEXTS = {
        "one-line JSON": json.dumps(graph_to_json(PRISM)),
        "indented JSON": json.dumps(graph_to_json(PRISM), indent=2),
        "edge list after comments": "# prism\n\n  # six vertices\n" + emit_graph(PRISM),
    }

    @pytest.mark.parametrize("text", GRAPH_TEXTS.values(), ids=GRAPH_TEXTS)
    def test_graph_text_is_searched(self, capsys, tmp_path, text):
        f = tmp_path / "g.txt"
        f.write_text(text)
        code, payload, _ = run_json(capsys, "cubic", str(f))
        assert (code, payload["cycle"], payload["set"]) == (0, list(range(6)), [0, 1, 2, 3])

    def test_cycle_text_after_comments(self, capsys, tmp_path):
        f = tmp_path / "inst.txt"
        f.write_text("# prism\n\n  # cycle and chords\n\n6\n0 3\n1 4\n2 5\n")
        code, payload, _ = run_json(capsys, "cubic", str(f))
        assert (code, payload["n"], payload["set"]) == (0, 6, [0, 1, 2, 3])
        assert "cycle" not in payload

    @pytest.mark.parametrize(
        "text, kind",
        [
            ("", "edges"), ("# only a comment\n", "edges"), ("3 2\n0 1\n", "edges"),
            ("1 2 3\n", "edges"), ("6\n0 3\n", "cycle"), ("\n  # c\n\t6  \n", "cycle"),
            ('{"n": 1, "edges": []}', "json"), ("\n {\n", "json"), ("# c\n{}", "cycle"),
            # every line break that str.splitlines, and so the parsers, knows
            ("6\r0 3\r", "cycle"), ("6\f0 3", "cycle"), ("# c\x1e6\u20290 3", "cycle"),
            ("\u2028 6\x850 3", "cycle"),
        ],
        ids=repr,
    )
    def test_input_kind(self, text, kind):
        head = cli._head(text)
        assert ("json" if head is None else "cycle" if len(head) == 1 else "edges") == kind

    @pytest.mark.parametrize("header", ["26 39", "# big\n300000 450000", "0000000030 45"])
    def test_large_edge_list_refused_from_its_header(self, capsys, monkeypatch, tmp_path, header):
        def refuse(*args, **kwargs):
            raise AssertionError("the graph was built before its size was checked")

        monkeypatch.setattr(cli, "parse_graph", refuse)
        f = tmp_path / "g.txt"
        f.write_text(header + "\n0 1\n")
        want = "error: cycle search is exponential; capped at n=24\n"
        assert run(capsys, "cubic", str(f)) == (2, "", want)

    def test_large_graph_json_refused_from_its_n(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("the graph was built before its size was checked")

        monkeypatch.setattr(cli, "graph_from_json", refuse)
        monkeypatch.setattr(cli, "parse_graph", refuse)
        f = tmp_path / "g.json"
        f.write_text(json.dumps({"n": 25, "edges": [[v, v + 1] for v in range(24)]}))
        want = "error: cycle search is exponential; capped at n=24\n"
        assert run(capsys, "cubic", str(f)) == (2, "", want)

    def test_missing_input(self, capsys):
        code, _, _ = run(capsys, "cubic")
        assert code == 2


class TestReduce:
    def test_split(self, capsys):
        # without --k the split reduction runs
        code, payload, _ = run_json(capsys, "reduce", "demo5")
        assert (code, payload["kind"], "k" in payload) == (0, "split", False)
        assert payload["target"]["n"] == 13 and payload["core_size"] == 8
        assert graph_from_json(payload["target"]).n == 13

    def test_bipartite_example(self, capsys):
        code, payload, _ = run_json(capsys, "reduce", "demo5", "--k", "3")
        assert code == 0 and payload["kind"] == "bipartite"
        assert payload["filler_count"] == 4 and payload["target"]["n"] == 15

    def test_certificate_flow(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, payload, _ = run_json(
            capsys, "reduce", "demo5", "--certificate", str(cert)
        )
        assert code == 0 and payload["alpha"] == 3
        assert cert.read_text().startswith('{\n  "')  # the file stays indented
        code2, payload2, _ = run_json(capsys, "certify", str(cert))
        assert code2 == 0 and payload2["valid"] is True

    # --k alone picks the reduction, and each certificate checks out
    @pytest.mark.parametrize("name", ["k4", "cycle7", "path7", "cubic10", "caterpillar15"])
    def test_k_names_the_reduction(self, capsys, tmp_path, name):
        cert = tmp_path / "cert.json"
        for k, kind in (((), "split"), (("--k", "1"), "bipartite")):
            code, payload, _ = run_json(capsys, "reduce", name, *k, "--certificate", str(cert))
            assert (code, payload["kind"]) == (0, kind)
            code, payload, _ = run_json(capsys, "certify", str(cert))
            assert (code, payload["kind"], payload["valid"]) == (0, kind, True)

    def test_certificate_infeasible_k(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, _, err = run(
            capsys, "reduce", "demo5", "--k", "4",
            "--certificate", str(cert),
        )
        assert code == 2  # k=4 out of range for n=5

    def test_certificate_alpha_below_k(self, capsys, tmp_path):
        # k4 has alpha=1; ask for k=2: the reduction exists, the witness does not
        cert = tmp_path / "cert.json"
        code, _, err = run(
            capsys, "reduce", "k4", "--k", "2",
            "--certificate", str(cert),
        )
        assert code == 1 and "alpha" in err


class TestCertify:
    def test_tampered_certificate(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "reduce", "demo5", "--k", "2",
            "--certificate", str(cert))
        obj = json.loads(cert.read_text())
        obj["independent_set"] = [0, 1]
        cert.write_text(json.dumps(obj))
        code, payload, _ = run_json(capsys, "certify", str(cert))
        assert code == 1 and payload["problems"]

    def test_malformed(self, capsys, tmp_path):
        f = tmp_path / "junk.json"
        f.write_text("{]")
        assert run(capsys, "certify", str(f))[0] == 2
        f.write_text('{"kind": "split"}')
        assert run(capsys, "certify", str(f))[0] == 2


class TestHostileInput:
    """Input that is not text, or JSON deeper than the decoder recurses,
    is an input error: exit code 2 and one error line, never a traceback."""

    DEEP = 100_000

    @staticmethod
    def cli(*argv, stdin=b"", **env):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **env}
        proc = subprocess.run(
            [sys.executable, "-m", "pdskit.cli", *argv],
            input=stdin, capture_output=True, env=env,
        )
        return proc.returncode, proc.stderr.decode(errors="replace")

    @staticmethod
    def assert_input_error(code, err, what):
        assert code == 2, err
        assert "Traceback" not in err and err.startswith("error: "), err
        assert what in err, err

    def test_non_utf8_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_bytes(b"3 2\n0 1\n1 2\xff\n")
        code, err = self.cli("exact", str(f))
        self.assert_input_error(code, err, f"{f}: not UTF-8 text")

    # strict decoding, as under a UTF-8 locale, and the POSIX locale's
    # surrogateescape, which once let a bad byte in a comment reach the digest
    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    @pytest.mark.parametrize("text", [b"3 2\n0 1\xff\n1 2\n", b"# \xff\n3 2\n0 1\n1 2\n"])
    def test_non_utf8_stdin(self, errors, text):
        code, err = self.cli("exact", "-", stdin=text, PYTHONIOENCODING=f"utf-8:{errors}")
        self.assert_input_error(code, err, "stdin: not UTF-8 text")

    def test_deeply_nested_json(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"n": 4, "edges": ' + "[" * self.DEEP + "]" * self.DEEP + "}")
        code, err = self.cli("exact", str(f))
        self.assert_input_error(code, err, "nested too deeply")

    # a billion vertices: refused before the rows or the edge list are
    # allocated, so the probe runs under a 1 GiB address-space limit
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["approx", "{file}"], "1000000000 0\n"),
            (["approx", "{file}"], '{"n": 1000000000, "edges": []}'),
            (["approx", "path1000000000"], None),
            (["gen", "--fixture", "star1000000000"], None),
            (["gen", "--fixture", "cycle1" + "0" * 4999], None),
            # the random generators check n before they allocate anything
            (["gen", "--random", str(MAX_VERTICES + 2), str(MAX_VERTICES + 2)], None),
            (["gen", "--cubic", str(MAX_VERTICES + 2)], None),
        ],
        ids=[
            "header", "json", "path fixture", "gen star fixture", "gen 5000-digit fixture",
            "gen random", "gen cubic",
        ],
    )
    def test_huge_vertex_count(self, tmp_path, argv, text):
        import resource

        f = tmp_path / "g.txt"
        if text is not None:
            f.write_text(text)
        argv = [a.format(file=f) for a in argv]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        limit = (1 << 30, 1 << 30)
        proc = subprocess.run(
            [sys.executable, "-m", "pdskit.cli", *argv],
            capture_output=True, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
        )
        err = proc.stderr.decode(errors="replace")
        self.assert_input_error(proc.returncode, err, "is above the limit of 4194304 vertices")
        assert err.count("\n") == 1, err

    def test_deeply_nested_certificate(self, capsys, tmp_path):
        f = tmp_path / "cert.json"
        f.write_text('{"kind": ' + "[" * self.DEEP + "]" * self.DEEP + "}")
        code, _, err = run(capsys, "certify", str(f))
        assert code == 2 and err.startswith("error: bad JSON: nested too deeply"), err


    def test_edge_limit(self, capsys, monkeypatch):
        # refused before a single edge is drawn or built
        code, _, err = run(capsys, "gen", "--random", str(MAX_VERTICES), str(MAX_EDGES + 1))
        assert code == 2 and err == f"error: m={MAX_EDGES + 1} is above the limit of {MAX_EDGES} edges\n"
        monkeypatch.setattr(generators, "MAX_EDGES", 100)
        monkeypatch.setattr(reductions, "MAX_EDGES", 100)
        code, _, err = run(capsys, "gen", "--random", "20", "101")
        assert code == 2 and err == "error: m=101 is above the limit of 100 edges\n"
        code, _, err = run(capsys, "reduce", "demo5", "--k", "1")
        assert code == 2 and err == "error: target m=126 is above the limit of 100 edges\n"


class TestGen:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "gen", "--list")
        assert code == 0 and "cubic10" in out and "star<N>" in out

    def test_fixture_emit(self, capsys):
        code, out, _ = run(capsys, "gen", "--fixture", "k4")
        assert code == 0 and out.startswith("4 6\n")

    def test_fixture_json(self, capsys):
        code, payload, _ = run_json(capsys, "gen", "--fixture", "path4")
        assert payload == {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}

    def test_random_roundtrip(self, capsys):
        code, out, _ = run(capsys, "gen", "--random", "9", "14", "--seed", "3")
        assert code == 0
        from pdskit import parse_graph

        g = parse_graph(out)
        assert g.n == 9 and g.m == 14

    def test_cubic_roundtrip(self, capsys):
        code, out, _ = run(capsys, "gen", "--cubic", "12", "--seed", "1")
        assert code == 0 and parse_cubic(out).n == 12

    def test_no_mode(self, capsys):
        assert run(capsys, "gen")[0] == 2

    @pytest.mark.parametrize("mode", [["--list"], ["--cubic", "6"]])
    def test_json_only_with_a_graph_mode(self, capsys, mode):
        code, out, err = run(capsys, "gen", *mode, "--json")
        assert (code, out) == (2, "")
        assert err == "error: gen --json needs --fixture or --random\n"


# exact --extend 1,3 answers {1, 2, 3, 6} here, which is not connected
GRAPH7 = "7 7\n0 1\n0 2\n0 4\n0 5\n0 6\n1 3\n2 6\n"

EXTEND_ALONE = "exact --extend takes neither --connected nor --all-optima"
CUBIC_MODES = "cubic takes exactly one of an input and --sweep8"
GEN_MODES = "gen takes only one of --list, --fixture, --random and --cubic"
GEN_SEED = "gen --seed needs --random or --cubic"


class TestRejectedCombinations:
    def test_extend_answers_only_the_plain_question(self, capsys, tmp_path):
        f = tmp_path / "g7.txt"
        f.write_text(GRAPH7)
        code, payload, _ = run_json(capsys, "exact", str(f), "--extend", "1,3")
        assert (code, payload["extension"]) == (0, [1, 2, 3, 6])
        assert run(capsys, "verify", str(f), "--set", "1,2,3,6", "--connected")[0] == 1
        code, out, err = run(capsys, "exact", str(f), "--extend", "1,3", "--connected", "--json")
        assert (code, out, err) == (2, "", f"error: {EXTEND_ALONE}\n")

    # each once ran one of the two questions and dropped the other option
    REJECTED = {
        ("exact", "k4", "--extend", "0,1", "--connected", "--json"): EXTEND_ALONE,
        ("exact", "k4", "--extend", "0,1", "--all-optima"): EXTEND_ALONE,
        ("cubic", "--sweep8", "prism6"): CUBIC_MODES,
        ("gen", "--fixture", "k4", "--random", "5", "6"): GEN_MODES,
        ("gen", "--list", "--cubic", "6"): GEN_MODES,
        ("gen", "--list", "--cubic", "6", "--json"): GEN_MODES,
        ("gen", "--fixture", "k4", "--seed", "3"): GEN_SEED,
        ("gen", "--list", "--seed", "3"): GEN_SEED,
        ("approx", "k4", "--init", "0,1", "--seed", "3"): "approx --init takes no --seed",
        ("reduce", "demo5", "--cap", "3"): "reduce --cap needs --certificate",
        ("bench", "--suite", "enum-scaling", "--seed", "3"): "enum-scaling takes no --seed",
    }

    @pytest.mark.parametrize("argv, what", REJECTED.items(), ids=map(" ".join, REJECTED))
    def test_rejected_before_any_input_is_read(self, capsys, monkeypatch, argv, what):
        def refuse(*args, **kwargs):
            raise AssertionError("input was read before the options were checked")

        for name in ("_load", "fixture", "fixture_names", "random_connected"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(cli.cubic_mod, "random_cubic_cycle", refuse)
        monkeypatch.setattr(cli.bench_mod, "run_suite", refuse)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {what}\n")

    # each once read the input first, so an empty stdin or a missing file hid the option error
    BEFORE_INPUT = {
        ("exact", "-", "--cap", "99"): "enumeration cap must be in [2, 63], got 99",
        ("exact", "nosuch", "--extend", "1", "--cap", "1"): "enumeration cap must be in [2, 63], got 1",
        ("reduce", "-", "--certificate", "c.json", "--cap", "64"):
            "enumeration cap must be in [2, 63], got 64",
        ("approx", "-", "--init", "0,0"): "--init must list distinct integers, got '0,0'",
        ("verify", "-", "--set", "a"): "--set must list distinct integers, got 'a'",
        ("exact", "-", "--extend", "1,1"): "--extend must list distinct integers, got '1,1'",
    }

    @pytest.mark.parametrize("argv, what", BEFORE_INPUT.items(), ids=map(" ".join, BEFORE_INPUT))
    def test_option_error_before_an_empty_stdin(self, capsys, monkeypatch, argv, what):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert run(capsys, *argv) == (2, "", f"error: {what}\n")

    def test_cubic_without_a_mode_keeps_its_message(self, capsys):
        assert run(capsys, "cubic") == (2, "", f"error: {CUBIC_MODES}\n")

    @pytest.mark.parametrize("flag", ["--random=10", "--seed=3", "--find-cycle"])
    def test_cubic_options_that_the_input_replaced_are_gone(self, capsys, flag):
        code, out, err = run(capsys, "cubic", "prism6", flag)
        assert (code, out) == (2, "") and f"unrecognized arguments: {flag}" in err

    # one search per run, and --k alone names the reduction
    @pytest.mark.parametrize(
        "argv", [("approx", "k4", "--restarts", "2"), ("reduce", "demo5", "--kind", "split")]
    )
    def test_options_that_another_option_says_are_gone(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and f"unrecognized arguments: {' '.join(argv[2:])}" in err


class TestBench:
    def test_one_report_whatever_the_output_name(self, capsys, tmp_path):
        # the report's form does not depend on the --output name
        argv = ["bench", "--suite", "cubic-scaling", "--sizes", "200,400", "--repeats", "1"]
        code, out, err = run(capsys, *argv)
        reports = [json.loads(out)]
        assert code == 0 and re.fullmatch(self.SLOPE.format("seconds"), err)
        for name in ("x.csv", "x.JSON"):
            code, out, err = run(capsys, *argv, "--output", str(tmp_path / name))
            assert (code, out) == (0, "") and re.fullmatch(self.SLOPE.format("seconds"), err)
            reports.append(json.loads((tmp_path / name).read_text()))
        for report in reports:
            assert sorted(report) == ["cpu_count", "fit", "python", "rows", "suite"]
            assert [list(r) for r in report["rows"]] == [["n", "seconds"]] * 2
            assert report["fit"]["kind"] == "loglog"

    @pytest.mark.parametrize(
        "suite, sizes, kind", [("cubic-scaling", "100,200", "loglog"), ("enum-scaling", "3,4", "semilog")]
    )
    def test_json_to_file(self, capsys, tmp_path, suite, sizes, kind):
        out_file = tmp_path / "rows.json"
        code, out, err = run(
            capsys, "bench", "--suite", suite, "--sizes", sizes, "--repeats", "1",
            "--output", str(out_file),
        )
        report = json.loads(out_file.read_text())
        assert code == 0 and out == ""
        assert sorted(report) == ["cpu_count", "fit", "python", "rows", "suite"]
        assert (report["suite"], report["python"], report["cpu_count"]) == (
            suite, sys.version, os.cpu_count()
        )
        assert ",".join(str(r["n"]) for r in report["rows"]) == sizes
        fit = report["fit"]
        assert sorted(fit) == ["kind", "r2", "slope"] and fit["kind"] == kind
        # the fit line on stderr prints the same numbers, rounded
        assert f"r2 {fit['r2']:.3f}\n" in err

    SLOPE = r"log-log slope {} -?\d+\.\d{{3}} r2 \d\.\d{{3}}\n"
    GROWTH = r"per-vertex growth {} x\d+\.\d\d r2 \d\.\d{{3}}\n"
    # suite -> (sizes, row keys, fit lines); a new suite must be named here
    FITS = {
        "approx-scaling": ("32,64", "n m seconds moves", SLOPE.format("seconds")),
        "cubic-scaling": ("100,200", "n seconds", SLOPE.format("seconds")),
        # time follows each instance's optimum, not a power of n
        "exact-scaling": ("12,14,16", "n m size subsets_checked seconds", GROWTH.format("seconds")),
        # time grows exponentially in n, so no power-law slope is printed
        "enum-scaling": ("3,4,5", "n graphs seconds", GROWTH.format("seconds")),
    }

    @pytest.mark.parametrize("suite", sorted(bench.SUITES))
    def test_each_suite_prints_its_fit(self, capsys, suite):
        assert set(self.FITS) == set(bench.SUITES)
        sizes, keys, fits = self.FITS[suite]
        before = dict(_connected_cache)
        code, out, err = run(capsys, "bench", "--suite", suite, "--sizes", sizes, "--repeats", "1")
        assert _connected_cache == before  # enum-scaling keeps its own cache
        assert code == 0 and list(json.loads(out)["rows"][0]) == keys.split()
        assert re.fullmatch(fits, err), err

    def test_unknown_suite(self, capsys):
        assert run(capsys, "bench", "--suite", "nothing")[0] == 2

    def test_seed_reaches_the_suite(self, capsys):
        argv = ("bench", "--suite", "approx-scaling", "--sizes", "16", "--repeats", "1", "--seed", "4")
        code, out, _ = run(capsys, *argv)
        got = [(r["m"], r["moves"]) for r in json.loads(out)["rows"]]
        report = bench.run_suite("approx-scaling", sizes=(16,), repeats=1, seed=4)
        assert code == 0 and got == [(r["m"], r["moves"]) for r in report["rows"]]
        # the suite's own seed 0 makes other moves, so a dropped seed would show
        (default,) = bench.run_suite("approx-scaling", sizes=(16,), repeats=1)["rows"]
        assert got != [(default["m"], default["moves"])]

    # each once ended in a traceback: KeyError, IndexError or ValueError
    @pytest.mark.parametrize(
        "argv, what",
        [
            (["--sizes", ","], "--sizes must list distinct integers, got ','"),
            (["--sizes", ""], "--sizes must list distinct integers, got ''"),
            (["--sizes", "3,3"], "--sizes must list distinct integers, got '3,3'"),
            (["--sizes", "4,3,4"], "--sizes must list distinct integers, got '4,3,4'"),
            (["--sizes", "a"], "--sizes must list distinct integers, got 'a'"),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("suite", ["exact-scaling", "enum-scaling"])
    def test_bad_sizes_rejected_before_any_suite(self, capsys, monkeypatch, suite, argv, what):
        def refuse(*args, **kwargs):
            raise AssertionError("a suite ran before its options were checked")

        monkeypatch.setattr(cli.bench_mod, "run_suite", refuse)
        code, out, err = run(capsys, "bench", "--suite", suite, *argv)
        assert (code, out, err) == (2, "", f"error: {what}\n")

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    @pytest.mark.parametrize("suite", ["exact-scaling", "enum-scaling"])
    def test_repeats_below_one_rejected_before_the_suite(self, capsys, monkeypatch, suite, repeats):
        def refuse(**kwargs):
            raise AssertionError("the suite ran before --repeats was checked")

        monkeypatch.setitem(bench.SUITES, suite, (refuse, bench.SUITES[suite][1]))
        code, out, err = run(capsys, "bench", "--suite", suite, "--repeats", repeats)
        assert (code, out, err) == (2, "", f"error: repeats must be at least 1, got {repeats}\n")

    @pytest.mark.parametrize(
        "sizes, what", [("0", "starts at n=2"), ("1,2", "starts at n=2"), ("10", "is capped at n=9")]
    )
    def test_enum_scaling_sizes_out_of_range(self, capsys, sizes, what):
        code, out, err = run(capsys, "bench", "--suite", "enum-scaling", "--sizes", sizes, "--repeats", "1")
        assert (code, out, err) == (2, "", f"error: enumeration {what}\n")


class TestFileErrors:
    """A file that cannot be read or written exits 2 with one error line."""

    @pytest.mark.parametrize("argv", [("verify", "k4", "--set-file"), ("certify",)], ids=" ".join)
    def test_missing_file(self, capsys, tmp_path, argv):
        path = tmp_path / "none.json"
        assert run(capsys, *argv, str(path)) == (2, "", f"error: {path}: no such file\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("reduce", "demo5", "--certificate"),
            ("bench", "--suite", "cubic-scaling", "--sizes", "100", "--repeats", "1", "--output"),
        ],
        ids=" ".join,
    )
    @pytest.mark.parametrize("where", ["no_dir/out.json", "."])
    def test_unwritable_output(self, capsys, monkeypatch, tmp_path, argv, where):
        def refuse(*args, **kwargs):
            raise AssertionError("the work ran before the output path was checked")

        monkeypatch.setattr(cli.bench_mod, "run_suite", refuse)
        monkeypatch.setattr(cli, "max_independent_set_exact", refuse)
        path = tmp_path / where
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and list(tmp_path.iterdir()) == []


class TestDispatch:
    # the report keys of each solver command; --json prints them on one line
    JSON_KEYS = {
        ("verify", "k4", "--set", "0,1,2"): "command input_digest holds connected unsatisfied",
        ("exact", "k4"): "command input_digest size witness connected optima subsets_checked "
        "seconds verified",
        ("approx", "cubic10"): "command input_digest size set connected moves seconds "
        "verified",
        ("cubic", "prism6"): "command input_digest n seconds verified size set",
    }

    @pytest.mark.parametrize("argv, keys", JSON_KEYS.items(), ids=[a[0] for a in JSON_KEYS])
    def test_json_is_one_line(self, capsys, argv, keys):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and out.endswith("}\n") and out.count("\n") == 1
        assert sorted(json.loads(out)) == sorted(keys.split())

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_parser_is_built_once(self, capsys):
        cli.build_parser.cache_clear()
        for argv in (["exact", "k4"], ["gen", "--list"], ["frobnicate"], [], ["approx", "k4"]):
            main(argv)
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    # each command's options, -h aside: the knobs a user can turn
    OPTIONS = {
        "verify": "--json --set --set-file --connected",
        "exact": "--json --connected --all-optima --cap --extend",
        "approx": "--json --seed --init --trace",
        "cubic": "--json --sweep8",
        "reduce": "--json --k --certificate --cap",
        "certify": "--json",
        "gen": "--json --list --fixture --random --cubic --seed",
        "bench": "--suite --output --sizes --seed --repeats",
    }

    @staticmethod
    def subparser(command):
        (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        return sub.choices[command]

    def test_options_cover_every_command(self):
        assert list(self.OPTIONS) == list(cli.COMMANDS)

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_each_command_has_its_options(self, command):
        actions = self.subparser(command)._actions
        got = [a.option_strings[-1] for a in actions if a.option_strings and a.dest != "help"]
        assert got == self.OPTIONS[command].split()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_names_the_command_and_its_options(self, capsys, command):
        code, out, err = run(capsys, command, "-h")
        assert (code, err) == (0, "") and out.startswith(f"usage: pdskit {command} [-h]")
        assert all(flag in out for flag in self.OPTIONS[command].split())

    def test_calls_share_no_options(self, capsys):
        code, payload, _ = run_json(capsys, "exact", "cycle5", "--all-optima")
        assert code == 0 and len(payload["optima"]) == 5
        code, payload, _ = run_json(capsys, "exact", "cycle5")
        assert code == 0 and payload["optima"] is None
        assert main(["exact", "cycle5", "--no-such-flag"]) == 2
        code, payload, _ = run_json(capsys, "exact", "cycle5")
        assert code == 0 and payload["size"] == 3 and payload["witness"] == [0, 1, 2]

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    # every class pdskit.errors defines, found by introspection, and the CLI's file errors
    ERRORS = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.PdsKitError)]

    @pytest.mark.parametrize("exc", [*ERRORS, OSError], ids=lambda c: c.__name__)
    def test_each_error_class_has_its_exit_code(self, capsys, monkeypatch, exc):
        def boom(*a, **kw):
            raise exc("synthetic")

        monkeypatch.setattr(cli, "max_pds_exact", boom)
        code = {errors.NoPds: 1, errors.VerificationFailed: 3}.get(exc, 2)
        prefix = {errors.NoPds: "negative", errors.VerificationFailed: "error: verification failed"}
        want = f"{prefix.get(exc, 'error')}: synthetic\n"
        assert run(capsys, "exact", "k4") == (code, "", want)

    def test_verification_failure_maps_to_three(self, capsys, monkeypatch):
        def boom(*a, **kw):
            raise VerificationFailed("synthetic")

        monkeypatch.setattr(cli.cubic_mod, "solve_hamiltonian_cubic", boom)
        code, _, err = run(capsys, "cubic", "prism6")
        assert code == 3 and "verification failed" in err

    def test_broken_chord_theorem_maps_to_three(self, capsys, monkeypatch, tmp_path):
        # the forced n = 10 instance, with the chord-map test refusing it
        f = tmp_path / "n10.txt"
        f.write_text(emit_cubic(CubicCycleGraph(10, (3, 8, 5, 0, 7, 2, 9, 4, 1, 6))))
        assert run(capsys, "cubic", str(f))[0] == 0
        monkeypatch.setattr(cli.cubic_mod, "_jumps", lambda cr, n, j: False)
        want = "error: verification failed: impossible chord map at n=10\n"
        assert run(capsys, "cubic", str(f)) == (3, "", want)
