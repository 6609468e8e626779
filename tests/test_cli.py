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
    VerificationFailed,
    bench,
    cli,
    generators,
    reductions,
    emit_cubic,
    emit_graph,
    fixture,
    graph_from_json,
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

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PDSKIT_CAP", "5")
        code, _, err = run(capsys, "exact", "cycle7")
        assert code == 2 and "5" in err

    def test_all_optima(self, capsys):
        code, payload, _ = run_json(capsys, "exact", "cycle5", "--all-optima")
        assert code == 0 and len(payload["optima"]) == 5


class TestApprox:
    def test_basic(self, capsys):
        code, payload, _ = run_json(capsys, "approx", "cubic10")
        assert code == 0
        assert payload["size"] in (5, 6) and payload["verified"] is True

    def test_trace_and_restarts(self, capsys):
        code, payload, _ = run_json(
            capsys, "approx", "caterpillar15", "--restarts", "4", "--seed", "2", "--trace"
        )
        assert code == 0
        assert payload["restarts"] == 4
        assert isinstance(payload["trace"], list)

    def test_explicit_init(self, capsys):
        code, payload, _ = run_json(capsys, "approx", "k4", "--init", "0,1")
        assert code == 0 and payload["set"] == [0, 1] and payload["moves"] == 0

    @pytest.mark.parametrize("restarts", ["1000000000", "1001", "0", "-3"])
    def test_restarts_out_of_range_rejected_before_any_work(self, capsys, monkeypatch, restarts):
        def refuse(*args, **kwargs):
            raise AssertionError("ran before --restarts was checked")

        monkeypatch.setattr(cli, "_load_graph", refuse)
        monkeypatch.setattr(cli, "half_pds", refuse)
        code, _, err = run(capsys, "approx", "k4", "--restarts", restarts)
        assert code == 2 and f"--restarts must be in [1, 1000], got {restarts}" in err

    def test_restarts_with_init_search_once(self, capsys, monkeypatch):
        calls = []
        real = cli.half_pds
        monkeypatch.setattr(cli, "half_pds", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        code, payload, _ = run_json(
            capsys, "approx", "path7", "--init", "0,1,2,3", "--restarts", "1000"
        )
        assert code == 0 and len(calls) == 1 and payload["restarts"] == 1

    def test_wrong_init_size(self, capsys):
        code, _, err = run(capsys, "approx", "k4", "--init", "0,1,2")
        assert code == 2 and "init" in err


class TestCubic:
    def test_fixture_with_chords(self, capsys):
        code, payload, _ = run_json(capsys, "cubic", "prism6")
        assert code == 0 and payload["size"] == 4

    def test_fixture_without_chords(self, capsys):
        code, _, err = run(capsys, "cubic", "caterpillar15")
        assert code == 2 and "cycle-plus-chords" in err

    def test_random_example(self, capsys):
        code, payload, _ = run_json(capsys, "cubic", "--random", "1002", "--seed", "7")
        assert code == 0
        assert payload["size"] == 668 and payload["verified"] is True

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
        code, payload, _ = run_json(capsys, "cubic", str(f), "--find-cycle")
        assert code == 0 and payload["size"] == 4
        assert sorted(payload["cycle"]) == list(range(6))

    def test_find_cycle_on_bridge_graph(self, capsys, tmp_path):
        f = tmp_path / "cubic10.txt"
        f.write_text(emit_graph(fixture("cubic10").graph))
        code, _, err = run(capsys, "cubic", str(f), "--find-cycle")
        assert code == 2 and "Hamiltonian" in err

    def test_find_cycle_is_capped(self, capsys, tmp_path):
        f = tmp_path / "cubic26.txt"
        f.write_text(emit_graph(to_graph(random_cubic_cycle(26, seed=0))))
        code, _, err = run(capsys, "cubic", str(f), "--find-cycle")
        assert code == 2 and "capped at n=24" in err

    def test_cubic_format_file(self, capsys, tmp_path):
        f = tmp_path / "inst.txt"
        f.write_text("6\n0 3\n1 4\n2 5\n")
        code, payload, _ = run_json(capsys, "cubic", str(f))
        assert code == 0 and payload["n"] == 6

    def test_missing_input(self, capsys):
        code, _, _ = run(capsys, "cubic")
        assert code == 2


class TestReduce:
    def test_split(self, capsys):
        code, payload, _ = run_json(capsys, "reduce", "demo5", "--kind", "split")
        assert code == 0
        assert payload["target"]["n"] == 13 and payload["core_size"] == 8
        assert graph_from_json(payload["target"]).n == 13

    def test_bipartite_example(self, capsys):
        code, payload, _ = run_json(
            capsys, "reduce", "demo5", "--kind", "bipartite", "--k", "3"
        )
        assert code == 0
        assert payload["filler_count"] == 4 and payload["target"]["n"] == 15

    def test_bipartite_needs_k(self, capsys):
        code, _, _ = run(capsys, "reduce", "demo5", "--kind", "bipartite")
        assert code == 2

    def test_certificate_flow(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, payload, _ = run_json(
            capsys, "reduce", "demo5", "--kind", "split", "--certificate", str(cert)
        )
        assert code == 0 and payload["alpha"] == 3
        assert cert.read_text().startswith('{\n  "')  # the file stays indented
        code2, payload2, _ = run_json(capsys, "certify", str(cert))
        assert code2 == 0 and payload2["valid"] is True

    def test_certificate_infeasible_k(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, _, err = run(
            capsys, "reduce", "demo5", "--kind", "bipartite", "--k", "4",
            "--certificate", str(cert),
        )
        assert code == 2  # k=4 out of range for n=5

    def test_certificate_alpha_below_k(self, capsys, tmp_path):
        # k4 has alpha=1; ask for k=2: the reduction exists, the witness does not
        cert = tmp_path / "cert.json"
        code, _, err = run(
            capsys, "reduce", "k4", "--kind", "bipartite", "--k", "2",
            "--certificate", str(cert),
        )
        assert code == 1 and "alpha" in err


class TestCertify:
    def test_tampered_certificate(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "reduce", "demo5", "--kind", "bipartite", "--k", "2",
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
            (["cubic", "--random", str(MAX_VERTICES + 2)], None),
        ],
        ids=[
            "header", "json", "path fixture", "gen star fixture", "gen 5000-digit fixture",
            "gen random", "gen cubic", "cubic random",
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
        code, _, err = run(capsys, "reduce", "demo5", "--kind", "bipartite", "--k", "1")
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
CUBIC_MODES = "cubic takes only one of an input, --random N and --sweep8"
GEN_MODES = "gen takes only one of --list, --fixture, --random and --cubic"
FIND_CYCLE_INPUT = "cubic --find-cycle needs an input, not --random N or --sweep8"
CUBIC_SEED = "cubic --seed needs --random N"
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
        ("cubic", "prism6", "--random", "10"): CUBIC_MODES,
        ("cubic", "--sweep8", "prism6"): CUBIC_MODES,
        ("cubic", "--sweep8", "--random", "10"): CUBIC_MODES,
        ("gen", "--fixture", "k4", "--random", "5", "6"): GEN_MODES,
        ("gen", "--list", "--cubic", "6"): GEN_MODES,
        ("gen", "--list", "--cubic", "6", "--json"): GEN_MODES,
        ("reduce", "demo5", "--kind", "split", "--k", "3"): "split reduction takes no --k",
        ("cubic", "--random", "10", "--find-cycle"): FIND_CYCLE_INPUT,
        ("cubic", "--sweep8", "--find-cycle"): FIND_CYCLE_INPUT,
        ("cubic", "prism6", "--seed", "3"): CUBIC_SEED,
        ("cubic", "--sweep8", "--seed", "3"): CUBIC_SEED,
        ("gen", "--fixture", "k4", "--seed", "3"): GEN_SEED,
        ("gen", "--list", "--seed", "3"): GEN_SEED,
        ("approx", "k4", "--init", "0,1", "--seed", "3"): "approx --init takes no --seed",
    }

    @pytest.mark.parametrize("argv, what", REJECTED.items(), ids=map(" ".join, REJECTED))
    def test_rejected_before_any_input_is_read(self, capsys, monkeypatch, argv, what):
        def refuse(*args, **kwargs):
            raise AssertionError("input was read before the options were checked")

        for name in ("_load", "fixture", "fixture_names", "random_connected"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(cli.cubic_mod, "random_cubic_cycle", refuse)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {what}\n")

    @pytest.mark.parametrize("flag", ["--find-cycle", "--seed=3"])
    def test_cubic_without_a_mode_keeps_its_message(self, capsys, flag):
        want = "error: cubic needs an input, --random N, or --sweep8\n"
        assert run(capsys, "cubic", flag) == (2, "", want)


class TestBench:
    def test_csv_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "rows.csv"
        code, _, err = run(
            capsys, "bench", "--suite", "cubic-scaling", "--sizes", "200,400",
            "--repeats", "1", "--output", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "n,seconds" and len(lines) == 3
        assert re.fullmatch(self.SLOPE.format("seconds"), err)

    def test_stdout_csv(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--suite", "approx-scaling", "--sizes", "32",
            "--repeats", "1",
        )
        assert code == 0 and out.startswith("n,m,seconds,moves")

    SLOPE = r"log-log slope {} -?\d+\.\d{{3}} r2 \d\.\d{{3}}\n"
    GROWTH = r"per-vertex growth {} x\d+\.\d\d r2 \d\.\d{{3}}\n"
    # suite -> (sizes, CSV header, fit lines); a new suite must be named here
    FITS = {
        "approx-scaling": ("32,64", "n,m,seconds,moves", SLOPE.format("seconds")),
        "cubic-scaling": ("100,200", "n,seconds", SLOPE.format("seconds")),
        # time follows each instance's optimum, not a power of n
        "exact-scaling": ("12,14,16", "n,m,size,subsets_checked,seconds", GROWTH.format("seconds")),
        # time grows exponentially in n, so no power-law slope is printed
        "enum-scaling": ("3,4,5", "n,graphs,seconds", GROWTH.format("seconds")),
    }

    @pytest.mark.parametrize("suite", sorted(bench.SUITES))
    def test_each_suite_prints_its_fit(self, capsys, suite):
        assert set(self.FITS) == set(bench.SUITES)
        sizes, header, fits = self.FITS[suite]
        before = dict(_connected_cache)
        code, out, err = run(capsys, "bench", "--suite", suite, "--sizes", sizes, "--repeats", "1")
        assert _connected_cache == before  # enum-scaling keeps its own cache
        assert code == 0 and out.startswith(header + "\n")
        assert re.fullmatch(fits, err), err

    def test_unknown_suite(self, capsys):
        assert run(capsys, "bench", "--suite", "nothing")[0] == 2

    # each once ended in a traceback: KeyError, IndexError or ValueError
    @pytest.mark.parametrize(
        "argv, what",
        [
            (["--repeats", "0"], "--repeats must be at least 1, got 0"),
            (["--repeats", "-3"], "--repeats must be at least 1, got -3"),
            (["--sizes", ","], "--sizes must list distinct sizes, got ','"),
            (["--sizes", ""], "--sizes must list distinct sizes, got ''"),
            (["--sizes", "3,3"], "--sizes must list distinct sizes, got '3,3'"),
            (["--sizes", "4,3,4"], "--sizes must list distinct sizes, got '4,3,4'"),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("suite", ["exact-scaling", "enum-scaling"])
    def test_bad_sizes_or_repeats_rejected_before_any_suite(self, capsys, monkeypatch, suite, argv, what):
        def refuse(*args, **kwargs):
            raise AssertionError("a suite ran before its options were checked")

        monkeypatch.setattr(cli.bench_mod, "run_suite", refuse)
        code, out, err = run(capsys, "bench", "--suite", suite, *argv)
        assert (code, out, err) == (2, "", f"error: {what}\n")

    @pytest.mark.parametrize(
        "sizes, what", [("0", "starts at n=2"), ("1,2", "starts at n=2"), ("10", "is capped at n=9")]
    )
    def test_enum_scaling_sizes_out_of_range(self, capsys, sizes, what):
        code, out, err = run(capsys, "bench", "--suite", "enum-scaling", "--sizes", sizes, "--repeats", "1")
        assert (code, out, err) == (2, "", f"error: enumeration {what}\n")


class TestDispatch:
    # the report keys of each solver command; --json prints them on one line
    JSON_KEYS = {
        ("verify", "k4", "--set", "0,1,2"): "command input_digest holds connected unsatisfied",
        ("exact", "k4"): "command input_digest size witness connected optima subsets_checked "
        "seconds verified",
        ("approx", "cubic10"): "command input_digest size set connected moves restarts seconds "
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

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()
        assert cli.build_parser("exact") is cli.build_parser("exact")
        assert cli.build_parser("exact") is not cli.build_parser()

    @staticmethod
    def commands(parser) -> list[str]:
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        return list(sub.choices)

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["exact", "k4"], ["exact"]),
            (["gen", "--list"], ["gen"]),
            (["frobnicate"], list(cli.COMMANDS)),
            ([], list(cli.COMMANDS)),
            (["-h"], list(cli.COMMANDS)),
            (["--", "exact", "k4"], list(cli.COMMANDS)),
        ],
        ids=repr,
    )
    def test_a_known_command_builds_only_its_parser(self, capsys, monkeypatch, argv, built):
        seen, build = [], cli.build_parser

        def recording(command=None):
            seen.append(build(command))
            return seen[-1]

        monkeypatch.setattr(cli, "build_parser", recording)
        main(argv)
        assert [self.commands(p) for p in seen] == [built]

    # help, usage and every error read the same from a one-command parser
    ONE_COMMAND_ARGV = [
        ["-h"], [], ["k4", "--no-such-flag"], ["k4", "two", "extra"], ["--seed", "x"],
        ["k4", "--cap"], ["k4", "--kind", "nope"], ["k4", "--set", "1", "--set-file", "f"],
        ["--random", "5"], ["--suite"], ["k4", "--set", "1", "--kind", "split", "--no-such-flag"],
        ["--suite", "s", "--no-such-flag"],
    ]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_one_command_parser_reads_as_the_full_one(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "70")  # both wrap their help to the same width
        cli.build_parser.cache_clear()
        texts = {}
        for which in (None, command):
            parser = cli.build_parser(which)
            texts[which] = []
            for rest in self.ONE_COMMAND_ARGV:
                try:
                    result = vars(parser.parse_args([command, *rest]))
                except SystemExit as exc:
                    result = exc.code
                out = capsys.readouterr()
                texts[which].append((result, out.out, out.err))
        cli.build_parser.cache_clear()
        assert texts[command] == texts[None]
        # the main parser's own usage, wrapped to the width, is among them
        every = "{" + ",".join(cli.COMMANDS) + "}"
        assert any(err.startswith("usage: pdskit [-h]") and every in err for _, _, err in texts[None])

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

    def test_verification_failure_maps_to_three(self, capsys, monkeypatch):
        def boom(*a, **kw):
            raise VerificationFailed("synthetic")

        monkeypatch.setattr(cli.cubic_mod, "solve_hamiltonian_cubic", boom)
        code, _, err = run(capsys, "cubic", "prism6")
        assert code == 3 and "verification failed" in err
