"""The README's examples run as written, against the names the package
exports today."""

import re
import shlex
from pathlib import Path

from pdskit import UnknownName, cli, fixture

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(heading: str, lang: str) -> list[str]:
    """The fenced lang blocks of the README section under "## heading"."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


def _is_fixture(name: str) -> bool:
    try:
        fixture(name)
    except UnknownName:
        return False
    return True


def test_python_api_examples_run():
    blocks = _blocks("Python API", "python")
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_command_line_examples_with_fixture_inputs_run(tmp_path, monkeypatch, capsys):
    """Each pdskit line whose input is a fixture name, or a file an earlier
    line wrote (reduce --certificate's cert.json), exits 0 as the README's
    exit codes say, and prints what its "# -> ..." comment promises."""
    monkeypatch.chdir(tmp_path)
    (block,) = _blocks("Command line", "sh")
    ran = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] != ["pdskit"] or "|" in argv:
            continue
        args = cli.build_parser().parse_args(argv[1:])
        source = getattr(args, "graph", None) or getattr(args, "input", None) or getattr(args, "file", None)
        if source is None or not (_is_fixture(source) or Path(source).is_file()):
            continue
        code = cli.main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        if "->" in comment:
            assert comment.split("->", 1)[1].strip() in out, line
        ran.append(argv[1])
    # every command that reads an input, certify on the file reduce wrote
    assert set(ran) == {"verify", "exact", "approx", "cubic", "reduce", "certify"}, ran
