"""The README's examples run: the library block prints what its comments
say, and every command of the command-line block exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from vknot.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# ``print(<expr>)  # <value>``, optionally followed by a gloss: two spaces and "(...)".
PRINT_LINE = re.compile(r"print\((.+)\)\s+# (.+?)(?:\s{2,}\(.*)?$")


def library_block() -> str:
    section = README.read_text().split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments():
    block = library_block()
    documented = [m.groups() for m in map(PRINT_LINE.match, block.splitlines()) if m]
    assert ("report.n_max", "2") in documented
    assert ("report.dwrithe(1)", "2") in documented  # dJ_1(D)
    assert ("report.t_set(1)", "frozenset()") in documented  # T_1(D) is empty
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    # The documented prints come first; the loop after them prints one line per crossing.
    printed = out.getvalue().splitlines()
    assert printed[: len(documented)] == [value for _, value in documented]
    assert len(printed) == len(documented) + 3


def test_readme_command_lines_exit_0(monkeypatch):
    monkeypatch.delenv("VKNOT_TABLE_DIR", raising=False)
    section = README.read_text().split("## Command line", 1)[1]
    lines = re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()
    assert any("compute 3.1 -n 2 --format json" in line for line in lines)
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "vknot"
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0, line
        assert out.getvalue(), line
