"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
