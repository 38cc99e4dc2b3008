"""Byte identity of the CLI's stdout on a fixed corpus.

One sha256 covers the argv, exit code and stdout of every run below.
The pinned digest was recorded before the integer analysis kernel
replaced the ``Diagram.smooth`` path, so any change to what the
commands print, for any input of the corpus, fails here.  When an
output change is intended, re-record the digest and say why in the
change log.
"""

import contextlib
import hashlib
import io
import json

from conftest import random_code
from vknot.cli import main
from vknot.table import load_table

PINNED = "ab08d4466d36c430d13e976f5d408de29596631fe00a3212e2d37ebd0148780c"


def corpus() -> list[list[str]]:
    """Every argv of the digest, in a fixed order."""
    codes = [r.gauss for r in load_table()]
    codes += [random_code(8 + seed % 25, seed) for seed in range(40)]
    runs = []
    for code in codes:
        runs.append(["compute", code, "--all"])
        runs.append(["compute", code, "--all", "--format", "json"])
    runs.append(["tabulate", "--groups"])
    runs.append(["tabulate", "--format", "csv"])
    return runs


def stdout_digest() -> str:
    digest = hashlib.sha256()
    for argv in corpus():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        digest.update(json.dumps(argv).encode() + b"\0")
        digest.update(f"{code}\0".encode())
        digest.update(out.getvalue().encode() + b"\0")
    return digest.hexdigest()


def test_stdout_is_byte_identical_on_the_corpus(monkeypatch):
    monkeypatch.delenv("VKNOT_TABLE_DIR", raising=False)
    assert stdout_digest() == PINNED
