"""Byte identity of the CLI's stdout on a fixed corpus.

One sha256 covers the argv, exit code and stdout of every run below.
The pinned digest was recorded before the integer analysis kernel
replaced the ``Diagram.smooth`` path, so any change to what the
commands print, for any input of the corpus, fails here.  A second
set of digests pins each JSON report of ``compute`` and ``family``, one
per run.  When an output change is intended, re-record the digest and
say why in the change log.
"""

import contextlib
import hashlib
import io
import json

import pytest

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


# sha256 of the stdout of each JSON report, recorded before the CLI took
# over writing them: a single n, an n past n_max + 1 (the stable tail),
# the unknot (no ``knot`` key), a raw code, and two ``family`` members.
JSON_PINS = {
    ("compute", "3.1", "-n", "2"):
        "4d41604791ed8fddee50cc076763ac1fe7e62b37ef54a4578513f583bf480b3f",
    ("compute", "3.1", "-n", "7"):
        "be99306a38a422c91e539eeb7b9a112e99cf1a6df129ede3f8e00850118ece9b",
    ("compute", ""):
        "6c498c78e5e702ae27198fb564fc2de39a029a07af440f70a5f1e39c44d98309",
    ("compute", "O1+ U2+ U1+ O2+", "-n", "1"):
        "4f4879871bc575f959dc7475a74db3b503806ba73f47a6df93e62e59a8a3fb8f",
    ("family", "1"):
        "0f6c4f4b60eeaa39ecabf7c5c0e33c0b04fbe0d403dec7753d5da1ca47fb5d1f",
    ("family", "3"):
        "0a3dd3d1ab73e743c474310795d53bb4b224e7e4396b329bdd31dd2aa7e8e680",
}


@pytest.mark.parametrize("argv", list(JSON_PINS), ids=" ".join)
def test_json_report_is_byte_identical(monkeypatch, argv):
    monkeypatch.delenv("VKNOT_TABLE_DIR", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == JSON_PINS[argv]
