"""Byte identity of the CLI's stdout on a fixed corpus.

One sha256 covers the argv, exit code and stdout of every run below.
The pinned digest was recorded before the integer analysis kernel
replaced the ``Diagram.smooth`` path, so any change to what the
commands print, for any input of the corpus, fails here.  A second
set of digests pins JSON reports of ``compute``, one per run, and a
third the text reports of large diagrams.  When an output change is
intended, re-record the digest and say why in the change log.
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
    codes = [str(r.diagram) for r in load_table()]
    codes += [random_code(8 + seed % 25, seed) for seed in range(40)]
    runs = []
    for code in codes:
        runs.append(["compute", code, "--all"])
        runs.append(["compute", code, "--all", "--format", "json"])
    runs.append(["tabulate", "--groups"])
    runs.append(["tabulate", "--format", "csv"])
    return runs


def stdout_digest(runs: list[list[str]]) -> str:
    digest = hashlib.sha256()
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        digest.update(json.dumps(argv).encode() + b"\0")
        digest.update(f"{code}\0".encode())
        digest.update(out.getvalue().encode() + b"\0")
    return digest.hexdigest()


def test_stdout_is_byte_identical_on_the_corpus(monkeypatch):
    monkeypatch.delenv("VKNOT_TABLE_DIR", raising=False)
    assert stdout_digest(corpus()) == PINNED


# Recorded before the polynomial text was read from memoised exponent
# text and the crossing lines from one format per report.
LARGE_PINNED = "e51d58e525314c34ca3c43643073f9b2f0f20f4a52a813db1b0a873e23d8af11"


def large_corpus() -> list[list[str]]:
    """``compute --all`` on random codes of 64 to 256 crossings, and on a
    140-crossing code whose indices run from -139 to 139."""
    codes = [random_code(m, 3) for m in (64, 96, 128, 256)]
    wide = [f"O{i}+" for i in range(1, 141)] + [f"U{i}+" for i in range(1, 141)]
    codes.append(" ".join(wide))
    return [["compute", code, "--all"] for code in codes]


def test_stdout_is_byte_identical_on_large_diagrams():
    assert stdout_digest(large_corpus()) == LARGE_PINNED


# sha256 of the stdout of each JSON report, recorded before the CLI took
# over writing them: a single n, an n past n_max + 1 (the stable tail),
# the unknot (no ``knot`` key) and a raw code.
JSON_PINS = {
    ("compute", "3.1", "-n", "2"):
        "4d41604791ed8fddee50cc076763ac1fe7e62b37ef54a4578513f583bf480b3f",
    ("compute", "3.1", "-n", "7"):
        "be99306a38a422c91e539eeb7b9a112e99cf1a6df129ede3f8e00850118ece9b",
    ("compute", ""):
        "6c498c78e5e702ae27198fb564fc2de39a029a07af440f70a5f1e39c44d98309",
    ("compute", "O1+ U2+ U1+ O2+", "-n", "1"):
        "4f4879871bc575f959dc7475a74db3b503806ba73f47a6df93e62e59a8a3fb8f",
}


@pytest.mark.parametrize("argv", list(JSON_PINS), ids=" ".join)
def test_json_report_is_byte_identical(monkeypatch, argv):
    monkeypatch.delenv("VKNOT_TABLE_DIR", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == JSON_PINS[argv]
