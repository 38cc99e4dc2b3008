"""The argument-parsing surface of the command line.

``main`` parses every argv with one parser from ``build_parser()``,
built on a process's first call and reused after; a fresh
``build_parser()`` is the reference it must reproduce byte for byte:
usage, help and errors.  Help text differs between Python versions, so
the reference is run rather than compared against literal text.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vknot
from vknot import cli
from vknot.cli import build_parser, main

RAW_CODE = "O1+ U2+ U1+ O2+"

SUBCOMMANDS = ("compute", "tabulate", "distinguish", "verify-moves")

# argv lists that end in help or in an argparse error.
PINNED_CASES = [
    [],
    ["--help"],
    ["-h", "compute"],
    *([cmd, "--help"] for cmd in SUBCOMMANDS),
    ["bogus"],
    ["bogus", "--all"],
    ["family", "3"],
    # compute
    ["compute", "x", "--bogus"],
    ["compute", "x", "y"],
    ["compute"],
    ["compute", "x", "-n", "q"],
    ["compute", "x", "--format", "xml"],
    ["compute", "x", "-n"],
    # tabulate
    ["tabulate", "--bogus"],
    ["tabulate", "extra"],
    ["tabulate", "--format", "xml"],
    # distinguish
    ["distinguish", "a", "b", "--bogus"],
    ["distinguish", "a", "b", "c"],
    ["distinguish", "a"],
    # verify-moves
    ["verify-moves", "--bogus"],
    ["verify-moves", "a", "b"],
    ["verify-moves", "--steps", "q"],
    ["verify-moves", "--seed"],
]


def outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of a call that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", PINNED_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_main_matches_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = outcome(build_parser().parse_args, argv, capsys)
    assert outcome(main, argv, capsys) == expected
    assert expected[0] in (0, 2)


def count_parsers(monkeypatch) -> list:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_the_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    assert main(["compute", RAW_CODE]) == 0
    text_n1 = capsys.readouterr().out
    assert "\nn=1: " in text_n1 and "\nn=2: " not in text_n1
    cli._parser.cache_clear()
    built = count_parsers(monkeypatch)
    assert main(["compute", RAW_CODE, "-n", "2", "--format", "json"]) == 0
    capsys.readouterr()
    assert built == [
        "vknot", "vknot compute", "vknot tabulate", "vknot distinguish", "vknot verify-moves"
    ]
    built.clear()
    assert main(["compute", RAW_CODE]) == 0
    assert capsys.readouterr().out == text_n1
    assert built == []


def run_module(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(vknot.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "vknot.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"},
        timeout=60,
    )


def test_module_entry_reads_sys_argv(capsys):
    argv = ["compute", RAW_CODE, "--all"]
    proc = run_module(*argv)
    assert proc.returncode == 0
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_module_entry_reports_unrecognized_arguments():
    proc = run_module("compute", "x", "--bogus")
    assert proc.returncode == 2
    assert proc.stdout == ""
    # Reported by the top-level parser, as the full parser does.
    assert proc.stderr.startswith("usage: vknot [-h] {compute,")
    assert proc.stderr.splitlines()[-1] == "vknot: error: unrecognized arguments: --bogus"


@pytest.mark.parametrize(
    "argv",
    [["compute", "3.1", "--all"], ["tabulate"], ["tabulate", "--groups"]],
    ids=["compute", "tabulate", "tabulate --groups"],
)
def test_a_reader_closing_the_pipe_early_is_not_an_error(argv):
    # compute's report fits in stdout's buffer, so nothing is written until
    # the buffer is flushed; PYTHONUNBUFFERED would write it at once.
    src = str(Path(vknot.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "wb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "vknot.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env={**env, "PYTHONPATH": src},
            timeout=60,
        )
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_main_returns_0_on_a_closed_pipe(monkeypatch):
    # In process, so that a line trace of the suite sees the branch: the
    # flush in main raises, and main points stdout's descriptor at the
    # null device, so that the flush at exit has nowhere to fail.
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["tabulate", "--groups"]) == 0
        monkeypatch.undo()
        assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
