"""The CI workflow parses as YAML, every check it imports exists, and
one step, named after the sweep's checks, checks every code with four
crossings; every library name the tools import exists.

A step whose text breaks the YAML makes the whole workflow invalid, so
that no job runs at all; this catches it before a push does.  A library
name deleted or renamed under a tool fails here, not in the CI step that
runs the tool.
"""

import importlib
import re
from pathlib import Path

import yaml

from test_universe import CHECKS

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def workflow_steps() -> list[dict]:
    return [step for job in yaml.safe_load(WORKFLOW.read_text())["jobs"].values() for step in job["steps"]]


def workflow_runs() -> list[str]:
    return [step["run"] for step in workflow_steps() if "run" in step]


def test_workflow_parses_and_its_imports_resolve(monkeypatch):
    runs = workflow_runs()
    # The steps run with PYTHONPATH=src:tests.
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    pattern = re.compile(r"from ([\w.]+) import ([\w ,]+)")
    assert_imports_resolve([m.groups() for run in runs for m in pattern.finditer(run)])


def test_tool_imports_resolve(monkeypatch):
    # Each tool puts src on the path itself; an import may span lines in parentheses.
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    pattern = re.compile(r"^from (vknot[\w.]*) import (?:\(([^)]*)\)|(.*)$)", re.M)
    texts = [path.read_text() for path in sorted((ROOT / "tools").glob("*.py"))]
    assert_imports_resolve([(m[1], m[2] or m[3]) for text in texts for m in pattern.finditer(text)])


def assert_imports_resolve(imports: list[tuple[str, str]]) -> None:
    """Each (module, names) import names attributes of its module."""
    assert imports
    for module_name, names in imports:
        module = importlib.import_module(module_name)
        for name in filter(None, map(str.strip, names.split(","))):
            assert hasattr(module, name.split(" as ")[0].strip()), (module_name, name)


def test_one_step_checks_every_code_with_four_crossings():
    # The exhaustive checks share one pass over the codes, so a check
    # called with m = 4 in a step of its own is a second pass.
    calls = [run for run in workflow_runs() if re.search(r"\w\(\s*(m\s*=\s*)?4\s*\)", run)]
    assert len(calls) == 1, calls
    assert "from test_universe import assert_every_code" in calls[0]


def test_sweep_step_names_every_check():
    # A check added to or dropped from the sweep changes the step's name.
    [step] = [step for step in workflow_steps() if "assert_every_code" in step.get("run", "")]
    assert step["name"].endswith(": " + ", ".join(CHECKS)), step["name"]
