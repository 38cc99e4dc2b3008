"""The CI workflow parses as YAML, every check it imports exists, and
one step checks every code with four crossings.

A step whose text breaks the YAML makes the whole workflow invalid, so
that no job runs at all; this catches it before a push does.
"""

import importlib
import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def workflow_runs() -> list[str]:
    workflow = yaml.safe_load(WORKFLOW.read_text())
    return [step["run"] for job in workflow["jobs"].values() for step in job["steps"] if "run" in step]


def test_workflow_parses_and_its_imports_resolve(monkeypatch):
    runs = workflow_runs()
    # The steps run with PYTHONPATH=src:tests.
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    imports = [m for run in runs for m in re.finditer(r"from ([\w.]+) import ([\w ,]+)", run)]
    assert imports
    for m in imports:
        module = importlib.import_module(m[1])
        for name in m[2].split(","):
            assert hasattr(module, name.split(" as ")[0].strip()), m[0]


def test_one_step_checks_every_code_with_four_crossings():
    # The exhaustive checks share one pass over the codes, so a check
    # called with m = 4 in a step of its own is a second pass.
    calls = [run for run in workflow_runs() if re.search(r"\w\(\s*(m\s*=\s*)?4\s*\)", run)]
    assert len(calls) == 1, calls
    assert "from test_universe import assert_every_code" in calls[0]
