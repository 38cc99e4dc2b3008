"""The CI workflow parses as YAML, and every check it imports exists.

A step whose text breaks the YAML makes the whole workflow invalid, so
that no job runs at all; this catches it before a push does.
"""

import importlib
import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_workflow_parses_and_its_imports_resolve(monkeypatch):
    workflow = yaml.safe_load(WORKFLOW.read_text())
    runs = [step["run"] for job in workflow["jobs"].values() for step in job["steps"] if "run" in step]
    # The steps run with PYTHONPATH=src:tests.
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    imports = [m for run in runs for m in re.finditer(r"from ([\w.]+) import ([\w ,]+)", run)]
    assert imports
    for m in imports:
        module = importlib.import_module(m[1])
        for name in m[2].split(","):
            assert hasattr(module, name.split(" as ")[0].strip()), m[0]
