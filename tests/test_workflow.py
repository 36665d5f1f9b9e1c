"""The CI workflow parses, and every step of it runs something.

A step name that holds ": " reads as a YAML mapping, and the whole file then
fails to load, so that no step runs at all.
"""

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_every_workflow_step_has_a_name_and_runs_something():
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = [step for job in doc["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step.get("name"), str) and step["name"], step
        assert ("run" in step) != ("uses" in step), step["name"]
