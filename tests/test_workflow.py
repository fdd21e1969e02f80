"""The CI workflow's steps call test helpers, scripts and pin fixtures by
name: a helper, script or fixture renamed away fails tier-1 at once, not on
the next push.

The workflow is read as text (CI installs no YAML parser); its comment
lines are skipped.  Each step's ``from <module> import <names>`` must sit
on one line.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def step_lines():
    return [line for line in WORKFLOW.read_text(encoding="utf-8").splitlines()
            if not line.lstrip().startswith("#")]


def test_every_import_a_step_runs_resolves():
    imports = [m for line in step_lines() for m in re.finditer(r"\bfrom ([\w.]+) import ([\w ,]+)", line)]
    assert {m[1] for m in imports} >= {"helpers", "test_deciding_clauses"}
    for m in imports:
        assert not m[2].rstrip().endswith(","), f"{m[0]!r}: its names go on past the line"
        exec(m[0], {})  # with src and tests on the path, as the steps run


def test_every_script_a_step_runs_exists():
    scripts = {path for line in step_lines() for path in re.findall(r"\btests/\w+\.py\b", line)}
    assert "tests/structure_oracle_check.py" in scripts
    assert all((ROOT / path).is_file() for path in scripts), scripts


def test_every_fixture_a_step_pins_exists():
    names = {name for line in step_lines() for name in re.findall(r"\btests/pins\.py (\S+)", line)}
    assert {"enumeration_l7", "enumeration_l8", "enumeration_l8_conjunctive", "scan_l6"} <= names
    assert all((ROOT / "tests" / "fixtures" / f"{name}.sha256").is_file() for name in names), names
