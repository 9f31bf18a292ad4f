"""Smoke test: every shipped example script runs to completion.

The examples drive whole systems -- schemes, interference, failures,
tiers -- through the public API, so a refactor that breaks any layer
they touch shows up here as a non-zero exit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
