"""Smoke test: every example script runs to completion.

Each script runs in a fresh interpreter from an empty temporary
directory, with ``src/`` on ``PYTHONPATH``, and must exit 0.
``scheduler_conformance.py`` is left out: it repeats
``tests/test_fairness_conformance.py`` and is the slowest script.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
EXAMPLES = sorted(
    path
    for path in (REPO_ROOT / "examples").glob("*.py")
    if path.name != "scheduler_conformance.py"
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
