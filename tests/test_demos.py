"""Every script under demos/, and every Python block of README.md, runs to completion."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def _run(args, cwd):
    # statabft importable from this checkout; any stray file lands in cwd; a RuntimeWarning
    # fails the run, the policy pyproject.toml applies to the tests themselves
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    _run([str(demo)], tmp_path)


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    _run(["-c", block], tmp_path)
