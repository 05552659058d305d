"""Smoke tests of the demos and the package exports.

Each demo runs as its own process against the package in ``src``, so a
demo that names a deleted function or a changed signature fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dmdsep

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env["TMPDIR"] = str(tmpdir)  # where the demos' temporary directories go
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert list(tmpdir.iterdir()) == []  # a demo removes what it wrote there


def test_every_export_resolves():
    assert [name for name in dmdsep.__all__ if not hasattr(dmdsep, name)] == []
