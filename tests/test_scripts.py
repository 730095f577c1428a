"""Each script under scripts/ runs with its defaults against this
checkout of the package and prints a table."""

import os
import pathlib
import subprocess
import sys

import pytest

import wavedet

SCRIPTS = sorted((pathlib.Path(__file__).parent.parent / "scripts")
                 .glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_with_defaults(script):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(wavedet.__file__)))
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_scripts_are_found():
    assert {p.name for p in SCRIPTS} >= {"compare_pipelines.py",
                                         "convergence_study.py",
                                         "front_zero_scan.py"}
