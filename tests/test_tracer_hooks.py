"""The benchmark tracer (perfbench/tracer.py) instruments the package by
name.  A span target it cannot find is reported and skipped, but a lost
counting hook (greens.green_data, ScalarProblem.potential, the
perturbation attribute set by SystemProblem.__post_init__, cli.Run's
__init__, map and target_function) fails every traced benchmark run."""

import os
import pathlib
import subprocess
import sys

import wavedet

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

_INSTRUMENT = """
import sys
import wavedet
import wavedet.cli
sys.path.insert(0, sys.argv[1])
import tracer
tracer.Tracer().instrument(wavedet)
"""


def test_tracer_finds_its_counting_hooks():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(wavedet.__file__)))
    proc = subprocess.run([sys.executable, "-c", _INSTRUMENT, str(PERFBENCH)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
