"""The CI reach helper ``.github/reach.py``: exit code and printed line."""

import os
import re
import subprocess
import sys

import pytest

import kllab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(kllab.__file__))


@pytest.mark.parametrize("bound,group,code,passed", [
    ("1000", "A2", 0, True),
    ("0", "A2", 0, False),      # any run is above a 0 MB bound
    ("1000", "Q7", 2, False),   # kllab's usage error
])
def test_reach(bound, group, code, passed):
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, ".github", "reach.py"), bound,
         "info", "--group", group],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == (0 if passed else 1)
    assert re.fullmatch(rf"kllab info --group {group}: exit {code}, "
                        rf"max RSS \d+ MB\n", run.stdout)
