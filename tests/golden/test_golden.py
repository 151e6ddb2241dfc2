"""Golden stdout pins: each command's stdout must match its committed
file byte for byte.

These pin every output byte of a small set of paper figures and rack
runs, so a refactor that claims to be behaviour-neutral is checked
against the bytes rather than against bands with slack.  The whole set
takes a few seconds.

To regenerate after a change that is meant to move output, run from
the repository root:

    export PYTHONPATH=src REPRO_EXPCACHE=0
    python -m repro table3 > tests/golden/table3.txt
    python -m repro fig3 --reps 2 > tests/golden/fig3.txt
    python -m repro fig4 --reps 2 > tests/golden/fig4.txt
    python -m repro fig5 --reps 2 > tests/golden/fig5.txt
    python -m repro fig6 --reps 4 > tests/golden/fig6.txt
    python -m repro fig8 --duration-ms 20 > tests/golden/fig8.txt
    python -m repro sec7 --duration-ms 20 > tests/golden/sec7.txt
    python -m repro ext_degradation --duration-ms 20 \\
        > tests/golden/ext_degradation.txt
    python -m repro ext_scale --requests 20000 > tests/golden/ext_scale.txt
    python -m repro ext_rack --hosts 4 --users 200000 --jobs 2 \\
        > tests/golden/ext_rack.txt
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent
REPO = GOLDEN.parent.parent

COMMANDS = {
    "table3": ("table3",),
    "fig3": ("fig3", "--reps", "2"),
    "fig4": ("fig4", "--reps", "2"),
    "fig5": ("fig5", "--reps", "2"),
    "fig6": ("fig6", "--reps", "4"),
    "fig8": ("fig8", "--duration-ms", "20"),
    "sec7": ("sec7", "--duration-ms", "20"),
    "ext_degradation": ("ext_degradation", "--duration-ms", "20"),
    "ext_scale": ("ext_scale", "--requests", "20000"),
    "ext_rack": ("ext_rack", "--hosts", "4", "--users", "200000",
                 "--jobs", "2"),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name):
    # The cache would serve a stored cell instead of re-simulating.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               REPRO_EXPCACHE="0")
    result = subprocess.run(
        [sys.executable, "-m", "repro", *COMMANDS[name]],
        capture_output=True, env=env, cwd=REPO, timeout=600)
    assert result.returncode == 0, result.stderr.decode()[-2000:]
    assert result.stdout == (GOLDEN / f"{name}.txt").read_bytes()
