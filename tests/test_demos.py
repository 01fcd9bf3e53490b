"""The demo scripts run to completion and print their key result."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,line",
    [
        ("anders_browne_or_gate.py", "truth table (binary input order): (0, 1, 1, 1)  <- OR"),
        (
            "mermin_presheaf.py",
            "still no global section: even the four pinned values cannot be "
            "extended over the five contexts.",
        ),
    ],
)
def test_demo_runs(script, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert line in result.stdout.splitlines()
