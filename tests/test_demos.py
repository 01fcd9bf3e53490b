"""The demo scripts and the README's library examples run and give their stated results."""
import ast
import os
import re
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


def commented_value(readme, expression):
    """The value the README's comment states for expression: the shortest literal after '#'."""
    line = next(line for line in readme.splitlines() if line.startswith(expression + " "))
    comment = line.split("#", 1)[1].strip()
    for end in range(1, len(comment) + 1):
        try:
            return ast.literal_eval(comment[:end])
        except (SyntaxError, ValueError):
            continue
    raise AssertionError(f"no literal in the comment on {expression}")


def test_readme_python_blocks_run():
    """Every python block of README.md runs, in order, in one namespace.

    A name the package no longer has fails the run, and the values the
    comments state for a context's relations and rows and for the OR
    gate's truth table are the ones computed.
    """
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) >= 5
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    for expression in (
        "ctx.relations, ctx.signs",
        "list(ctx.rows([8, 64, 256, 512]))",
        "report.truth_table.outputs",
    ):
        expected = commented_value(readme, expression)
        assert eval(expression, namespace) == expected, expression
