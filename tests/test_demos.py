"""Every demo script, and the README's Quick-tour code, runs to completion
against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def quick_tour():
    """The first python block after the README's Quick-tour heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", text[text.index("## Quick tour"):], re.S).group(1)


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS + [README], ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-c", quick_tour()] if demo == README else [sys.executable, str(demo)]
    result = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
