"""The demo scripts and the README's library tour run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))
README = ROOT / "README.md"


def test_all_five_demos_found():
    assert len(DEMOS) == 5


def _script(source, tmp_path):
    """``source`` itself, or for the README its first fenced python block,
    the library tour, written into ``tmp_path``."""
    if source != README:
        return source
    text = README.read_text(encoding="utf-8")
    tour = tmp_path / "readme_tour.py"
    tour.write_text(text.split("```python\n", 1)[1].split("```", 1)[0],
                    encoding="utf-8")
    return tour


@pytest.mark.parametrize("demo", DEMOS + [README], ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # warnings are errors, as in the in-process tests
    proc = subprocess.run([sys.executable, "-W", "error",
                           str(_script(demo, tmp_path))],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
