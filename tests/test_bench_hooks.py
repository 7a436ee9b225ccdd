"""The benchmark's trace hooks install on the program as it stands."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trace_hooks_install():
    # ``--trace 1`` wraps each traced function at every module that calls
    # it and refuses a module that no longer imports it; checking here makes
    # a dropped import fail the suite, not only the traced benchmark.  A
    # subprocess keeps the patches out of the other tests.
    code = ("import run, spans; "
            "run.install_tracer(spans.Tracer(), run.import_program())")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "bench"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
