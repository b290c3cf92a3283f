"""The demos import package names directly; run them so a renamed keyword
or function breaks a test instead of a reader's first try."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", ["01_memory_addressing.py", "02_gradient_check.py",
                                  "03_train_and_caption.py"])
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout, proc.stdout
