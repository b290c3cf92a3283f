"""Helpers that several test modules share: loading the benchmark's script
files."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """A fresh module of ``perfbench/<name>.py``, which is a script
    directory, not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    return load_perfbench("workloads")


def load_tracing():
    return load_perfbench("tracing")

