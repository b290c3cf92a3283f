"""Helpers that several test modules share: loading the benchmark's script
files, and stacking hand-built memories into slot rows."""

import importlib.util
from pathlib import Path

import numpy as np

from novelcap.memory import Slots

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


def as_slots(*mems, width=None):
    """The slots of memories, one slot row per memory, zero-padded to
    ``width``: by default the longest memory's, and at least 1, as
    ``build_slots`` pads them."""
    width = width or max(1, *(mem.n for mem in mems))
    keys = np.zeros((len(mems), width, mems[0].key_dim))
    labels = np.zeros((len(mems), width), dtype=np.intp)
    for r, mem in enumerate(mems):
        if mem.n:
            keys[r, :mem.n], labels[r, :mem.n] = mem.keys, mem.labels
    return Slots(keys, labels, np.array([mem.n for mem in mems]))
