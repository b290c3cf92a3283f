"""The benchmark's traced run swaps module attributes for timing wrappers
(perfbench/tracing.py). Each wrapped name must stay bound in the namespace
it is looked up in, or only a benchmark run would notice the break."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
SPANS = [pytest.param(owner, attr, id=f"{owner.__name__}.{attr}")
         for spans in (tracing.SETUP_SPANS, tracing.TIMING_SPANS, tracing.LAYER_SPANS)
         for owner, attr, _, _ in spans]


@pytest.mark.parametrize("owner, attr", SPANS)
def test_traced_name_is_bound_where_it_is_looked_up(owner, attr):
    assert attr in owner.__dict__, f"{owner.__name__} no longer binds {attr!r}"
