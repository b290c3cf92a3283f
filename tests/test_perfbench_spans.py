"""The benchmark's traced run swaps module attributes for timing wrappers
(perfbench/tracing.py). Each wrapped name must stay bound in the namespace
it is looked up in, or only a benchmark run would notice the break."""

import pytest

from support import load_tracing

tracing = load_tracing()
SPANS = [pytest.param(owner, attr, id=f"{owner.__name__}.{attr}")
         for spans in (tracing.SETUP_SPANS, tracing.TIMING_SPANS, tracing.LAYER_SPANS)
         for owner, attr, _, _ in spans]


@pytest.mark.parametrize("owner, attr", SPANS)
def test_traced_name_is_bound_where_it_is_looked_up(owner, attr):
    assert attr in owner.__dict__, f"{owner.__name__} no longer binds {attr!r}"
