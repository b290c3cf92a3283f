"""The benchmark's traced run swaps module attributes for timing wrappers
(perfbench/tracing.py). Each wrapped name must stay bound in the namespace
it is looked up in, or only a benchmark run would notice the break, and a
module must use each name wrapped in it, or the name is there for the
tracer alone."""

import ast
import inspect

import pytest

from support import load_tracing

tracing = load_tracing()
SPANS = [pytest.param(owner, attr, id=f"{owner.__name__}.{attr}")
         for spans in (tracing.SETUP_SPANS, tracing.TIMING_SPANS, tracing.LAYER_SPANS)
         for owner, attr, _, _ in spans]


@pytest.mark.parametrize("owner, attr", SPANS)
def test_traced_name_is_bound_where_it_is_looked_up(owner, attr):
    assert attr in owner.__dict__, f"{owner.__name__} no longer binds {attr!r}"


# names a module imports only for the tracer to wrap; each goes with its span (ROADMAP item 6, after item 1)
TRACER_ONLY = {"novelcap.memory.cross_entropy"}
MODULE_SPANS = {f"{owner.__name__}.{attr}": (owner, attr) for owner, attr in (p.values for p in SPANS)
                if inspect.ismodule(owner)}


def names_beyond_imports(module) -> set[str]:
    """Every name ``module``'s source reads, assigns or defines outside its import statements."""
    tree = ast.parse(inspect.getsource(module))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))})


@pytest.mark.parametrize("owner, attr", [pytest.param(*span, id=name) for name, span in sorted(MODULE_SPANS.items())])
def test_traced_name_is_used_in_its_module_beyond_its_import(owner, attr):
    name = f"{owner.__name__}.{attr}"
    if name in TRACER_ONLY:
        assert attr not in names_beyond_imports(owner), f"{name} is used now: take it off TRACER_ONLY"
    else:
        assert attr in names_beyond_imports(owner), f"{owner.__name__} imports {attr!r} only for the tracer to wrap"
