"""The package's modules import one another without a cycle, and each
name has one home: the module that defines it, not the package.

Every import of one ``novelcap`` module by another counts, at module
level or inside a function: a function-level import that only dodges a
cycle at load time still ties the two modules together.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "novelcap"


def package_imports(path: Path, modules) -> set[str]:
    """The modules of ``modules`` that the source file ``path`` imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name[len("novelcap."):] for alias in node.names if alias.name.startswith("novelcap.")]
        elif isinstance(node, ast.ImportFrom):
            # "from .x import y" and "from novelcap.x import y" name x; "from . import x" names x
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "novelcap":
                continue
            if node.level == 0:
                module = module[len("novelcap."):]
            names = [module] if module else [alias.name for alias in node.names]
        else:
            continue
        found.update(name.split(".")[0] for name in names)
    return found & set(modules)


def import_graph(package: Path) -> dict[str, set[str]]:
    modules = {path.stem: path for path in package.glob("*.py") if path.stem != "__init__"}
    return {name: package_imports(path, modules) for name, path in sorted(modules.items())}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of ``graph`` as a closed path (first == last), or None."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        cycle = next((c for c in map(visit, sorted(graph[node])) if c), None)
        path.pop()
        done.add(node)
        return cycle

    return next((c for c in map(visit, sorted(graph)) if c), None)


def test_package_import_graph_has_no_cycle():
    graph = import_graph(PACKAGE)
    assert {"cli", "data", "evaluation", "pipeline"} <= set(graph)
    assert {"data", "evaluation", "pipeline", "config"} <= graph["cli"]  # the parser sees relative imports
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_every_import_form_is_collected(tmp_path):
    (tmp_path / "a.py").write_text("from . import b as bee\nfrom .c import x\n"
                                   "def f():\n    from .d import y\n    import novelcap.e\n"
                                   "    from novelcap import f\n    from novelcap.g import z\nimport numpy\n")
    assert package_imports(tmp_path / "a.py", "abcdefgh") == set("bcdefg")


def test_find_cycle_sees_a_cycle_and_only_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None  # a diamond is no cycle
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"x": {"y"}, "y": {"y"}}) == ["y", "y"]


def test_the_package_binds_only_its_submodules():
    package = importlib.import_module("novelcap")
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"novelcap.{path.stem}")
    public = {name: value for name, value in vars(package).items() if not name.startswith("_")}
    strays = sorted(name for name, value in public.items()
                    if not (isinstance(value, ModuleType) and value.__name__ == f"novelcap.{name}"))
    assert not strays, f"the package re-exports {strays}; import each name from its module"
    assert "__version__" not in vars(package)  # pyproject.toml holds the version
