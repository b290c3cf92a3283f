"""Every text file the package reads goes through ``config.text_lines``:
one reader, one UTF-8 rule and one line numbering. A call in
``src/novelcap`` that opens a file to read text anywhere else fails here,
so a second text reader cannot come back unnoticed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "novelcap"


def text_reads(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each call in ``source`` that reads a
    file as text: ``open`` with no mode, or with a mode that holds none of
    ``b``, ``w``, ``x`` and ``a`` (a mode that is not a literal counts as
    text), and ``read_text``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and set(mode.value) & set("bwxa")):
                found.append((function, node.lineno))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "read_text":
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_config_text_lines_opens_a_file_to_read_text():
    reads = sorted((path.stem, function, line) for path in PACKAGE.glob("*.py")
                   for function, line in text_reads(path.read_text(encoding="utf-8")))
    assert {(module, function) for module, function, _ in reads} == {("config", "text_lines")}, reads


def test_every_form_of_a_text_read_is_seen():
    source = ("def a(p):\n    return open(p)\n"
              "def b(p):\n    return open(p, 'r')\n"
              "def c(p):\n    return open(p, mode='rt', encoding='utf-8')\n"
              "def d(p, m):\n    return open(p, m)\n"
              "def e(p):\n    return p.read_text()\n"
              "def f(p):\n    open(p, 'rb'), open(p, 'w'), open(p, 'x'), open(p, mode='a'), open(p, 'r+b')\n"
              "g = open('top')\n")
    assert text_reads(source) == [("a", 2), ("b", 4), ("c", 6), ("d", 8), ("e", 10), (None, 13)]
