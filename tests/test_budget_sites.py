"""A greedy decode's byte count is stated once, in ``decoder``, beside the
buffers it counts. A ``within_budget`` call anywhere else in
``src/novelcap`` whose byte count reads ``max_steps`` fails here, so a
second statement of the decode's layout cannot come back unnoticed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "novelcap"


def name_of(node) -> str | None:
    """The name a Name or an Attribute node reads, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def decode_counts(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each ``within_budget`` call in
    ``source`` whose byte count, its first argument or ``n_bytes``, reads a
    name or attribute ``max_steps``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and name_of(node.func) == "within_budget":
            count = node.args[0] if node.args else next(kw.value for kw in node.keywords if kw.arg == "n_bytes")
            if any(name_of(n) == "max_steps" for n in ast.walk(count)):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_the_decoder_states_a_greedy_decodes_byte_count():
    counts = sorted((path.stem, function) for path in PACKAGE.glob("*.py")
                    for function, _ in decode_counts(path.read_text(encoding="utf-8")))
    assert counts == [("decoder", "decode_within_budget")], counts


def test_every_form_of_a_decode_byte_count_is_seen():
    source = ("def a(n):\n    within_budget(n.max_steps * 8, E, '', '')\n"
              "def b(max_steps, h):\n    config.within_budget((2 * max_steps + 1) * h * 8, E, '', '')\n"
              "def c(cfg):\n    within_budget(n_bytes=cfg.max_steps, error=E, sizes='', holding='')\n"
              "def d(n):\n    within_budget(n * 8, E, 'max_steps', '')\n"  # a name in the message is no count
              "within_budget(max_steps, E, '', '')\n")
    assert decode_counts(source) == [("a", 2), ("b", 4), ("c", 6), (None, 9)]
