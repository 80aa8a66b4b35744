"""README's Library tour, run as written: each expression line with a
trailing comment gives the result that comment states."""

from __future__ import annotations

import ast
import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced_block(heading: str) -> str:
    """The first ```python block after heading."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(heading + "\n") :]
    start = after.index("```python\n") + len("```python\n")
    return after[start : after.index("```\n", start)]


def test_library_tour_gives_the_results_its_comments_state():
    block = _fenced_block("## Library tour")
    lines = block.splitlines()
    ns: dict = {}
    stated = []
    for stmt in ast.parse(block).body:
        line = lines[stmt.end_lineno - 1]
        if not (isinstance(stmt, ast.Expr) and "#" in line):
            exec(compile(ast.Module([stmt], []), "README", "exec"), ns)
            continue
        want = line.split("#", 1)[1].strip()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), ns)
        assert (out.getvalue().strip() if value is None else repr(value)) == want
        stated.append(want)
    assert stated == ["Fraction(2, 3)", "one-box", "True"]
