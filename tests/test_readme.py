"""README's "Library use" block runs, and every value noted in it holds."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# A comment that starts with an integer notes the value of its statement.
NOTE = re.compile(r"#\s*(-?\d+)\b")


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use")[1].split("\n## ")[0]
    return section.split("```python\n")[1].split("```")[0]


def test_library_use_runs_and_its_noted_values_hold():
    source = library_use_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        note = NOTE.search(lines[stmt.end_lineno - 1])
        if note and isinstance(stmt, ast.Expr):
            assert eval(code, namespace) == int(note.group(1)), code
            checked.append(code)
        else:
            exec(code, namespace)
    # Every noted value belongs to an expression statement and was checked.
    assert len(checked) == len(NOTE.findall(source)) >= 5
