"""``tools/code_lines.py --defs``: each module's code lines, split into its
top-level definitions and the rest, add up to the module's count."""

import ast

import pytest

from helpers import ROOT, load_tool

code_lines = load_tool("code_lines")


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "uavsec").glob("*.py")), ids=lambda path: path.name)
def test_definitions_and_module_level_lines_sum_to_the_module_total(path):
    rows = code_lines.definitions(path)
    assert rows[-1][0] == "(module level)"
    assert sum(lines for _, lines in rows) == code_lines.count(path)[0]
    # One row per top-level class and function, each holding code.
    defined = [node.name for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    names = [name for name, _ in rows[:-1]]
    assert [name for name in names if name in defined] == defined
    assert all(lines > 0 for _, lines in rows[:-1])
