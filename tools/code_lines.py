"""Count the code lines and physical lines of each module in ``src/uavsec``.

A code line is a physical line that holds a token other than a comment, a
line break or an indent change, outside a docstring (the first statement of
a module, class or function body, when it is a string). A token that spans
several lines (a multi-line string that is not a docstring) makes each of
them a code line. The counts use only ``tokenize`` and ``ast``.

Usage: ``python tools/code_lines.py [SRC_DIR]`` (default: ``src/uavsec``
next to this script's parent). Prints one line per module, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, physical lines) of one Python file."""
    text = path.read_text()
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    with path.open() as fh:
        for token in tokenize.generate_tokens(fh.readline):
            if token.type not in _NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings), len(text.splitlines())


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "uavsec"
    total_code = total_physical = 0
    print(f"{'module':<24}{'code':>6}{'physical':>10}")
    for path in sorted(src.rglob("*.py")):
        code, physical = count(path)
        total_code += code
        total_physical += physical
        print(f"{str(path.relative_to(src)):<24}{code:>6}{physical:>10}")
    print(f"{'total':<24}{total_code:>6}{total_physical:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
