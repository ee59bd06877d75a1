"""Count the code lines and physical lines of each module in ``src/uavsec``.

A code line is a physical line that holds a token other than a comment, a
line break or an indent change, outside a docstring (the first statement of
a module, class or function body, when it is a string). A token that spans
several lines (a multi-line string that is not a docstring) makes each of
them a code line. The counts use only ``tokenize`` and ``ast``.

Usage: ``python tools/code_lines.py [--defs] [SRC_DIR]`` (default:
``src/uavsec`` next to this script's parent). Prints one line per module,
then the total. ``--defs`` also prints, under each module, the code lines of
each top-level definition (a class, a function, or an assignment to names,
from its first decorator to its last line), then the module's other code
lines (imports, the rest) as ``(module level)``; they add up to the module's
count.
"""

from __future__ import annotations

import argparse
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


def _code_lines(path: Path) -> tuple[set[int], int, ast.Module]:
    """The numbers of the code lines of one Python file, its physical line
    count, and its syntax tree."""
    text = path.read_text()
    tree = ast.parse(text)
    code = set()
    with path.open() as fh:
        for token in tokenize.generate_tokens(fh.readline):
            if token.type not in _NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
    return code - _docstring_lines(tree), len(text.splitlines()), tree


def count(path: Path) -> tuple[int, int]:
    """(code lines, physical lines) of one Python file."""
    code, physical, _ = _code_lines(path)
    return len(code), physical


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a class's or function's, or
    the plain names an assignment binds (none for anything else)."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def definitions(path: Path) -> list[tuple[str, int]]:
    """(name, code lines) of each top-level definition of one Python file,
    in file order, then ``("(module level)", n)`` for its other code lines."""
    code, _, tree = _code_lines(path)
    rows = []
    for node in tree.body:
        names = _bound_names(node)
        if names:
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            span = set(range(start, node.end_lineno + 1))
            rows.append((", ".join(names), len(code & span)))
            code -= span
    return rows + [("(module level)", len(code))]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent / "src" / "uavsec",
                        help="the package directory (default: src/uavsec)")
    parser.add_argument("--defs", action="store_true", help="also print each top-level definition's code lines")
    args = parser.parse_args(argv)
    total_code = total_physical = 0
    print(f"{'module':<24}{'code':>6}{'physical':>10}")
    for path in sorted(args.src.rglob("*.py")):
        code, physical = count(path)
        total_code += code
        total_physical += physical
        print(f"{str(path.relative_to(args.src)):<24}{code:>6}{physical:>10}")
        if args.defs:
            for name, lines in definitions(path):
                print(f"  {name:<22}{lines:>6}")
    print(f"{'total':<24}{total_code:>6}{total_physical:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
