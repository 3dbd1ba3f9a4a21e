"""Print the number of code lines under ``src/``: the count that CHANGES.md
and ROADMAP.md quote.

A code line is a line with a token that is not a comment and not part of a
docstring (the first statement of a module, class or function, when it is
a string).  Blank lines, comment lines and docstring lines do not count.
The script only reports; it gates nothing.

    python tests/code_lines.py [ROOT]

ROOT defaults to the ``src`` directory next to this file's parent.
"""

import ast
import pathlib
import sys
import tokenize


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    skip = docstring_lines(ast.parse(path.read_text(encoding="utf-8")))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER):
                continue
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(root: pathlib.Path) -> None:
    files = sorted(root.rglob("*.py"))
    for path in files:
        print(f"{code_lines(path):6d}  {path.relative_to(root)}")
    print(f"{sum(map(code_lines, files)):6d}  total")


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else
         pathlib.Path(__file__).resolve().parents[1] / "src")
