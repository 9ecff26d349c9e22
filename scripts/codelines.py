#!/usr/bin/env python3
"""Code lines of `src/hmtsim`: per module and in total, the lines that hold
a token other than a comment, outside every docstring. `tokenize` finds the
lines with code on them; `ast` finds the docstrings (a string that is the
first statement of a module, class or function), whose lines are left out.
Blank lines hold no token, so they never count.

    python3 scripts/codelines.py [DIR]

DIR defaults to this repository's `src/hmtsim`. CHANGES.md, ROADMAP.md and
the `BENCH_*.json` files cite this count for a tree before and after a
change.
"""

import ast
import io
import pathlib
import sys
import tokenize

# tokens that put no code on their line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(path: pathlib.Path) -> int:
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else \
        pathlib.Path(__file__).resolve().parent.parent / "src" / "hmtsim"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:<16}{n:>6}")
    print(f"{'total':<16}{total:>6}")


if __name__ == "__main__":
    main()
