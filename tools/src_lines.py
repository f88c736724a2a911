"""Count the code, docstring, comment and blank lines of each ``src/threesphere`` module.

    python3 tools/src_lines.py [ROOT]

ROOT is a source checkout, this one by default; run it on two checkouts to
state a change's net lines.  Every physical line falls in one class:

- docstring: inside the string that opens a module, class or function body
  (``ast``), blank lines in it included;
- code: holds a token other than a comment, or lies inside one, such as a
  line of a multi-line string that is not a docstring;
- comment: holds only a comment;
- blank: the rest.

One row per module, in name order, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> dict:
    """Lines of ``source`` per kind, and their ``total``."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    lines = {kind: 0 for kind in KINDS}
    for number in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if number in docstring else "code" if number in code
                else "comment" if number in comment else "blank")
        lines[kind] += 1
    lines["total"] = sum(lines.values())
    return lines


def table(root: Path) -> list:
    """``(module, counts)`` for each module of ``root``'s package, then ``("total", sums)``."""
    rows = [(path.name, count(path.read_text()))
            for path in sorted((root / "src" / "threesphere").glob("*.py"))]
    totals = {kind: sum(lines[kind] for _, lines in rows) for kind in (*KINDS, "total")}
    return rows + [("total", totals)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    if not (args.root / "src" / "threesphere").is_dir():
        parser.error(f"no src/threesphere under {args.root}")
    columns = (*KINDS, "total")
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in columns))
    for name, lines in table(args.root):
        print(f"{name:<16}" + "".join(f"{lines[kind]:>11}" for kind in columns))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
