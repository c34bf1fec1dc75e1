"""Print the raw and code-only line counts of the covrank package.

Code-only lines are the lines that hold a token other than a comment,
excluding docstrings (the string that opens a module, class or function) and
blank lines. Run from anywhere:

    python3 tools/src_loc.py
"""

import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code-only lines) of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main() -> None:
    package = Path(__file__).resolve().parent.parent / "src" / "covrank"
    raw = code = 0
    for path in sorted(package.glob("*.py")):
        file_raw, file_code = count(path.read_text(encoding="utf-8"))
        print(f"{path.name:16} {file_raw:6} {file_code:6}")
        raw, code = raw + file_raw, code + file_code
    print(f"{'total':16} {raw:6} {code:6}")


if __name__ == "__main__":
    main()
