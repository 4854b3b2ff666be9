"""Print the library's size: all lines and code lines, per module and in
total. All lines are counted as ``wc -l`` counts them; code lines leave out
docstrings, comments and blank lines, so that deleting comments never reads
as a smaller library. The per-module rows show which module a change grew or
shrank. CI prints this report; to see it locally, run::

    python tools/line_count.py
"""

import ast
import io
import tokenize
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "credalmeet"

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The lines of ``text`` that hold a token other than a comment, outside
    every module, class and function docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main() -> None:
    texts = {path.name: path.read_text() for path in sorted(SOURCES.glob("*.py"))}
    total = sum(text.count("\n") for text in texts.values())  # as wc -l counts
    print(f"src/ has {total} lines")
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    code = 0
    for name, text in texts.items():
        lines, total = code_lines(text), text.count("\n")
        code += lines
        print(f"{name:<16}{total:>7}{lines:>7}")
    print(f"src/ has {code} code lines (no docstrings, comments or blank lines)")


if __name__ == "__main__":
    main()
