"""Print the code lines of each module of ``src/drivenqubit``, and their total.

A code line holds a token other than a comment, a newline or indentation;
a string that spans lines makes each of its lines a code line.  The lines of module,
class and function docstrings do not count, nor do blank lines.  Uses the
standard library alone::

    python tools/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drivenqubit"
_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one module."""
    source = path.read_text()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _BLANK:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


if __name__ == "__main__":
    counts = {path.name: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    sys.stdout.write("".join(f"{name:<{width}} {n:5d}\n" for name, n in counts.items()))
    sys.stdout.write(f"{'total':<{width}} {sum(counts.values()):5d}\n")
