"""Count the code lines of each module of src/df0l, and their total.

A code line holds at least one token of code: blank lines, comment-only
lines and the lines of docstrings (a string standing alone as a statement)
are not counted, while every line of a statement that spans several lines
is.  Run by hand:

    python tests/code_lines.py [directory]

where the directory, src/df0l by default, may be that of another checkout.

pytest does not collect this file, since its name does not start with
test_.
"""

import ast
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "df0l")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of code lines in the Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(root: str = SRC) -> int:
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as handle:
                count = code_lines(handle.read())
            print(f"{count:6d}  {name}")
            total += count
    print(f"{total:6d}  total")
    return total


if __name__ == "__main__":
    main(*sys.argv[1:])
