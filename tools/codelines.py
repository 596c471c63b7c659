"""Code-line count of Python files, standard library only.

Prints the number of code lines of each file it is given: lines that hold
a token other than a comment, leaving out blank lines, comment lines and
the lines of module, class and function docstrings.  Usage::

    python3 tools/codelines.py src/nttmul/pipesim.py
"""

import ast
import io
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    lines = {n for tok in tokenize.tokenize(io.BytesIO(source).readline)
             if tok.type not in SKIP
             for n in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docs)


if __name__ == "__main__":
    for name in sys.argv[1:]:
        print(f"{code_lines(name)} {name}")
