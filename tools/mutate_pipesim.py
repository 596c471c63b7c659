"""Mutant sweep for the pipeline model, standard library only.

Applies one operator at a time to a temporary copy of the tree, never to
the tree itself, and runs ``tests/test_pipesim.py`` against each mutant of
``src/nttmul/pipesim.py``:

* a comparison negated (``<`` and ``>=``, ``==`` and ``!=``, ``is`` and
  ``is not``, ``in`` and ``not in``);
* an int constant plus or minus one;
* ``+`` and ``-`` swapped, in an expression or an augmented assignment;
* ``and`` and ``or`` swapped;
* a ``not`` dropped.

A mutant is killed when the tests fail (``pytest -x`` stops at the first
failure) or run past the time limit; each one only the limit kills is
printed as ``TIMEOUT``, as a slow test may hide a survivor there.  Each
run has hypothesis's seed fixed and its example database emptied first,
so a mutant's outcome depends on the mutant alone, not on random draws
or on the mutants a tree copy ran before it.  Every survivor missing from
``pipesim_equivalent_mutants.json`` is printed, and the exit status is 1
if there is one.  A full run also prints each listed mutant that no
longer survives, as ``STALE``, and exits 1 if there is one, so an entry
whose code is gone or now killed cannot linger.  That list names each
equivalent mutant by its enclosing function and its mutated source text
(the lines of the mutated node, with whitespace collapsed, and " [k]"
appended to the k-th mutant of one text in one function), never by line
number, and gives a one-line reason.

pyproject's ``pythonpath = ["src"]`` puts the copy's own ``src`` first when
pytest runs from inside the copy; a plugin checks after collection that
the ``nttmul.pipesim`` the tests imported is the copy's mutant.

Mutants are tested one per CPU at once, each CPU with its own tree copy.
Usage, from anywhere::

    python3 tools/mutate_pipesim.py               # every mutant
    python3 tools/mutate_pipesim.py --sample 10   # a fixed sample
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import queue
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGET = Path("src/nttmul/pipesim.py")
EQUIVALENTS = Path(__file__).resolve().with_name(
    "pipesim_equivalent_mutants.json")
TESTS = "tests/test_pipesim.py"
TIMEOUT_S = 300
SEED = 1                # draws the sample, and seeds hypothesis
GUARD_EXIT = 97

NEGATED = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE,
           ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
           ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
           ast.NotIn: ast.In}
SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or,
           ast.Or: ast.And}

GUARD = '''\
import os
import sys

import pytest

EXPECTED = {expected!r}


def pytest_collection_finish(session):
    module = sys.modules.get("nttmul.pipesim")
    if module is not None and os.path.realpath(module.__file__) != EXPECTED:
        pytest.exit(f"the tests imported {{module.__file__}}, not the mutant",
                    returncode={code})
'''


@dataclass(frozen=True)
class Mutant:
    function: str       # enclosing function, dotted, or "<module>"
    text: str           # the mutated node's lines, whitespace collapsed
                        # (" [k]" on the k-th of one text in one function)
    source: bytes       # the whole mutated file


def _replacements(node):
    """The mutated copies of ``node`` the operators give, maybe none."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            new = copy.deepcopy(node)
            new.ops[i] = NEGATED[type(op)]()
            yield new
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for step in (1, -1):
            yield ast.Constant(node.value + step)
    elif (isinstance(node, (ast.BinOp, ast.AugAssign))
          and type(node.op) in SWAPPED):
        new = copy.deepcopy(node)
        new.op = SWAPPED[type(node.op)]()
        yield new
    elif isinstance(node, ast.BoolOp):
        new = copy.deepcopy(node)
        new.op = SWAPPED[type(node.op)]()
        yield new
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand


def mutants(source: bytes) -> list[Mutant]:
    """Every mutant of ``source``, in source order."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    found, seen = [], {}

    def visit(node, scope):
        if isinstance(node, ast.JoinedStr):
            return          # positions inside f-strings are not reliable
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for new in _replacements(node):
            lo = starts[node.lineno - 1] + node.col_offset
            hi = starts[node.end_lineno - 1] + node.end_col_offset
            mutated = source[:lo] + ast.unparse(new).encode() + source[hi:]
            span = mutated[starts[node.lineno - 1]:
                           starts[node.end_lineno] + len(mutated)
                           - len(source)]
            compile(mutated, str(TARGET), "exec")
            key = scope or "<module>", " ".join(span.decode().split())
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:       # the same text again in one function
                key = key[0], f"{key[1]} [{seen[key]}]"
            found.append(Mutant(*key, mutated))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def _copy_tree(dest: Path):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    expected = os.path.realpath(dest / TARGET)
    (dest / "mutant_guard.py").write_text(
        GUARD.format(expected=expected, code=GUARD_EXIT))


def _run_tests(dest: Path, source: bytes) -> str:
    """'survived', 'killed' or 'timeout' for ``source`` as pipesim.py."""
    (dest / TARGET).write_bytes(source)
    shutil.rmtree(dest / ".hypothesis", ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"    # no stale bytecode of a mutant
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", "-p", "mutant_guard",
             f"--hypothesis-seed={SEED}", TESTS],
            cwd=dest, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == GUARD_EXIT:
        sys.exit(f"mutate_pipesim: {done.stdout.strip().splitlines()[-1]}")
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sample", type=int, default=None,
                    help="run this many mutants, a fixed draw")
    args = ap.parse_args(argv)

    every = mutants((ROOT / TARGET).read_bytes())
    chosen = every
    if args.sample is not None:
        chosen = random.Random(SEED).sample(every,
                                            min(args.sample, len(every)))
    listed = {(e["function"], e["mutant"]): e["reason"]
              for e in json.loads(EQUIVALENTS.read_text())}

    with tempfile.TemporaryDirectory(prefix="mutate_pipesim_") as tmp:
        jobs = min(os.cpu_count() or 1, max(1, len(chosen)))
        copies = [Path(tmp, str(i)) for i in range(jobs)]
        for dest in copies:
            _copy_tree(dest)
        original = (ROOT / TARGET).read_bytes()
        if _run_tests(copies[0], original) != "survived":
            sys.exit("mutate_pipesim: the tests fail on the unmutated tree")
        free = queue.SimpleQueue()
        for dest in copies:
            free.put(dest)

        def test(m):
            dest = free.get()
            try:
                return _run_tests(dest, m.source)
            finally:
                free.put(dest)

        with ThreadPoolExecutor(len(copies)) as pool:
            outcomes = list(pool.map(test, chosen))

    for m, o in zip(chosen, outcomes):
        if o == "timeout":
            print(f"TIMEOUT {m.function}: {m.text}")
    survivors = [m for m, o in zip(chosen, outcomes) if o == "survived"]
    unlisted = [m for m in survivors if (m.function, m.text) not in listed]
    for m in unlisted:
        print(f"SURVIVED {m.function}: {m.text}")
    stale = []
    if args.sample is None:     # listed, yet killed or no longer a mutant
        stale = sorted(set(listed) - {(m.function, m.text) for m in survivors})
        for function, text in stale:
            print(f"STALE {function}: {text}")
    print(f"{len(chosen)} of {len(every)} mutants: "
          f"{len(chosen) - len(survivors)} killed "
          f"({outcomes.count('timeout')} by the {TIMEOUT_S} s limit), "
          f"{len(survivors)} survived, {len(unlisted)} of them not listed "
          f"as equivalent")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
