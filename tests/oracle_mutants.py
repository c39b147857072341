"""Mutation analysis of the oracle: does tier-1 kill every one-token mutant
of the statements inside ``src/quadratizer/verify.py``'s functions?

Each mutant changes one token: a comparison (``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``is``/``is not``, ``in``/``not in``), ``+``/``-``,
``*``/``//``, ``and``/``or``, a dropped ``not``, a small int constant plus
one, or ``min``/``max``.  Each runs on a temporary copy of ``src/`` and
``tests/``, one pytest subprocess at a time, with ``-x``, no cache and a
fixed hypothesis seed so that its verdict repeats; the verify and gate tests
run first, so most mutants die in seconds.  The mutants that survive and
cannot change any output are pinned in EQUIVALENT with their reason.

    python tests/oracle_mutants.py

The exit status is 1 when a mutant outside EQUIVALENT survives, or when a
pinned one no longer exists or is killed (the pin is stale), else 0.  The
file is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import bisect
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src/quadratizer/verify.py")
FIRST = ["tests/test_verify.py", "tests/test_gate.py"]
HYPOTHESIS_SEED = "0"
TIMEOUT_S = 600  # about ten times the whole suite's run

SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "//", "//": "*", "and": "or", "or": "and",
         "is": "is not", "is not": "is", "in": "not in", "not in": "in",
         "min": "max", "max": "min"}
SMALL_INTS = range(10)

# (function, statement line as written, token, replacement): why no output changes
EQUIVALENT = {
    ("_value_blocks", "while fast < len(vars) and size * len(domains[fast]) <= BLOCK_STATES:",
     "<=", "<"): "only the block size changes, and no output depends on it",
    ("_value_blocks", "while fast < len(vars) and size * len(domains[fast]) <= BLOCK_STATES:",
     "*", "//"): "only the block size changes, and no output depends on it",
    ("_value_blocks", "for values in domains[: fast - 1]:", "-", "+"):
        "the last stride is never read, so the extra ones are not either",
    ("_fold", "if len(values) > size:", ">", ">="):
        "a block of exactly one x-space folds to itself",
}


_OPERATORS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
              ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
              ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
              ast.FloorDiv: "//", ast.And: "and", ast.Or: "or"}


class _Source:
    """The target's UTF-8 bytes, addressed as ast positions are: a line
    number and a byte column."""

    def __init__(self, text: str):
        self.data = text.encode("utf-8")
        self.lines = self.data.splitlines(keepends=True)
        self.starts = [0]
        for line in self.lines:
            self.starts.append(self.starts[-1] + len(line))

    def start(self, node) -> int:
        return self.starts[node.lineno - 1] + node.col_offset

    def end(self, node) -> int:
        return self.starts[node.end_lineno - 1] + node.end_col_offset

    def operator(self, left, right, word: str) -> tuple:
        """(start, end) of the operator `word` between the nodes `left` and
        `right`, where only blanks, parentheses and comments stand besides."""
        a, b = self.end(left), self.start(right)
        segment = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), self.data[a:b])
        pattern = rb"[\s\\()]*(" + rb"\s+".join(map(re.escape, word.encode().split())) + rb")"
        match = re.match(pattern, segment)
        if not match:
            raise LookupError(f"no {word!r} in {self.data[a:b]!r}")
        return a + match.start(1), a + match.end(1)

    def sites(self, node):
        """(start, end, token, replacement) for each mutable token of `node`."""
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops,
                                       node.comparators):
                word = _OPERATORS[type(op)]
                yield (*self.operator(left, right, word), word, SWAPS[word])
        elif isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            word = _OPERATORS[type(node.op)]
            yield (*self.operator(node.left, node.right, word), word, SWAPS[word])
        elif isinstance(node, ast.BoolOp):
            word = _OPERATORS[type(node.op)]
            for left, right in zip(node.values, node.values[1:]):
                yield (*self.operator(left, right, word), word, SWAPS[word])
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield self.start(node), self.start(node.operand), "not", ""  # the space goes too
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in SMALL_INTS):
            yield self.start(node), self.end(node), str(node.value), str(node.value + 1)
        elif isinstance(node, ast.Name) and node.id in ("min", "max"):
            yield self.start(node), self.end(node), node.id, SWAPS[node.id]


def mutants(text: str) -> list:
    """[(key, mutated text)] for every site inside a function body, in
    source order.  The key is (innermost function, its line as written,
    token, replacement), plus the site's number among equal keys from the
    second on."""
    source = _Source(text)
    owner = {}
    # ast.walk reaches an outer function before the functions inside it, so
    # the innermost one is the last to claim a site
    for function in ast.walk(ast.parse(text)):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for statement in function.body:
                for node in ast.walk(statement):
                    for site in source.sites(node):
                        owner[site] = function.name
    result, seen = [], {}
    for (start, end, word, new), name in sorted(owner.items()):
        row = bisect.bisect_right(source.starts, start) - 1
        key = (name, source.lines[row].decode("utf-8").strip(), word, new)
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key = (*key, seen[key])
        mutated = source.data[:start] + new.encode() + source.data[end:]
        result.append((key, mutated.decode("utf-8")))
    return result


def _describe(key) -> str:
    name, line, word, new = key[:4]
    where = f" #{key[4]}" if len(key) > 4 else ""
    return f"{name}: `{line}` {word!r} -> {new!r}{where}"


def run_mutant(mutated: str) -> tuple:
    """(killed, seconds) for one mutant of TARGET under tier-1."""
    with tempfile.TemporaryDirectory(prefix="oracle-mutant-") as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        (tmp / TARGET).write_text(mutated, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        rest = sorted(str(path.relative_to(tmp)) for path in (tmp / "tests").glob("test_*.py"))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--hypothesis-seed", HYPOTHESIS_SEED,
                   *FIRST, *(path for path in rest if path not in FIRST)]
        start = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:  # a hang fails the suite as a failed test does
            return True, time.perf_counter() - start
        return done.returncode != 0, time.perf_counter() - start


def main() -> int:
    found = mutants((ROOT / TARGET).read_text(encoding="utf-8"))
    survivors, total = [], 0.0
    for number, (key, mutated) in enumerate(found, 1):
        killed, seconds = run_mutant(mutated)
        total += seconds
        verdict = "killed" if killed else "SURVIVED"
        print(f"[{number}/{len(found)}] {verdict} in {seconds:.1f} s: {_describe(key)}", flush=True)
        if not killed:
            survivors.append(key)
    unexpected = [key for key in survivors if key not in EQUIVALENT]
    stale = [key for key in EQUIVALENT if key not in survivors]
    print(f"{len(found)} mutants, {len(found) - len(survivors)} killed, "
          f"{len(survivors)} survived ({len(survivors) - len(unexpected)} pinned equivalent), "
          f"{total:.0f} s of pytest")
    for key in survivors:
        print(f"  survived: {_describe(key)}: {EQUIVALENT.get(key, 'NOT PINNED')}")
    for key in stale:
        print(f"  stale pin, not a survivor: {_describe(key)}")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
