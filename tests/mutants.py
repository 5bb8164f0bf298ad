"""Mutation runner: mutate one function at a time, run a test subset on each mutant.

Each target is ``module:qualname=tests``: a function or method of
``src/hardylab/<module>.py`` and the comma-separated pytest arguments that
should kill its mutants.  It all runs in a ``git archive`` copy of
``--rev`` in a temporary directory, never in the checkout::

    python tests/mutants.py --rev HEAD 'lhv:_local_model=tests/test_lhv_census.py'

A mutant swaps one comparison, arithmetic or boolean operator, adds one to
an int constant, or negates a ``not`` or an ``if``/``while`` test.  It is
killed if the subset fails or runs ten times longer than on the unmutated
copy.  Not named ``test_*.py``, so pytest does not collect it.
"""

import argparse
import ast
import copy
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
}


def sites(tree: ast.Module, qualname: str) -> list[ast.AST]:
    """Every node in the body of the function ``qualname``, in a fixed order."""
    node = tree
    for name in qualname.split("."):
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return [n for statement in node.body for n in ast.walk(statement)]


def mutate(node: ast.AST, k: int) -> bool:
    """Apply the ``k``-th mutation of ``node`` in place; False if there is none."""
    if isinstance(node, ast.Compare) and k < len(node.ops):
        node.ops[k] = SWAPS[type(node.ops[k])]()
    elif k:
        return False
    elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        node.value += 1
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        node.operand = ast.UnaryOp(ast.Not(), node.operand)
    elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
        node.test = ast.UnaryOp(ast.Not(), node.test)
    else:
        return False
    return True


def mutants(source: str, qualname: str):
    """Yield ``(description, mutated module source)`` once per distinct mutant."""
    tree, seen = ast.parse(source), set()
    for i, node in enumerate(sites(tree, qualname)):
        for k in range(8):
            clone = copy.deepcopy(tree)
            site = sites(clone, qualname)[i]
            before = ast.unparse(site).split("\n", 1)[0]
            if not mutate(site, k):
                break
            mutated = ast.unparse(clone)
            if mutated not in seen:
                seen.add(mutated)
                after = ast.unparse(site).split("\n", 1)[0]
                yield f"line {node.lineno}: {before} -> {after}", mutated


def passes(root: Path, tests: list[str], timeout: float | None = None) -> bool:
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *tests]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    try:
        return not subprocess.run(argv, cwd=root, env=env, capture_output=True,
                                  timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="the git revision to mutate")
    parser.add_argument("targets", nargs="+", help="module:qualname=test,test,...")
    args = parser.parse_args(argv)
    tar = subprocess.run(["git", "archive", args.rev], check=True, capture_output=True,
                         cwd=Path(__file__).resolve().parents[1]).stdout
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        tarfile.open(fileobj=io.BytesIO(tar)).extractall(root)
        for target in args.targets:
            name, _, tests = target.partition("=")
            module, _, qualname = name.partition(":")
            path = root / "src" / "hardylab" / f"{module}.py"
            original, tests = path.read_text(encoding="utf-8"), tests.split(",")
            start = time.perf_counter()
            if not passes(root, tests):
                print(f"{name}: the subset fails on the unmutated copy")
                return 1
            timeout = 10 * (time.perf_counter() - start) + 10
            survivors, total = [], 0
            for total, (description, source) in enumerate(mutants(original, qualname), 1):
                path.write_text(source, encoding="utf-8")
                if passes(root, tests, timeout):
                    survivors.append(description)
            path.write_text(original, encoding="utf-8")
            print(f"{name} at {args.rev}: killed {total - len(survivors)}/{total}")
            for description in survivors:
                print(f"  survived {description}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
