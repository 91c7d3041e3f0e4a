"""The package computes in exact integers and rationals only: no floating point."""

import ast
from pathlib import Path

import cuboidsearch

SOURCE = Path(cuboidsearch.__file__).resolve().parent

# math functions that return floats
FLOAT_MATH = {"sqrt", "pow", "log", "log2", "log10", "exp", "fsum", "hypot", "cbrt"}


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, description) of each float or complex literal, float() call and float math use.

    A float math function counts as used when it is called as math.<name>
    or imported by name from math.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                found.append((node.lineno, "float() call"))
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "math"
                and func.attr in FLOAT_MATH
            ):
                found.append((node.lineno, f"math.{func.attr}() call"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                (node.lineno, f"import of math.{alias.name}")
                for alias in node.names
                if alias.name in FLOAT_MATH
            ]
    return found


def test_scan_finds_each_kind_of_float_use():
    source = (
        "x = 1.5\ny = 2j\nz = float(t)\nw = math.sqrt(4)\nfrom math import gcd, log\n"
        "v = math.isqrt(4) + int('3') + pow(2, 3)\n"
    )
    assert sorted(line for line, _ in float_uses(ast.parse(source))) == [1, 2, 3, 4, 5]


def test_no_floating_point_in_source():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    violations = [
        f"{path.name}:{line}: {what}"
        for path in paths
        for line, what in float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert violations == []
