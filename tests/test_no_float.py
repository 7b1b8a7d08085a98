"""The library computes exactly: no float enters src/lrpoly."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lrpoly"

MATH_FLOATS = {"sqrt", "log", "exp"}


def _float_use(node) -> bool:
    """A float literal, a float(...) call, or math.sqrt/log/exp however
    it was imported."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        return any(alias.name in MATH_FLOATS for alias in node.names)
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name):
            return f.id == "float"
        return (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id == "math"
            and f.attr in MATH_FLOATS
        )
    return False


def _float_uses(source: str, name: str) -> list:
    tree = ast.parse(source, name)
    return [
        f"{name}:{node.lineno}" for node in ast.walk(tree) if _float_use(node)
    ]


def test_the_guard_sees_every_form():
    for line in (
        "x = 0.5", "x = 1e3", "x = 2j", "y = float(n)", "y = math.sqrt(2)",
        "y = math.log(n)", "y = math.exp(n)", "from math import sqrt",
    ):
        assert _float_uses(line, "probe") == ["probe:1"], line
    for line in ("x = 1", "y = int(n)", "from math import lcm, prod"):
        assert _float_uses(line, "probe") == [], line


def test_library_has_no_float():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        found += _float_uses(path.read_text(encoding="utf-8"), path.name)
    assert found == []
