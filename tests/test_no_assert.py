"""Every library check must survive `python -O`, which strips `assert`."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lrpoly"


def test_library_has_no_assert_statement():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
