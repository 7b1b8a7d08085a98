"""Only typea infers k or pads a partition: every other module reads a
triple through typea.padded_triple, so the counters share one contract."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lrpoly"

OWNED_BY_TYPEA = {"pad_partition", "infer_k"}


def _called_name(node: ast.Call):
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def test_only_typea_infers_k_or_pads():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        if path.name == "typea.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [
            f"{path.name}:{node.lineno} {_called_name(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _called_name(node) in OWNED_BY_TYPEA
        ]
    assert found == []
