"""Rules the package's source keeps, read off its syntax trees."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bridgekit"


def test_no_assert_does_real_checking():
    # python -O drops assert statements, so every check the package makes raises
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
